"""One tiny round of each benchmark workload gives its pinned digest.

``perfbench/run.py`` checks every verdict of a round by a route
independent of the call that made it, and hashes the verdicts in task
order, so a changed digest is a changed verdict, counterexample or report
somewhere in the benchmark's mix."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = {
    "exhaustive-axioms":
        "3333ad0e6c18fc1078ad825de9d526f0a4f775c3a6ad3ed1214384feca26e2cd",
    "integer-spectrum":
        "157ab74e05266cdbf10c18a9d441eb8c91ff035fe618b9617d40065c878cb93d",
    "finite-lattices":
        "0bec47e6791ab10128645215ae2a30694d3c2147f6c7c3883a07c264c73c5ec6",
    "cli-requests":
        "9a17c9271a2eeb41f367473cb182645521bff23296c142fd7d2ea84005370361",
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_tiny_round_keeps_its_digest(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--rounds", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert not [line for line in lines if line.startswith("FAILED")], lines
    assert f"digest: {DIGESTS[workload]}" in lines
