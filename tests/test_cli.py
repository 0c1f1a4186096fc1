import json
import re
import shlex
import time
import tracemalloc

import numpy as np
import pytest

from approxalg import (
    ResidueRing,
    cli,
    closures,
    localization,
    nullstellensatz,
    rings,
)
from approxalg import spectrum as spectrum_module
from approxalg.cli import build_parser, main
from approxalg.closures import GeneratedIdealClosure, UnionFixedClosure
from approxalg.localization import check_transfer_axioms, localize, mult_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_spec_mod_30(self, capsys):
        code, out, _ = run(capsys, "spec", "--ring", "Z",
                           "--closure", "shift:J=30")
        assert code == 0
        assert "(2), (3), (5)" in out

    def test_vset(self, capsys):
        code, out, _ = run(capsys, "vset", "--ring", "Z",
                           "--closure", "shift:J=30", "--ideal", "12")
        assert code == 0
        assert "(2), (3)" in out

    def test_dset(self, capsys):
        code, out, _ = run(capsys, "dset", "--ring", "Z",
                           "--closure", "shift:J=30", "--ideal", "12")
        assert code == 0
        assert "(5)" in out

    def test_is_prime(self, capsys):
        code, out, _ = run(capsys, "is-prime", "--ring", "Z",
                           "--closure", "shift:J=12", "--ideal", "3")
        assert code == 0
        assert "prime: True" in out

    def test_is_prime_on_a_large_ring(self, capsys):
        """No price refuses a ring of 2048 elements: the prime test reads
        the act rows of the elements outside P."""
        code, out, _ = run(capsys, "is-prime", "--ring", "Zn:2048",
                           "--closure", "gen", "--ideal", "2")
        assert code == 0
        assert "prime: True" in out

    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "--ring", "Z",
                           "--closure", "shift:J=12",
                           "--ideal", "2", "--ideal", "3")
        assert code == 0
        assert "product: (6)" in out

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "--ring", "Z",
                           "--closure", "shift:J=6", "--ideal", "4")
        assert code == 0
        assert "classes: 2" in out

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "radical", "--ring", "Z",
                           "--closure", "shift:J=12", "--ideal", "0")
        assert code == 0
        assert "radical: (6)" in out


class TestChecks:
    def test_axioms_exhaustive(self, capsys):
        code, out, _ = run(capsys, "axioms", "--ring", "Zn:12",
                           "--closure", "shift:J=4", "--mode", "exhaustive")
        assert code == 0
        assert out.count("[pass]") == 6

    def test_topology(self, capsys):
        code, out, _ = run(capsys, "topology", "--ring", "Zn:12",
                           "--closure", "gen")
        assert code == 0
        assert "[pass] T0" in out and "[pass] T1" in out

    def test_topology_past_64_elements(self, capsys):
        """Z/128 has 8 subgroups: its lattice is cheap, so the work price
        admits it where a cardinality guard of 64 refused it."""
        code, out, _ = run(capsys, "topology", "--ring", "Zn:128",
                           "--closure", "gen")
        assert code == 0
        assert "[pass] T1" in out

    def test_localize(self, capsys):
        code, out, _ = run(capsys, "localize", "--ring", "Z",
                           "--closure", "shift:J=30", "--mult-set", "2")
        assert code == 0
        assert "classes: 15" in out
        assert "extension-contraction-bijection" in out

    def test_nullstellensatz(self, capsys):
        code, out, _ = run(capsys, "nullstellensatz", "--ring", "Fun:p=2,n=1",
                           "--closure", "pointwise")
        assert code == 0
        assert "[pass] radical-equals-vanishing-ideal" in out

    def test_modules(self, capsys, tmp_path):
        doc = {"module": {"scalars": "Z", "orders": [12]},
               "closure": {"name": "shift", "shift": [[6]]},
               "check": "cm-axioms", "mode": "exhaustive"}
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "modules", "--file", str(path))
        assert code == 0
        assert "[pass] CM4" in out

    def test_modules_inline_spec(self, capsys):
        doc = {"module": {"scalars": "Z", "orders": [24]},
               "closure": {"name": "gen"}, "check": "iso3",
               "N": [[12]], "K": [[6]]}
        code, out, _ = run(capsys, "modules", "--spec", json.dumps(doc))
        assert code == 0
        assert "[pass] class-counts-equal" in out


# a request each ring subcommand answers, and the options its handler reads
# beside --ring, --closure and --format
ON_Z6 = ["--ring", "Zn:6", "--closure", "gen"]
REQUESTS = {
    "axioms": (ON_Z6, {"--seed", "--bound", "--mode"}),
    "localize": (ON_Z6 + ["--mult-set", "5"], {"--seed", "--bound", "--mode"}),
    "spec": (ON_Z6, {"--bound"}),
    "vset": (ON_Z6 + ["--ideal", "2"], {"--bound"}),
    "dset": (ON_Z6 + ["--ideal", "2"], {"--bound"}),
    "topology": (ON_Z6, {"--bound"}),
    "radical": (ON_Z6 + ["--ideal", "0"], {"--bound"}),
    "is-prime": (ON_Z6 + ["--ideal", "2"], set()),
    "product": (ON_Z6 + ["--ideal", "2", "--ideal", "3"], set()),
    "quotient": (ON_Z6 + ["--ideal", "2"], set()),
    "nullstellensatz": (["--ring", "Fun:p=2,n=1", "--closure", "pointwise"],
                        set()),
}
VALUES = {"--seed": "5", "--bound": "20", "--mode": "sampled"}


class TestOptions:
    """Each subcommand takes exactly the options its handler reads."""

    @pytest.mark.parametrize("command,option", [
        (command, option) for command in REQUESTS for option in VALUES])
    def test_an_option_is_taken_where_it_is_read(self, capsys, command,
                                                 option):
        base, reads = REQUESTS[command]
        argv = [command, *base, option, VALUES[option]]
        if option in reads:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert out.startswith(f"command: {command}")
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err
        assert "Traceback" not in captured.err

    def test_sampled_localize_carries_its_seed(self, capsys):
        code, out, _ = run(capsys, "localize", "--ring", "Zn:12", "--closure",
                           "gen", "--mult-set", "3", "--mode", "sampled",
                           "--seed", "7", "--format", "json")
        assert code == 0
        transfer = [v for v in json.loads(out)["verdicts"]
                    if v["axiom"].startswith("transfer-")]
        ring = ResidueRing(12)
        loc = localize(ring, GeneratedIdealClosure(ring),
                       mult_set(ring, [3]))
        rep = check_transfer_axioms(loc, mode="sampled", seed=7)
        assert rep.seed == 7
        assert transfer == [
            json.loads(json.dumps(dict(rep.verdicts[name].to_dict(),
                                       axiom=f"transfer-{name}"),
                                  default=str))
            for name in rep.AXIOMS if name in rep.verdicts]

    def test_the_parser_is_built_once(self, capsys):
        build_parser.cache_clear()
        for _ in range(2):
            assert run(capsys, "spec", *ON_Z6)[0] == 0
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_appended_ideals_do_not_leak_between_calls(self, capsys):
        for pair, product in (("2", "3"), "(6)"), (("4", "9"), "(12)"):
            code, out, _ = run(capsys, "product", "--ring", "Z", "--closure",
                               "shift:J=12", "--ideal", pair[0],
                               "--ideal", pair[1])
            assert code == 0
            assert f"product: {product}" in out


class TestExitCodes:
    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spec", "--ring", "What:3",
                           "--closure", "gen")
        assert code == 2
        assert "error" in err

    def test_resource_guard_is_exit_3(self, capsys):
        code, _, err = run(capsys, "axioms", "--ring", "Zn:40",
                           "--closure", "gen", "--mode", "exhaustive")
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("request_, module, limit", [
        ("axioms --ring Zn:17 --closure gen --mode exhaustive",
         closures, "EXHAUSTIVE_SUBSET_CAP"),
        ("axioms --ring Fun:p=2,n=2 --closure "
         "sample:[{(0,0),(0,1),(1,0),(1,1)}] --mode exhaustive",
         closures, "EXHAUSTIVE_ELEMENTS"),
        ("axioms --ring Zn:128 --closure gen --mode sampled",
         closures, "LIST_PAIR_CELL_LIMIT"),
        ("spec --ring Z --closure shift:J=1000000007",
         closures, "Z_SWEEP_CELL_LIMIT"),
        ("spec --ring Zn:1000000007 --closure gen",
         rings, "SUBGROUP_WORK_LIMIT"),
        ("spec --ring Zn:1024 --closure gen", rings, "SUBGROUP_WORK_LIMIT"),
        ("quotient --ring Zn:1025 --closure gen --ideal 0",
         rings, "SUBGROUP_WORK_LIMIT"),
        ("localize --ring Zn:4099 --closure gen --mult-set 1",
         localization, "LOCALIZATION_PAIR_LIMIT"),
        ("localize --ring Z --closure shift:J=1025 --mult-set 1",
         rings, "SUBGROUP_WORK_LIMIT"),
        ("localize --ring Z --closure shift:J=10000 --mult-set 1",
         closures, "LIST_PAIR_CELL_LIMIT"),
        ("nullstellensatz --ring Fun:p=2,n=13 --closure pointwise",
         nullstellensatz, "POINT_GUARD"),
        ("topology --ring prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2,Zn:2] --closure gen",
         spectrum_module, "TOPOLOGY_CELL_LIMIT")])
    def test_every_refusal_names_its_price_and_limit(
            self, capsys, request_, module, limit):
        """One request per guard the CLI reaches: exit 3, no report, and
        one stderr line naming the amount against the module's constant."""
        code, out, err = run(capsys, *shlex.split(request_))
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        got = re.fullmatch(r"resource limit: .+ priced at (\d+) .+, "
                           r"past the limit (\d+)", line)
        assert got, line
        amount, stated = map(int, got.groups())
        assert stated == getattr(module, limit) < amount

    @pytest.mark.parametrize("request_, amount", [
        ("axioms --ring Zn:20000 --closure gen --mode exhaustive",
         "2^20000 subsets"),
        ("spec --ring Fun:p=2,n=14 --closure gen",
         "more than 2^24576 elements")])
    def test_an_amount_past_any_decimal_is_named_by_its_order(
            self, capsys, request_, amount):
        """Python prints no int of more than 4300 digits: 2^20000 subsets,
        or a lower bound over a ring of 2^16384 elements, are written by
        their binary order, not raised as a ValueError."""
        code, out, err = run(capsys, *shlex.split(request_))
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert f" priced at {amount}, past the limit " in line

    def test_auto_mode_does_not_build_its_subset_count(self, capsys):
        """2^64 elements: the choice of mode compares the ring size with the
        cap's bit length, so no 2^(2^64) is built (a MemoryError), and the
        subgroup mode's price refuses the ring."""
        code, out, err = run(capsys, "axioms", "--ring", "Fun:p=2,n=6",
                             "--closure", "gen")
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("resource limit: subgroup enumeration of "
                               "Fun:p=2,n=6, at least 2(n - 1) sqrt(n) for "
                               "n = 18446744073709551616, priced at ")

    def test_topology_pair_walk_is_priced_before_it_starts(self, capsys):
        """(Z/2)^6 has 2825 approximate ideals under gen, 2825^2 x 64
        cells: refused once the pool is known, not walked for hours."""
        start = time.perf_counter()
        code, out, err = run(capsys, "topology", "--ring",
                             "prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2,Zn:2]",
                             "--closure", "gen")
        assert code == 3 and out == ""
        assert "priced at" in err and "64 basic opens" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 5

    def test_unpriceable_integer_sweep_is_exit_3(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "spec", "--ring", "Z",
                                 "--closure", "shift:J=1000000007")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource limit:")
        assert "priced at" in lines[0] and "Traceback" not in err
        # refused before the (m + 1) x 2m box or any block of it exists
        assert peak < 4 << 20

    @pytest.mark.parametrize("ring", ["Zn:1000000007", "Fun:p=2,n=5"])
    def test_huge_ring_enumeration_is_exit_3_at_once(self, capsys, ring):
        """10^9 + 7 and 2^32 elements: the enumeration's lower bound refuses
        them before an element list exists."""
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "spec", "--ring", ring,
                                 "--closure", "gen")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource limit:")
        assert re.search(r"at least 2\(n - 1\) sqrt\(n\) for n = \d+, "
                         r"priced at \d+ elements, past the limit", lines[0])
        assert peak < 4 << 20
        assert time.perf_counter() - start < 2

    def test_localization_pair_guard_names_its_count_and_limit(self, capsys):
        code, out, err = run(capsys, "localize", "--ring", "Zn:4099",
                             "--closure", "gen", "--mult-set", "1")
        assert code == 3 and out == ""
        assert err == (
            "resource limit: the localization of Zn:4099 at <1>, |R| |S| = "
            "4099 x 1, priced at 4099 representative pairs, past the limit "
            "4096\n")

    def test_failed_localization_reports_its_verdicts_and_stops(
            self, capsys, monkeypatch):
        """Z/4 under the union-fixed closure of {1} at S = {1} (no closure
        of the grammar fails these verdicts): no model, so no classes and
        no checks that would read one."""
        monkeypatch.setattr(cli, "parse_closure",
                            lambda ring, text: UnionFixedClosure(ring, [1]))
        code, out, err = run(capsys, "localize", "--ring", "Zn:4",
                             "--closure", "gen", "--mult-set", "1")
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "command: localize",
            "  [FAIL] equivalence-relation  counterexample: "
            "{'pair1': (1, 1), 'pair2': (0, 1), 'related': True}",
            "  [FAIL] operations-well-defined  counterexample: "
            "{'pair': (3, 1), 'rep': (0, 1), 'other': (1, 1), 'op': 'add'}"]

    def test_quotient_of_a_thousand_classes(self, capsys):
        """Z/1000 by (0): its ring laws read n^2 cells per additive
        generator (a loop over every triple took about 17 s)."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "quotient", "--ring", "Zn:1000",
                           "--closure", "gen", "--ideal", "0")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines() == [
            "command: quotient", "classes: 1000",
            "  [pass] congruence-classes-partition",
            "  [pass] addition-well-defined",
            "  [pass] multiplication-well-defined", "  [pass] ring-axioms"]
        assert elapsed < 10

    def test_quotient_past_the_group_check_price_is_exit_3(self, capsys):
        code, out, err = run(capsys, "quotient", "--ring", "Zn:1025",
                             "--closure", "gen", "--ideal", "0")
        assert code == 3 and out == ""
        assert "over its 1025 x 1025 add table priced at 1050625 cells, past " \
            "the limit 1048576" in err

    @pytest.mark.parametrize("ring, closure, model", [
        ("Zn:1025", "gen", "S^-1(Zn:1025)"),
        ("Z", "shift:J=1025", "S^-1Z (classes mod 1025)")])
    def test_localize_past_the_group_check_price_is_exit_3(
            self, capsys, ring, closure, model):
        code, out, err = run(capsys, "localize", "--ring", ring,
                             "--closure", closure, "--mult-set", "1")
        assert code == 3 and out == ""
        assert f"the group check of {model} over its 1025 x 1025 add table " \
            "priced at 1050625 cells, past the limit 1048576" in err

    @pytest.mark.parametrize("spec, message", [
        ('{"bad": 1', "malformed JSON: Expecting ',' delimiter at position 9: "
                      "'{\"bad\": 1'"),
        ("{}", "the spec needs 'module' to be a JSON object"),
        ("[1]", "the spec needs 'module' to be a JSON object")])
    def test_bad_module_spec_is_usage_error(self, capsys, spec, message):
        code, _, err = run(capsys, "modules", "--spec", spec)
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]

    def test_malformed_module_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "mod.json"
        path.write_text('{"module": {"scalars": "Z", "orders": [4]},\n')
        code, _, err = run(capsys, "modules", "--file", str(path))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and "malformed JSON" in lines[0]
        assert "at position 44" in lines[0] and "Traceback" not in err

    def test_truncated_scenario_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text('[{"name": "x", "ring": "Z"')
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed JSON")
        assert "at position 26" in lines[0] and "Traceback" not in err

    def test_scenario_suite_must_be_a_list(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"name": "x", "ring": "Z"}))
        code, _, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert err.splitlines() == ["error: a scenario suite must be a JSON list"]

    @pytest.mark.parametrize("entry, message", [
        ({"name": "x", "operation": "spec", "closure": "gen"},
         "the spec needs 'ring' to be a JSON string"),
        ({"name": "x", "ring": "Zn:6", "closure": "gen"},
         "the spec needs 'operation' to be a JSON string"),
        ({"name": "x", "ring": "Zn:6", "closure": "gen",
          "operation": "member"},
         "the spec needs 'element' to be a JSON string"),
        ({"name": "x", "ring": "Zn:6", "operation": "member",
          "params": {"element": "1", "generators": "2"}},
         "the spec needs 'closure' to be a JSON string"),
        ({"name": "x", "ring": "Zn:6", "closure": "gen",
          "operation": "member", "params": ["1"]},
         "the spec needs 'params' to be a JSON object"),
        (1, "a scenario must be a JSON object")])
    def test_malformed_scenario_entry_is_usage_error(self, capsys, tmp_path,
                                                     entry, message):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([entry]))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert err.splitlines() == ["error: 1 scenario(s) failed to run"]
        assert message in out

    def test_internal_invariant_is_exit_4(self, capsys, monkeypatch):
        def wrong(m, d_max, bound=None):
            swept = np.zeros(d_max + 1, dtype=bool)
            swept[2] = True
            return swept

        monkeypatch.setattr(spectrum_module, "z_prime_bruteforce_grid", wrong)
        code, out, err = run(capsys, "spec", "--ring", "Z",
                             "--closure", "shift:J=30")
        assert code == 4
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error:")
        assert "disagree for m=30" in lines[0]

    @pytest.mark.parametrize("argv, bound, prime, m", [
        (["spec", "--closure", "shift:J=12", "--bound", "2"], 2, 3, 12),
        (["topology", "--closure", "setshift:J=12", "--bound", "0"],
         0, 3, 12),
        (["vset", "--closure", "shift:J=30", "--ideal", "2", "--bound", "3"],
         3, 5, 30),
        (["radical", "--closure", "shift:J=12", "--ideal", "0",
          "--bound", "2"], 2, 3, 12),
        (["localize", "--closure", "shift:J=12", "--mult-set", "2",
          "--bound", "2"], 2, 3, 12)])
    def test_bound_below_a_prime_of_m_is_usage_error(self, capsys, argv,
                                                     bound, prime, m):
        """A --bound below m's largest prime leaves that prime outside the
        sweep's window: the caller's choice, not a disagreement."""
        code, _, err = run(capsys, *argv, "--ring", "Z")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"error: the bound {bound} is below the prime {prime} of m={m}")

    def test_failed_verdict_is_exit_1(self, capsys, tmp_path):
        suite = [{"name": "wrong", "ring": "Z", "closure": "shift:J=12",
                  "operation": "is-prime", "params": {"generators": "3"},
                  "expected": False}]
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        code, out, _ = run(capsys, "scenario", str(path))
        assert code == 1
        assert "expected" in out and "got" in out


class TestScenarios:
    def test_scenarios_round_trip_through_json(self):
        from importlib import resources
        text = resources.files("approxalg.data").joinpath(
            "paper_examples.json").read_text(encoding="utf-8")
        suite = json.loads(text)
        assert json.loads(json.dumps(suite)) == suite

    def test_bundled_suite_passes(self, capsys):
        code, out, _ = run(capsys, "scenario", "paper-examples")
        assert code == 0
        assert out.count("[pass]") == 10

    def test_empty_suite_trivially_passes(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, out, _ = run(capsys, "scenario", str(path))
        assert code == 0
        assert "scenario-count: 0" in out

    def test_closure_eval_that_is_a_plain_set(self, capsys, tmp_path):
        suite = [{"name": "setshift-of-one", "ring": "Zn:12",
                  "closure": "setshift:J=6", "operation": "closure-eval",
                  "params": {"generators": "1"}, "expected": "{1,7}"}]
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 0
        assert "[pass] setshift-of-one" in out
        assert "Traceback" not in err

    def test_broken_scenario_is_isolated(self, capsys, tmp_path):
        suite = [
            {"name": "bad", "ring": "Nope", "operation": "spec",
             "closure": "gen"},
            {"name": "good", "ring": "Z", "closure": "shift:J=12",
             "operation": "is-prime", "params": {"generators": "3"},
             "expected": True},
        ]
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        code, out, err = run(capsys, "scenario", str(path))
        assert code == 2
        assert "[pass] good" in out  # the other scenario still ran


class TestJsonOutput:
    def test_byte_stable_reports(self, capsys):
        _, out1, _ = run(capsys, "spec", "--ring", "Z",
                         "--closure", "shift:J=30", "--format", "json")
        _, out2, _ = run(capsys, "spec", "--ring", "Z",
                         "--closure", "shift:J=30", "--format", "json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["tool-version"]
        assert doc["command"] == "spec"
        assert doc["timing"] is None
        assert doc["primes"] == ["(2)", "(3)", "(5)"]

    def test_axiom_report_fields(self, capsys):
        _, out, _ = run(capsys, "axioms", "--ring", "Zn:12",
                        "--closure", "shift:J=4", "--mode", "exhaustive",
                        "--format", "json")
        doc = json.loads(out)
        first = doc["verdicts"][0]
        assert set(first) == {"axiom", "verdict", "counterexample", "mode",
                              "seed", "details"}
