"""Verdicts, counterexamples, and the structured report schema.

Field names are frozen for regression diffing: a report carries
``tool-version``, ``command``, ``verdicts``, ``counterexamples``, ``timing``;
each verdict carries ``axiom`` (or check name), ``verdict``, ``counterexample``,
``mode``, ``seed``.  The ``timing`` field stays null so that report output is
byte-stable across runs.
"""

from __future__ import annotations

import json

TOOL_VERSION = "0.1.0"


class Verdict:
    """Outcome of one named check: pass/fail plus an optional counterexample."""

    __slots__ = ("name", "passed", "counterexample", "mode", "seed", "details")

    def __init__(self, name, passed, counterexample=None, mode=None, seed=None,
                 details=None):
        self.name = name
        self.passed = bool(passed)
        self.counterexample = counterexample
        self.mode = mode
        self.seed = seed
        self.details = details

    def to_dict(self):
        return {
            "axiom": self.name,
            "verdict": "pass" if self.passed else "fail",
            "counterexample": self.counterexample,
            "mode": self.mode,
            "seed": self.seed,
            "details": self.details,
        }

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL {self.counterexample!r}"
        return f"<{self.name}: {state}>"


class AxiomReport:
    """Per-axiom verdicts for a closure operator.

    ``mode`` is ``exhaustive``, ``subgroups``, ``ideals``, ``bounded`` (for the
    integers) or ``sampled``; sampled reports carry their seed and count so a
    failure replays.
    """

    AXIOMS = ("C1", "C2", "C3", "C4a", "C4b", "absorption")
    __slots__ = ("mode", "seed", "count", "domain", "verdicts")

    def __init__(self, mode, seed=None, count=None, domain=None):
        self.mode = mode
        self.seed = seed
        self.count = count
        self.domain = domain
        self.verdicts = {}

    def record(self, axiom, passed, counterexample=None):
        self.verdicts[axiom] = Verdict(axiom, passed, counterexample,
                                       mode=self.mode, seed=self.seed)

    def all_pass(self):
        return all(v.passed for v in self.verdicts.values())

    def failed(self):
        return [v for v in self.verdicts.values() if not v.passed]

    def to_dict(self):
        return {
            "mode": self.mode,
            "seed": self.seed,
            "count": self.count,
            "domain": self.domain,
            "verdicts": [self.verdicts[a].to_dict()
                         for a in self.AXIOMS if a in self.verdicts],
        }

    def to_text(self):
        lines = [f"mode: {self.mode}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.count is not None:
            lines.append(f"count: {self.count}")
        if self.domain:
            lines.append(f"domain: {self.domain}")
        for a in self.AXIOMS:
            if a not in self.verdicts:
                continue
            v = self.verdicts[a]
            if v.passed:
                lines.append(f"axiom {a}: pass")
            else:
                lines.append(f"axiom {a}: fail  counterexample: {v.counterexample}")
        return "\n".join(lines)

    def __repr__(self):
        bad = self.failed()
        if not bad:
            return f"<AxiomReport {self.mode}: all pass>"
        return f"<AxiomReport {self.mode}: FAIL {[v.name for v in bad]}>"


class Report:
    """Top-level CLI/report document with frozen field names."""

    def __init__(self, command):
        self.command = command
        self.verdicts = []
        self.counterexamples = []
        self.extras = {}

    def add_verdict(self, verdict):
        self.verdicts.append(verdict)
        if verdict.counterexample is not None and not verdict.passed:
            self.counterexamples.append(
                {"axiom": verdict.name, "counterexample": verdict.counterexample})

    def add_extra(self, key, value):
        self.extras[key] = value

    def ok(self):
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        doc = {
            "tool-version": TOOL_VERSION,
            "command": self.command,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "counterexamples": self.counterexamples,
            "timing": None,
        }
        doc.update(self.extras)
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          default=str) + "\n"

    def to_table(self):
        lines = [f"command: {self.command}"]
        for key in sorted(self.extras):
            lines.append(f"{key}: {_fmt(self.extras[key])}")
        for v in self.verdicts:
            mark = "pass" if v.passed else "FAIL"
            extra = ""
            if not v.passed and v.counterexample is not None:
                extra = f"  counterexample: {v.counterexample}"
            lines.append(f"  [{mark}] {v.name}{extra}")
        return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)
