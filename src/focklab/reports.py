"""Deterministic suite reports: JSON for tooling, text for humans.

A check record carries an id, the verified mathematical statement, a
pass/fail/skipped status and, unless it passes, a minimal exact witness
(never a float).  A record starts as `pass`; `fail(witness)` and
`skip(witness)` give its verdict by one rule: a failure outranks a skip,
the record keeps the first witness of its final status, and a passing
record carries none.  The JSON serialization is byte-stable across runs
with the same parameters and seed: records are sorted by id, keys are
sorted, and timing lives only in the text rendering.
"""

from __future__ import annotations

import json


SCHEMA = "fock-lab/1"


class CheckRecord:
    __slots__ = ("id", "statement", "status", "witness", "detail")

    def __init__(self, id: str, statement: str, detail: dict | None = None):
        self.id = id
        self.statement = statement
        self.status = "pass"  # pass | fail | skipped
        self.witness = None
        self.detail = detail  # always serialized, e.g. certification records

    def fail(self, witness: str) -> CheckRecord:
        if self.status != "fail":
            self.status, self.witness = "fail", witness
        return self

    def skip(self, witness: str) -> CheckRecord:
        if self.status == "pass":
            self.status, self.witness = "skipped", witness
        return self

    def to_json(self) -> dict:
        out = {"id": self.id, "statement": self.statement, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class SuiteReport:
    def __init__(self, suite: str, params: dict):
        self.suite = suite
        self.params = params
        self.checks = []
        self.wall_time = 0.0  # text rendering only; excluded from JSON

    @property
    def failed(self):
        return [c for c in self.checks if c.status == "fail"]

    @property
    def skipped(self):
        return [c for c in self.checks if c.status == "skipped"]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "params": {k: _param_text(v) for k, v in sorted(self.params.items())},
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.id)],
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, indent=2).encode() + b"\n"

    def render_text(self) -> str:
        lines = [f"suite {self.suite}  ({_fmt_params(self.params)})"]
        for c in sorted(self.checks, key=lambda c: c.id):
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            lines.append(f"  [{mark}] {c.id}: {c.statement}")
            if c.witness:
                lines.append(f"         witness: {c.witness}")
        npass = sum(1 for c in self.checks if c.status == "pass")
        lines.append(
            f"  {npass} passed, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped in {self.wall_time:.2f}s"
        )
        return "\n".join(lines)


def _param_text(v) -> str:
    """A parameter value as ``--param`` reads it back: a list (the curve f)
    as compact JSON, a coefficient that is not an integer as a string
    ("1/2"); any other value as str gives it."""
    if isinstance(v, list):
        return json.dumps([int(c) if c.denominator == 1 else str(c) for c in v], separators=(",", ":"))
    return str(v)


def _fmt_params(params: dict) -> str:
    return ", ".join(f"{k}={_param_text(v)}" for k, v in sorted(params.items()))
