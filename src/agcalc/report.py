"""Deterministic check/report containers shared by the library and the CLI.

Reports never carry timestamps or timings; the CLI keeps timing on a side
channel so that report bytes are identical across runs for fixed inputs.
Every identity the library checks comes back as an IdentityReport, whose
check property is the Check the CLI puts into its report.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import ContractViolation
from .poly import SparsePoly, diff_witness
from .record import Record, set_field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Check(Record):
    __slots__ = ("name", "status", "witness", "detail")

    def __init__(self, name: str, status: str, witness: str | None = None,
                 detail: str | None = None) -> None:
        if status not in (PASS, FAIL, SKIP):
            raise ContractViolation(f"unknown check status {status!r}")
        set_field(self, "name", name)
        set_field(self, "status", status)
        set_field(self, "witness", witness)
        set_field(self, "detail", detail)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "witness": self.witness, "detail": self.detail}


def passed_check(name: str, detail: str | None = None) -> Check:
    return Check(name, PASS, None, detail)


def failed_check(name: str, witness: str | None, detail: str | None = None) -> Check:
    return Check(name, FAIL, witness, detail)


def skipped_check(name: str, detail: str | None = None) -> Check:
    return Check(name, SKIP, None, detail)


class IdentityReport(Record):
    """Two independently computed sides of one identity, compared exactly.

    The witness names the first differing monomial as
    "<monomial>: <lhs coefficient> vs <rhs coefficient>", prefixed by
    "<where>: " when the identity is one of several compared in turn.
    detail describes what a passing comparison covered.
    """

    __slots__ = ("name", "lhs", "rhs", "where", "detail", "witness")

    def __init__(self, name: str, lhs: SparsePoly, rhs: SparsePoly,
                 where: str | None = None, detail: str | None = None) -> None:
        wit = None if lhs == rhs else diff_witness(lhs, rhs)
        if wit is not None and where:
            wit = f"{where}: {wit}"
        set_field(self, "name", name)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "where", where)
        set_field(self, "detail", detail)
        set_field(self, "witness", wit)

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def check(self) -> Check:
        if self.passed:
            return passed_check(self.name, self.detail)
        return failed_check(self.name, self.witness)


def first_failure(reports: Iterable[IdentityReport]) -> IdentityReport:
    """The first failing report, else the last one; later reports are not built."""
    for rep in reports:
        if not rep.passed:
            break
    return rep


class Report(Record):
    """One command's report; flags defaults to a fresh empty dict."""

    __slots__ = ("command", "args", "input_digest", "checks", "result", "flags")

    def __init__(self, command: str, args: dict, input_digest: str,
                 checks: tuple[Check, ...], result: dict | None = None,
                 flags: dict | None = None) -> None:
        set_field(self, "command", command)
        set_field(self, "args", args)
        set_field(self, "input_digest", input_digest)
        set_field(self, "checks", checks)
        set_field(self, "result", result)
        set_field(self, "flags", {} if flags is None else flags)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "args": self.args,
            "input_digest": self.input_digest,
            "checks": [c.to_dict() for c in self.checks],
            "result": self.result,
            "flags": self.flags,
            "status": PASS if self.passed else FAIL,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.command} ({self.input_digest})"]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[c.status]
            line = f"{mark:4s}  {c.name}"
            if c.detail:
                line += f"  [{c.detail}]"
            if c.witness:
                line += f"  witness: {c.witness}"
            lines.append(line)
        # flat result fields render; nested payloads are JSON-only
        for key in sorted(self.result or {}):
            value = self.result[key]
            if isinstance(value, (str, int, bool)) or value is None:
                lines.append(f"{key} = {value}")
            elif isinstance(value, list) and all(isinstance(v, str) for v in value):
                lines.extend(f"{key}[{i + 1}] = {v}" for i, v in enumerate(value))
        if self.flags:
            for k, v in sorted(self.flags.items()):
                lines.append(f"flag  {k} = {v}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
