"""Check entries, the rules that decide their status, and report
containers with deterministic JSON emission.

Every verifier builds its entries here: ``check`` for a pass/fail
verdict, ``check_zero`` for a residual that must vanish, ``known`` for a
printed-formula cross-check whose discrepancy is on record, ``FirstFailures``
for a check run over a window or a sample, and ``computed`` for a value
a command reports.

The JSON payload is a pure function of the command, seed and check
results (entries sorted by id, keys sorted, fixed separators), so two
runs with the same inputs produce byte-identical files.  Wall-clock
timing is kept out of the payload for that reason and only shown in the
human-readable rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

PASS = "pass"
FAIL = "fail"
KNOWN = "known-discrepancy"


@dataclass(frozen=True)
class CheckEntry:
    id: str
    status: str
    residual: str
    paper_tag: str

    @property
    def ok(self) -> bool:
        return self.status == PASS


def check(cid: str, tag: str, ok: bool, residual: str = "") -> CheckEntry:
    """A pass/fail verdict; a pass carries residual ``0``."""
    return CheckEntry(cid, PASS if ok else FAIL, "0" if ok else residual, tag)


def check_zero(cid: str, tag: str, elem) -> CheckEntry:
    """Pass exactly when ``elem`` vanishes; a failure carries it printed."""
    ok = elem.is_zero()
    return check(cid, tag, ok, "" if ok else str(elem))


def known(cid: str, tag: str, residual, recorded) -> CheckEntry:
    """A printed formula against the engine: KNOWN when the residual is
    exactly the recorded discrepancy, FAIL otherwise.  A recorded
    discrepancy that vanishes (the formula holds there) is a pass."""
    status = FAIL if residual != recorded else KNOWN if recorded else PASS
    return CheckEntry(cid, status, str(residual), tag)


def computed(cid: str, value) -> CheckEntry:
    """A value a command computed, on record as a pass that carries it printed."""
    return CheckEntry(cid, PASS, str(value), "")


class FirstFailures(Dict[str, str]):
    """The verdicts of checks run over windows and samples, by check id: an
    id keeps the first failure noted for it, and an id with none passes."""

    def fail(self, cid: str, message: str) -> None:
        self.setdefault(cid, message)

    def entry(self, cid: str, tag: str, count: int | None = None, unit: str = "") -> CheckEntry:
        """The check's entry.  With a ``count`` of inspected cases, a check
        that inspected none fails, and a pass carries ``"<count> <unit>"``."""
        first = self.get(cid)
        if count is None:
            return check(cid, tag, first is None, first or "")
        ok = first is None and count > 0
        return CheckEntry(cid, PASS if ok else FAIL, first or f"{count} {unit}", tag)


@dataclass
class Report:
    command: str
    seed: int
    entries: List[CheckEntry] = field(default_factory=list)
    elapsed: float = 0.0
    # further top-level payload keys (deterministic data only)
    extra: Dict[str, object] = field(default_factory=dict)

    def counts(self):
        c = {PASS: 0, FAIL: 0, KNOWN: 0}
        for e in self.entries:
            c[e.status] = c.get(e.status, 0) + 1
        return c

    def exit_code(self, strict: bool = False) -> int:
        bad = any(e.status == FAIL for e in self.entries)
        if strict:
            bad = bad or any(e.status == KNOWN for e in self.entries)
        return 1 if bad else 0

    def to_json_bytes(self) -> bytes:
        payload = {
            "command": self.command,
            "seed": self.seed,
            "entries": [
                {
                    "id": e.id,
                    "status": e.status,
                    "residual": e.residual,
                    "paper_tag": e.paper_tag,
                }
                for e in sorted(self.entries, key=lambda e: e.id)
            ],
            **self.extra,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"

    def render_text(self) -> str:
        lines = [f"== {self.command} (seed {self.seed})"]
        for e in self.entries:
            mark = {PASS: "ok", FAIL: "FAIL", KNOWN: "known-discrepancy"}[e.status]
            line = f"  [{mark}] {e.id}"
            if e.status != PASS and e.residual:
                line += f"  residual: {e.residual}"
            lines.append(line)
        c = self.counts()
        lines.append(
            f"  -- {c[PASS]} passed, {c[FAIL]} failed, {c[KNOWN]} known discrepancies"
            f" ({self.elapsed:.2f}s)"
        )
        return "\n".join(lines)
