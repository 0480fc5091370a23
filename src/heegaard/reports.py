"""Check-entry and report containers with deterministic JSON emission.

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
