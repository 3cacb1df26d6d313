"""The verification report: one {anchor, ok, detail} line per checked item.

Every check in the package (bundled cases, the table, the seeded suites of
`verify-all`) records its verdicts in a Report; the command line prints it
as text or as the JSON envelope {"passed": ..., "lines": [...]}.
"""

from __future__ import annotations

import json


class Report:
    def __init__(self):
        self.lines: list[dict] = []

    def add(self, anchor: str, ok: bool, detail: str = "") -> None:
        self.lines.append({"anchor": anchor, "ok": bool(ok), "detail": detail})

    @property
    def passed(self) -> bool:
        return all(l["ok"] for l in self.lines)

    def failures(self) -> list[str]:
        """Anchors of the failed lines, in order."""
        return [l["anchor"] for l in self.lines if not l["ok"]]

    def emit(self, as_json: bool) -> int:
        if as_json:
            print(json.dumps({"passed": self.passed, "lines": self.lines}, indent=2))
        else:
            for l in self.lines:
                status = "PASS" if l["ok"] else "FAIL"
                detail = f"  {l['detail']}" if l["detail"] else ""
                print(f"[{status}] {l['anchor']}{detail}")
            print(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return 0 if self.passed else 1
