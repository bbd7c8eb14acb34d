"""Pass/fail reports shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReportEntry:
    name: str
    ok: bool
    detail: str = ""
    residual: object = None

    def line(self) -> str:
        msg = f"{'PASS' if self.ok else 'FAIL'}  {self.name}"
        if self.detail:
            msg += f"  {self.detail}"
        return msg


@dataclass
class Report:
    title: str
    entries: list = field(default_factory=list)
    first_failure: object = None  # set by checks that rank their failing entries

    def add(self, name, ok, detail="", residual=None):
        self.entries.append(ReportEntry(name, ok, detail, residual))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self):
        out = [self.title]
        out.extend("  " + e.line() for e in self.entries)
        out.append(f"  => {'PASS' if self.ok else 'FAIL'}")
        return out

    def __str__(self):
        return "\n".join(self.lines())
