"""Pass/fail reports shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


def index_key(name: str):
    """Sort key of a name by its trailing index: (0, k) for a name
    `family_k`, and (1, 0), after every index, for a name without one."""
    family, _, k = name.rpartition("_")
    if family and k.isdecimal():
        return 0, int(k)
    return 1, 0


@dataclass
class ReportEntry:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        msg = f"{'PASS' if self.ok else 'FAIL'}  {self.name}"
        if self.detail:
            msg += f"  {self.detail}"
        return msg


@dataclass
class Report:
    title: str
    entries: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.entries.append(ReportEntry(name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def first_failure(self):
        """The name of the failing entry with the least index (`index_key`),
        ties in entry order; None when the report passes."""
        failing = [e.name for e in self.entries if not e.ok]
        return min(failing, key=index_key) if failing else None

    def lines(self):
        out = [self.title]
        out.extend("  " + e.line() for e in self.entries)
        out.append(f"  => {'PASS' if self.ok else 'FAIL'}")
        return out

    def __str__(self):
        return "\n".join(self.lines())
