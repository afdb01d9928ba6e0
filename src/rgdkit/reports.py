"""Structured verification reports with deterministic rendering."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    axiom: str
    w: str = ""
    s: str = ""
    gallery: str = ""
    i: int = 0
    j: int = 0
    expected: str = ""
    found: str = ""

    def render(self) -> str:
        return (
            f"VIOLATION axiom={self.axiom} w={self.w or '-'} s={self.s or '-'} "
            f"gallery={self.gallery or '-'} i={self.i} j={self.j} "
            f"expected={self.expected or '-'} found={self.found or '-'}"
        )

    def sort_key(self):
        return (self.axiom, self.w, self.s, self.gallery, self.i, self.j)


@dataclass
class Report:
    name: str
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checks: int = 0
    skipped: int = 0  # pieces of work left undone at a cap; see `skip`

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def skip(self, text: str) -> None:
        """Note work left undone at a cap; a run with a skip is incomplete."""
        self.notes.append(text)
        self.skipped += 1

    def merge(self, other: "Report") -> None:
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)
        self.checks += other.checks
        self.skipped += other.skipped

    def machine_lines(self) -> list[str]:
        lines = [v.render() for v in sorted(self.violations, key=Violation.sort_key)]
        lines.append(f"SUMMARY name={self.name} checks={self.checks} violations={len(self.violations)}")
        return lines

    def to_text(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = [f"[{status}] {self.name}: {self.checks} checks, {len(self.violations)} violations"]
        for v in sorted(self.violations, key=Violation.sort_key):
            out.append("  " + v.render())
        for n in self.notes:
            out.append(f"  note: {n}")
        return "\n".join(out)
