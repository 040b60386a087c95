"""Machine-readable check certificates returned by the verification ops."""

from __future__ import annotations

from .record import Record


class Certificate(Record):
    """Outcome of a batch of exact identity checks."""

    __slots__ = ("name", "checks")

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks: list[dict] = []

    def record(self, identity: str, ok: bool, **detail) -> None:
        entry = {"identity": identity, "ok": bool(ok)}
        entry.update(detail)
        self.checks.append(entry)

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["ok"]]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
        }
