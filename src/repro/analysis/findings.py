"""Lint findings: the machine-readable diagnostic record.

Every protocol check reports violations as :class:`Finding` objects carrying
a stable rule id, a severity, the instruction index the finding anchors to,
the disassembled instruction text, a human message, and a fix hint.  The
JSON shape produced by :meth:`Finding.to_dict` is part of the tool's public
contract (CI consumes it via ``csb-figures lint --format json``); fields
may be added but never renamed or removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import ConfigError
from repro.common.serialize import Codec

#: Severity levels, ordered from most to least severe.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding(Codec):
    """One diagnostic emitted by the static checker.

    ``rule`` is a stable dotted identifier (``lock.double-acquire``,
    ``csb.flush-empty``, ...); ``index`` is the instruction index inside the
    finalized program the finding anchors to; ``instruction`` is that
    instruction's disassembly, so diagnostics are readable without the
    source at hand.
    """

    rule: str
    severity: str
    index: int
    instruction: str
    message: str
    hint: str = ""
    program: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Finding":
        """Inverse of ``to_dict`` (the stable shape of
        docs/static_analysis.md); unknown keys and mistyped values raise
        ``ValueError``, the error every bad finding raises."""
        try:
            return super().from_dict(document)
        except ConfigError as exc:
            raise ValueError(str(exc)) from exc

    def render(self) -> str:
        """One-line human-readable form."""
        where = f"{self.program}:{self.index}" if self.program else str(self.index)
        line = (
            f"{where}: {self.severity}: [{self.rule}] {self.message} "
            f"`{self.instruction}`"
        )
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: by instruction index, then rule id."""
    return sorted(findings, key=lambda f: (f.program, f.index, f.rule))


def findings_to_json(findings: List[Finding]) -> str:
    """Render findings as a JSON array (sorted findings, sorted keys,
    two-space indent) — byte-stable for identical finding sets."""
    return json.dumps(
        [finding.to_dict() for finding in sort_findings(findings)],
        indent=2,
        sort_keys=True,
    )
