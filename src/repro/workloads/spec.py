"""Unified workload specifications: what the machine runs, as data.

Historically "a workload" meant a finalized assembly program; trace-driven
replay adds a second backend where the workload is an I/O stream that a
compiler lowers into store/lock/CSB idioms window by window.  Both are
described by a frozen, serializable *spec*:

* :class:`ProgramWorkload` — one or more assembly programs (one per
  process), exactly the kernels the paper's experiments run today.
* :class:`TraceWorkload` — an I/O trace (a ``#csb-trace v1`` file or a
  ``synth:`` generator spec) plus the store discipline to replay it under.

Every spec round-trips through ``to_dict``/``workload_from_dict`` and
yields a stable content-addressed :meth:`cache_key`, which is how trace
jobs enter the :class:`~repro.evaluation.runner.ResultCache` alongside
program jobs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.serialize import Codec, digest, from_document

#: Store disciplines a trace can be replayed under.
DISCIPLINES = ("csb", "lock", "uncached")

#: Spec-format version baked into every cache key.
SPEC_VERSION = "workload-spec-1"


@dataclass(frozen=True)
class ProgramWorkload(Codec):
    """A program-backed workload: named assembly sources, one per process.

    ``sources`` pairs each process's display name with its kernel text;
    multi-element tuples describe SMP workloads (one program per core).
    ``warm`` lists addresses pre-loaded into the caches before the run
    and ``span`` optionally names the (start, end) marks the workload
    measures — the same fields a
    :class:`~repro.evaluation.runner.SimJob` carries, so a job can be
    built from a spec without loss.
    """

    name: str
    sources: Tuple[Tuple[str, str], ...]
    warm: Tuple[int, ...] = ()
    span: Tuple[str, ...] = ()

    kind = "program"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("workload needs a name")
        if not self.sources:
            raise ConfigError(f"workload {self.name!r} has no programs")
        for entry in self.sources:
            if len(entry) != 2 or not all(isinstance(x, str) for x in entry):
                raise ConfigError(
                    f"workload {self.name!r}: sources must be "
                    "(name, assembly text) pairs"
                )
        if self.span and len(self.span) != 2:
            raise ConfigError(
                f"workload {self.name!r}: span needs (start, end) labels"
            )

    @property
    def source(self) -> str:
        """The single program's text (raises for SMP workloads)."""
        if len(self.sources) != 1:
            raise ConfigError(
                f"workload {self.name!r} has {len(self.sources)} programs"
            )
        return self.sources[0][1]

    def cache_key(self) -> str:
        """Content hash of everything that determines what this workload
        executes (the display name is excluded, like SimJob names)."""
        return digest(
            {
                "version": SPEC_VERSION,
                "kind": self.kind,
                "sources": [list(pair) for pair in self.sources],
                "warm": list(self.warm),
                "span": list(self.span),
            }
        )


@dataclass(frozen=True)
class TraceWorkload(Codec):
    """A trace-backed workload: an I/O stream plus its replay discipline.

    ``source`` selects the stream:

    * ``synth:KEY=VALUE,...`` — a seeded synthetic trace (see
      :mod:`repro.workloads.traces.synth` for the grammar);
    * ``bundled:NAME`` — a trace file shipped inside the package
      (``repro/workloads/traces/NAME.trace``);
    * anything else — a path to a ``#csb-trace v1`` file.

    ``discipline`` picks the store idiom the compiler lowers records into
    (``csb``, ``lock``, or ``uncached``), ``window`` bounds how many
    records are materialized as a program at once (the streaming knob),
    and ``devices`` is the number of descriptor rings attached (0 means
    "as declared by the trace/spec").
    """

    name: str
    source: str
    discipline: str = "csb"
    window: int = 256
    devices: int = 0

    kind = "trace"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("workload needs a name")
        if not self.source:
            raise ConfigError(f"workload {self.name!r} has no trace source")
        if self.discipline not in DISCIPLINES:
            raise ConfigError(
                f"unknown discipline {self.discipline!r}; have {DISCIPLINES}"
            )
        if self.window < 1:
            raise ConfigError("trace window must be >= 1 transaction")
        if self.devices < 0:
            raise ConfigError("devices must be >= 0")

    @property
    def is_synthetic(self) -> bool:
        return self.source.startswith("synth:")

    @property
    def is_bundled(self) -> bool:
        return self.source.startswith("bundled:")

    def path(self) -> str:
        """Filesystem path of a file-backed trace (not for synth specs)."""
        if self.is_synthetic:
            raise ConfigError(f"synthetic trace {self.name!r} has no file")
        if self.is_bundled:
            return bundled_trace_path(self.source[len("bundled:"):])
        return self.source

    def content_digest(self) -> str:
        """SHA-256 of the trace *content*: the spec string for synthetic
        traces, the file bytes (streamed) for file-backed ones.  Two
        workloads replaying byte-identical streams share this digest even
        when the file lives at different paths."""
        if self.is_synthetic:
            return hashlib.sha256(self.source.encode("utf-8")).hexdigest()
        hasher = hashlib.sha256()
        with open(self.path(), "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                hasher.update(chunk)
        return hasher.hexdigest()

    def cache_key(self) -> str:
        """Content hash: replaying the same stream under the same
        discipline/window is the same work, wherever the file lives."""
        return digest(
            {
                "version": SPEC_VERSION,
                "kind": self.kind,
                "content": self.content_digest(),
                "discipline": self.discipline,
                "window": self.window,
                "devices": self.devices,
            }
        )


def bundled_trace_path(name: str) -> str:
    """Path of a trace file shipped with the package."""
    if not name or "/" in name or os.sep in name or name.startswith("."):
        raise ConfigError(f"bad bundled trace name {name!r}")
    path = os.path.join(
        os.path.dirname(__file__), "traces", f"{name}.trace"
    )
    if not os.path.exists(path):
        raise ConfigError(f"no bundled trace {name!r} at {path}")
    return path


Workload = Union[ProgramWorkload, TraceWorkload]


def workload_from_dict(document: Dict[str, Any]) -> Workload:
    """Revive any workload spec ``to_dict`` produced (by its ``kind``)."""
    return from_document(Workload, document, "workload")
