"""Registry of every shipped workload, as unified workload specs.

Where :mod:`repro.analysis.registry` enumerates kernel *programs* for the
lint gate, this registry enumerates *workloads* — program-backed and
trace-backed alike — as the serializable specs of
:mod:`repro.workloads.spec`.  Every entry round-trips through
``to_dict``/``workload_from_dict`` and yields a stable cache key; the
registry-wide test in tests/workloads/test_registry.py enforces both for
each entry, so any workload that enters an experiment is guaranteed to be
cacheable and reproducible from its serialized form.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.errors import ConfigError
from repro.workloads.spec import ProgramWorkload, TraceWorkload, Workload

#: Synthetic traces the trace experiments and smoke tests draw from:
#: a saturation point per discipline and one skewed multi-device stream.
SYNTH_SOURCES = (
    ("synth-steady", "synth:n=500,seed=11,gap=120,devices=1"),
    ("synth-saturating", "synth:n=500,seed=11,gap=30,devices=1"),
    (
        "synth-skewed",
        "synth:n=500,seed=13,gap=60,devices=4,skew=1.5,sizes=8:3/64:1",
    ),
    (
        "synth-bursty",
        "synth:n=500,seed=17,gap=200,arrival=bursty,burst=16,devices=2",
    ),
)


def iter_program_workloads() -> Iterator[ProgramWorkload]:
    """Every shipped kernel of the lint registry, as a workload spec."""
    from repro.analysis.registry import iter_lint_targets

    for target in iter_lint_targets():
        yield ProgramWorkload(
            name=target.name, sources=((target.name, target.source),)
        )


def iter_trace_workloads() -> Iterator[TraceWorkload]:
    """The bundled sample trace and the registry's synthetic streams,
    each under every replay discipline."""
    for discipline in ("csb", "lock", "uncached"):
        yield TraceWorkload(
            name=f"bundled-sample-{discipline}",
            source="bundled:sample",
            discipline=discipline,
            devices=2,
        )
    for name, source in SYNTH_SOURCES:
        for discipline in ("csb", "lock", "uncached"):
            yield TraceWorkload(
                name=f"{name}-{discipline}",
                source=source,
                discipline=discipline,
            )


def iter_workloads() -> Iterator[Workload]:
    """Every registered workload, program-backed first, in stable order."""
    yield from iter_program_workloads()
    yield from iter_trace_workloads()


def all_workloads() -> List[Workload]:
    return list(iter_workloads())


def workload_by_name(name: str) -> Workload:
    """Look up one registered workload (exact name match)."""
    for workload in iter_workloads():
        if workload.name == name:
            return workload
    raise ConfigError(f"no registered workload named {name!r}")
