"""Message-send crossover on a machine with the non-blocking D-cache.

The plain crossover study (:mod:`repro.evaluation.crossover`) charges the
PIO path's lock acquire through the blocking hierarchy, so "the lock hits"
is an input to the experiment.  With :class:`~repro.common.config.MemoryConfig`
enabled the lock variable lives in the data cache and the hit/miss split is
*emergent*: the same locked-PIO kernel is run twice, once with the lock line
warmed into the cache (``pio_lock_hit``) and once stone cold
(``pio_lock_miss``), and the latency difference is whatever the MSHR miss
path actually costs — nothing in this module adds cycles by hand.

The CSB and DMA rows run on the identical cached machine (their kernels
touch only uncached space, so the cache is present but silent), which makes
the four rows directly comparable: the CSB's lock-freedom shows up as
immunity to the hit/miss split that moves the PIO rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.common.config import MemoryConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.crossover import MESSAGE_SIZES, send_latency
from repro.evaluation.runner import PointJob, SweepRunner, default_runner

#: Row order of the cached-crossover table.
CACHED_METHODS = ("pio_lock_hit", "pio_lock_miss", "csb", "dma")

#: The study's machine: the default system with the data cache enabled.
CACHED_CONFIG = replace(SystemConfig(), mem=MemoryConfig(enabled=True))


def cached_send_latency(
    method: str,
    payload_bytes: int,
    mem: Optional[MemoryConfig] = None,
    config: SystemConfig = CACHED_CONFIG,
) -> int:
    """CPU cycles to NIC hand-off on the cached machine.

    ``pio_lock_hit`` / ``pio_lock_miss`` are the same locked-PIO kernel;
    only the initial residency of the lock line differs.  A given
    ``mem`` replaces ``config``'s cache; otherwise that cache is enabled
    here, since it is this study's subject (``--mem enabled=false``
    across ``--all`` leaves this table and its golden check untouched).
    """
    if method not in CACHED_METHODS:
        raise ConfigError(
            f"unknown cached send method {method!r}; have {CACHED_METHODS}"
        )
    if mem is None:
        mem = replace(config.mem, enabled=True)
    elif not mem.enabled:
        raise ConfigError("cached-crossover needs mem.enabled=True")
    base = "pio_locked" if method.startswith("pio_lock") else method
    return send_latency(
        base,
        payload_bytes,
        config=replace(config, mem=mem),
        warm_lock=(method == "pio_lock_hit"),
    )


def cached_crossover_table(
    sizes: Iterable[int] = MESSAGE_SIZES, runner: Optional[SweepRunner] = None
) -> Table:
    """Rows = send methods, columns = message sizes, cells = CPU cycles."""
    sizes = list(sizes)
    jobs = [
        PointJob(
            cached_send_latency,
            (method, size),
            CACHED_CONFIG,
            f"cached-crossover-{method}-{size}",
        )
        for method in CACHED_METHODS
        for size in sizes
    ]
    values = iter((runner or default_runner()).run(jobs))
    table = Table(
        ["method"] + [str(s) for s in sizes],
        title=(
            "Cached-I/O message latency [CPU cycles to NIC hand-off, "
            "non-blocking D-cache enabled]"
        ),
    )
    for method in CACHED_METHODS:
        table.add_row(method, *[next(values) for _ in sizes])
    return table


def lock_miss_penalty(
    payload_bytes: int = 64, mem: Optional[MemoryConfig] = None
) -> int:
    """The emergent lock-hit/lock-miss latency split (CPU cycles)."""
    return cached_send_latency(
        "pio_lock_miss", payload_bytes, mem
    ) - cached_send_latency("pio_lock_hit", payload_bytes, mem)
