"""Experiment registry: every table/figure the harness can regenerate.

Each entry maps an experiment id (``fig3a`` .. ``fig5b``, plus extension
studies) to a callable that takes an optional runner and returns a
rendered :class:`~repro.common.tables.Table`.  The CLI and EXPERIMENTS.md
both draw from this registry, so the documented inventory can never
drift from the code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.bandwidth import panel_table
from repro.evaluation.latency import fig5_table
from repro.evaluation.panels import FIG3_PANELS, FIG4_PANELS
from repro.evaluation.runner import SweepRunner

#: Every factory takes an optional :class:`SweepRunner` and hands it
#: every point of its table.
TableFactory = Callable[[Optional[SweepRunner]], Table]


def _bandwidth_factory(figure: int, panel: str) -> TableFactory:
    panels = FIG3_PANELS if figure == 3 else FIG4_PANELS
    spec = panels[panel]

    def build(runner: Optional[SweepRunner] = None) -> Table:
        return panel_table(spec, runner=runner)

    build.__name__ = f"fig{figure}{panel}"
    return build


def _registry() -> Dict[str, TableFactory]:
    registry: Dict[str, TableFactory] = {}
    for panel in FIG3_PANELS:
        registry[f"fig3{panel}"] = _bandwidth_factory(3, panel)
    for panel in FIG4_PANELS:
        registry[f"fig4{panel}"] = _bandwidth_factory(4, panel)
    registry["fig5a"] = lambda runner=None: fig5_table(
        lock_hits_l1=True, runner=runner
    )
    registry["fig5b"] = lambda runner=None: fig5_table(
        lock_hits_l1=False, runner=runner
    )
    registry.update(_extension_registry())
    return registry


def _extension_registry() -> Dict[str, TableFactory]:
    """Studies beyond the paper's figures (§5/§6 claims, ablations)."""
    from repro.evaluation.ablations import (
        address_check_table,
        buffer_depth_table,
        burst_padding_table,
        flush_latency_table,
        line_buffer_table,
    )
    from repro.evaluation.blockstore import blockstore_table
    from repro.evaluation.cached_crossover import cached_crossover_table
    from repro.evaluation.crossover import crossover_table
    from repro.evaluation.fault_sweep import fault_sweep_table
    from repro.evaluation.policy_comparison import policy_table
    from repro.evaluation.loaded_bus import loaded_bus_table, miss_interleaved_table
    from repro.evaluation.rtt import rtt_table
    from repro.evaluation.smp_contention import smp_contention_table
    from repro.evaluation.sync_mechanisms import sync_mechanism_table
    from repro.evaluation.sensitivity import (
        ratio_sensitivity_table,
        width_sensitivity_table,
    )
    from repro.evaluation.trace_experiments import (
        trace_imbalance_table,
        trace_saturation_table,
    )

    return {
        "pingpong": lambda runner=None: rtt_table(runner=runner),
        "loaded-bus": lambda runner=None: loaded_bus_table(runner=runner),
        "loaded-bus-misses": lambda runner=None: miss_interleaved_table(runner=runner),
        "crossover": lambda runner=None: crossover_table(runner=runner),
        "cached-crossover": lambda runner=None: cached_crossover_table(
            runner=runner
        ),
        "policies-sequential": lambda runner=None: policy_table(
            interleaved=False, runner=runner
        ),
        "policies-shuffled": lambda runner=None: policy_table(
            interleaved=True, runner=runner
        ),
        "blockstore": lambda runner=None: blockstore_table(runner=runner),
        "ablation-linebuffers": lambda runner=None: line_buffer_table(
            runner=runner
        ),
        "ablation-padding": lambda runner=None: burst_padding_table(
            runner=runner
        ),
        "ablation-addrcheck": address_check_table,
        "ablation-depth": lambda runner=None: buffer_depth_table(
            runner=runner
        ),
        "ablation-flushlatency": lambda runner=None: flush_latency_table(
            runner=runner
        ),
        "sensitivity-width": lambda runner=None: width_sensitivity_table(
            runner=runner
        ),
        "fault-sweep": lambda runner=None: fault_sweep_table(runner=runner),
        "smp-contention": lambda runner=None: smp_contention_table(runner=runner),
        "sync-mechanisms": lambda runner=None: sync_mechanism_table(runner=runner),
        "sensitivity-ratio": lambda runner=None: ratio_sensitivity_table(
            runner=runner
        ),
        "trace-saturation": lambda runner=None: trace_saturation_table(
            runner=runner
        ),
        "trace-imbalance": lambda runner=None: trace_imbalance_table(
            runner=runner
        ),
    }


EXPERIMENTS: Dict[str, TableFactory] = _registry()


def experiment_ids() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(
    experiment_id: str, runner: Optional[SweepRunner] = None
) -> Table:
    try:
        factory = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; have {experiment_ids()}"
        ) from None
    return factory(runner)
