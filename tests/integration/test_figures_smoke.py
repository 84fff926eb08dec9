"""Figure harness: every panel produces a complete, well-formed table.

Full sweeps run in CI's ``csb-figures --all --check expected_results``
gate; here each panel is exercised at a reduced size grid so the whole
registry stays test-fast.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.tables import Table
from repro.evaluation.bandwidth import panel_table
from repro.evaluation.latency import fig5_table
from repro.evaluation.panels import (
    FIG3_PANELS,
    FIG4_PANELS,
    panel_by_id,
)
from repro.evaluation.schemes import all_schemes, hw_schemes, scheme_block
from repro.evaluation.experiments import experiment_ids, run_experiment

SMOKE_SIZES = (16, 64, 256)


class TestSchemes:
    def test_hw_schemes_follow_line_size(self):
        assert hw_schemes(32) == ["none", "combine16", "combine32"]
        assert all_schemes(64)[-1] == "csb"
        assert all_schemes(128) == [
            "none", "combine16", "combine32", "combine64", "combine128", "csb",
        ]

    def test_scheme_block(self):
        assert scheme_block("none") == 8
        assert scheme_block("combine32") == 32
        with pytest.raises(ConfigError):
            scheme_block("csb")
        with pytest.raises(ConfigError):
            scheme_block("combineXL")


class TestPanelRegistry:
    def test_all_panels_present(self):
        assert sorted(FIG3_PANELS) == list("abcdefghi")
        assert sorted(FIG4_PANELS) == list("abcde")

    def test_panel_by_id(self):
        assert panel_by_id("fig3g").turnaround == 1
        assert panel_by_id("FIG4B").bus_width == 32
        with pytest.raises(ConfigError):
            panel_by_id("fig9z")


@pytest.mark.parametrize("panel_key", sorted(FIG3_PANELS))
def test_fig3_panel_produces_full_table(panel_key):
    spec = FIG3_PANELS[panel_key]
    table = panel_table(spec, sizes=SMOKE_SIZES)
    assert isinstance(table, Table)
    assert len(table.rows) == len(all_schemes(spec.line_size))
    for row in table.rows:
        assert all(isinstance(v, float) and v > 0 for v in row[1:])


@pytest.mark.parametrize("panel_key", sorted(FIG4_PANELS))
def test_fig4_panel_produces_full_table(panel_key):
    spec = FIG4_PANELS[panel_key]
    table = panel_table(spec, sizes=SMOKE_SIZES)
    assert len(table.rows) == len(all_schemes(spec.line_size))


class TestFig5Tables:
    def test_hit_panel(self):
        table = fig5_table(lock_hits_l1=True, counts=(2, 8))
        csb_row = [r for r in table.rows if r[0] == "csb"][0]
        none_row = [r for r in table.rows if r[0] == "none"][0]
        assert all(c < n for c, n in zip(csb_row[1:], none_row[1:]))

    def test_miss_panel_larger_than_hit(self):
        hit = fig5_table(True, counts=(4,))
        miss = fig5_table(False, counts=(4,))
        assert miss.lookup("scheme", "none", "32B") > hit.lookup(
            "scheme", "none", "32B"
        )


class TestExperimentRegistry:
    def test_ids_cover_all_figures(self):
        ids = experiment_ids()
        figure_ids = [i for i in ids if i.startswith("fig")]
        assert len(figure_ids) == 16  # 9 + 5 + 2 panels
        assert "fig3a" in ids and "fig4e" in ids and "fig5b" in ids

    def test_extension_studies_registered(self):
        ids = experiment_ids()
        for extension in ("crossover", "blockstore", "sensitivity-width"):
            assert extension in ids

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment("fig7x")

    @pytest.mark.slow
    def test_run_experiment_roundtrip(self):
        table = run_experiment("fig5a")
        assert table.rows
