"""The paper's table claims, checked on the golden CSVs.

CI's figures-full job re-simulates every table and requires it to equal
``expected_results/<id>.csv`` byte for byte, so a claim holds for the
simulator exactly when it holds for the golden file.  These checks read
the goldens and simulate nothing: who wins, by what margin and where the
crossovers fall, for Figures 3-5, the §5 PIO/DMA break-even, the §3.2
design ablations and the extension studies.
"""

import csv
import os

import pytest

from repro.evaluation.panels import FIG3_PANELS, FIG4_PANELS

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "expected_results")


def _cell(text):
    """A CSV cell as the simulator wrote it: int, float or string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def golden(name, key_columns=1):
    """Golden table ``name`` as ``{row key: {column: cell}}``.  The key is
    the row's first cell, or the tuple of its first ``key_columns`` cells;
    each row maps the remaining columns, in file order."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), newline="") as handle:
        columns, *rows = csv.reader(handle)
    table = {}
    for row in rows:
        cells = [_cell(text) for text in row]
        key = cells[0] if key_columns == 1 else tuple(cells[:key_columns])
        table[key] = dict(zip(columns[key_columns:], cells[key_columns:]))
    return table


@pytest.mark.parametrize("panel", sorted(FIG3_PANELS), ids=lambda p: f"fig3{p}")
def test_fig3_panel(panel):
    assert len(golden(f"fig3{panel}")) >= 3


@pytest.mark.parametrize("panel", sorted(FIG4_PANELS), ids=lambda p: f"fig4{p}")
def test_fig4_panel(panel):
    assert len(golden(f"fig4{panel}")) >= 3


@pytest.mark.parametrize("name", ["fig5a", "fig5b"], ids=["hit", "miss"])
def test_fig5_panel(name):
    """Figure 5, lock variable hitting (a) or missing (b) in the L1."""
    table = golden(name)
    assert all(table["csb"][size] < table["none"][size] for size in table["none"])


def test_second_line_buffer_recovers_fast_bus_peak():
    table = golden("ablation-linebuffers")
    assert table[2]["1024"] >= table[1]["1024"]


def test_multi_size_bursts_remove_small_transfer_penalty():
    table = golden("ablation-padding")
    assert table["multi_size"]["16"] > table["full_line"]["16"]
    # Identical at and above one line.
    assert table["multi_size"]["1024"] == table["full_line"]["1024"]


def test_address_check_catches_same_pid_thread_conflicts():
    table = golden("ablation-addrcheck")
    assert table["on"]["thread_A_flush"] == "conflict"
    assert table["off"]["commits_wrong_line"] == "yes"


def test_buffer_depth_decouples_the_core():
    rows = golden("ablation-depth").values()
    spans = [row["cpu_cycles_to_retire_stores"] for row in rows]
    assert spans[-1] < spans[0]


def test_flush_latency_shifts_access_time_linearly():
    two_dw = [row["2dw"] for row in golden("ablation-flushlatency").values()]
    # Raising the flush latency from 1 to 10 raises latency accordingly.
    assert two_dw[-1] - two_dw[0] >= 5


def test_atomic_line_write_mechanisms():
    table = golden("blockstore")
    # The paper's headline result survives the VIS block store as a rival.
    assert table["csb"]["cycles"] < table["lock_stores_unlock"]["cycles"]


def test_injected_refill_traffic():
    table = golden("loaded-bus")
    assert table["csb"]["1/12"] > table["none"]["1/12"]


def test_miss_interleaved_stream():
    table = golden("loaded-bus-misses", key_columns=2)
    # Every scheme has both an idle and a loaded row.
    assert ("csb", "idle") in table and ("csb", "loaded") in table


def test_pingpong_rtt():
    table = golden("pingpong")
    # The always-full-line CSB wins at a full line, loses at tiny payloads
    # (the Figure 3 small-transfer penalty, end to end)...
    assert table["csb"]["64B"] < table["pio"]["64B"]
    assert table["pio"]["8B"] < table["csb"]["8B"]
    # ...while the multi-size relaxation wins everywhere.
    for column in ("8B", "16B", "32B", "64B"):
        best = min(table["pio"][column], table["csb"][column])
        assert table["csb_multisize"][column] <= best


def test_crossover_table():
    pio, csb, dma = (golden("crossover")[m] for m in ("pio_locked", "csb", "dma"))
    # Short messages: PIO paths beat DMA; long messages: DMA wins over PIO.
    assert pio["16"] < dma["16"] and csb["16"] < dma["16"]
    assert dma["2048"] < pio["2048"]


def _break_even(table, method, against="dma"):
    """The break-even message size over the golden cells: the smallest
    size at which ``against`` is at least as fast as ``method`` (twice the
    largest size if it never is)."""
    sizes = list(table[method])
    for size in sizes:
        if table[against][size] <= table[method][size]:
            return int(size)
    return 2 * int(sizes[-1])


def test_csb_moves_break_even_towards_bigger_messages():
    table = golden("crossover")
    pio_cross = _break_even(table, "pio_locked")
    csb_cross = _break_even(table, "csb")
    assert (pio_cross, csb_cross) == (256, 1024)
    assert csb_cross > pio_cross


def test_sequential_stream():
    table = golden("policies-sequential")
    # With a perfectly sequential stream, the R10000 model approaches the
    # generic full-line combiner at large transfers.
    assert table["r10000"]["1024"] > 6.0
    # The 620's pairing caps it near two doublewords per transaction.
    assert table["ppc620"]["1024"] < table["combine64"]["1024"]


def test_out_of_order_stream():
    table = golden("policies-shuffled")
    # Pattern detection breaks: the R10000 degenerates to non-combining...
    assert table["r10000"]["1024"] == table["none"]["1024"]
    # ...while the software-controlled CSB is completely order-insensitive.
    assert table["csb"]["1024"] > 7.0


def test_width_sensitivity():
    lock = [row["lock_cycles"] for row in golden("sensitivity-width").values()]
    # "did not change the lock overhead at all" — within ~15% here.
    assert max(lock) - min(lock) <= 0.15 * max(lock)


def test_ratio_sensitivity():
    for ratio, row in golden("sensitivity-ratio").items():
        assert row["lock_slope"] == 2 * ratio  # one 2-cycle bus txn per doubleword
        assert row["csb_slope"] == 1           # one uncached-port cycle per doubleword


def test_sync_mechanisms():
    table = {m: row["32B"] for m, row in golden("sync-mechanisms").items()}
    swap, local, bus, csb = (
        table[m] for m in ("swap_lock", "llsc_local", "llsc_bus", "csb")
    )
    # "the store-conditional instruction results in a bus transaction even
    # for a cache hit, which would further increase the locking overhead."
    assert bus > swap
    assert abs(local - swap) <= 4   # a local SC costs about what swap does
    assert csb < swap               # and the CSB needs no lock at all
