#!/usr/bin/env python
"""Where does DMA start to beat programmed I/O — and how far does the CSB
move that point?

The paper's §5 argues that the CSB "moves the break-even point between
PIO and DMA towards bigger messages, potentially completely eliminating
the need for DMA on the send side for many applications."  This example
sweeps message sizes over three send paths (locked PIO, CSB bursts, and
descriptor DMA) and reports the measured break-even points.

Run:  python examples/pio_vs_dma.py
"""

from repro.common.tables import Table
from repro.evaluation.crossover import crossover_table


def break_even(table: Table, method: str, against: str = "dma") -> int:
    """Smallest message size at which ``against`` is at least as fast as
    ``method`` in ``table`` (twice the largest size if it never is)."""
    sizes = table.columns[1:]
    for size in sizes:
        if table.lookup("method", against, size) <= table.lookup(
            "method", method, size
        ):
            return int(size)
    return 2 * int(sizes[-1])


def main() -> None:
    print(__doc__)
    table = crossover_table()
    print(table.render(0))
    pio_cross = break_even(table, "pio_locked")
    csb_cross = break_even(table, "csb")
    print(f"DMA overtakes locked PIO at : {pio_cross} bytes")
    print(f"DMA overtakes the CSB at    : {csb_cross} bytes")
    print(
        f"\nThe CSB moves the PIO/DMA break-even {csb_cross // pio_cross}x "
        "towards larger messages.\nFor the 19-230 byte messages the paper "
        "cites as typical of parallel\napplications, the CSB send path wins "
        "outright."
    )


if __name__ == "__main__":
    main()
