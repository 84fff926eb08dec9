"""Seeded random guest programs for the differential test harness.

:func:`generate_program` composes a small program from a random sequence
of *fragments*, each drawn from a library of templates that are
protocol-correct **by construction**: every lock acquire pairs with a
membar-fenced release, every combining sequence stays inside one aligned
line window and ends in a checked, retried conditional flush, and every
loop is bounded.  The generator's output therefore must assemble, must
pass the :mod:`repro.analysis` lint oracle with zero error findings, and
must halt — properties tests/random/test_differential.py asserts for
every seed before using the program to cross-check simulator modes
against each other (trace on/off, cached vs fresh runner, SMP core 0 vs
the single-core system).  :func:`generate_spin_program` follows each
fragment with a register-only countdown spin, the CSB retry backoff's
shape, for the suites that check a core sleeping through spins.

Determinism: one ``random.Random(seed)`` drives all choices, so a seed
names a program forever.  The whole program is bracketed by ``mark``
pseudo-instructions (:data:`MARK_START` / :data:`MARK_END`) so harness
jobs can use the ``span`` measurement.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import DOUBLEWORD
from repro.memory.layout import DRAM_BASE, IO_COMBINING_BASE, IO_UNCACHED_BASE
from repro.workloads.lockbench import DEFAULT_LOCK_ADDR

#: Cached DRAM scratch area compute fragments read and write.
SCRATCH_BASE = DRAM_BASE + 0x40000

MARK_START = "rand_start"
MARK_END = "rand_end"

#: The line size every generated combining sequence respects; tests must
#: build their systems with the same value.
LINE_SIZE = 64

_DOUBLEWORDS_PER_LINE = LINE_SIZE // DOUBLEWORD


def _compute_fragment(rng: random.Random, idx: int) -> List[str]:
    """ALU work plus cached DRAM stores/loads (no protocol obligations)."""
    base = SCRATCH_BASE + rng.randrange(16) * LINE_SIZE
    op = rng.choice(("add", "sub", "or", "xor", "and"))
    lines = [
        f"set {rng.randrange(1, 1 << 20)}, %l0",
        f"set {base}, %o2",
        f"{op} %l0, {rng.randrange(1, 255)}, %l1",
        "stx %l1, [%o2+0]",
        "ldx [%o2+0], %l2",
        f"add %l2, {rng.randrange(1, 63)}, %l2",
        f"stx %l2, [%o2+{DOUBLEWORD}]",
    ]
    return lines


def _loop_fragment(rng: random.Random, idx: int) -> List[str]:
    """A bounded countdown loop accumulating into DRAM scratch."""
    base = SCRATCH_BASE + (16 + rng.randrange(16)) * LINE_SIZE
    count = rng.randrange(2, 7)
    return [
        f"set {base}, %o2",
        f"set {rng.randrange(1, 1 << 16)}, %l0",
        f"set {count}, %l6",
        f".LOOP{idx}:",
        f"add %l0, {rng.randrange(1, 31)}, %l0",
        "stx %l0, [%o2+0]",
        "sub %l6, 1, %l6",
        f"brnz %l6, .LOOP{idx}",
    ]


def _locked_fragment(rng: random.Random, idx: int) -> List[str]:
    """The paper's lock discipline: acquire, membar, stores, membar,
    release (lint rules ``lock.*`` and ``membar.*``)."""
    stores = rng.randrange(1, 5)
    data_base = IO_UNCACHED_BASE + rng.randrange(8) * LINE_SIZE
    lines = [
        f"set {DEFAULT_LOCK_ADDR}, %o0",
        f"set {data_base}, %o1",
        f"set {rng.randrange(1, 1 << 16)}, %l0",
        f".ACQ{idx}:",
        "set 1, %l6",
        "swap [%o0], %l6",
        f"brnz %l6, .ACQ{idx}",
        "membar",
    ]
    for i in range(stores):
        lines.append(f"stx %l0, [%o1+{i * DOUBLEWORD}]")
    lines += [
        "membar",
        "stx %g0, [%o0]",
    ]
    return lines


def _csb_fragment(rng: random.Random, idx: int) -> List[str]:
    """A combining sequence with checked conditional flush and retry
    (lint rules ``csb.*``)."""
    line = IO_COMBINING_BASE + rng.randrange(8) * LINE_SIZE
    count = rng.randrange(1, _DOUBLEWORDS_PER_LINE + 1)
    offsets = rng.sample(range(_DOUBLEWORDS_PER_LINE), count)
    lines = [
        f"set {line}, %o1",
        f"set {rng.randrange(1, 1 << 16)}, %l0",
        f".RETRY{idx}:",
        f"set {count}, %l4",
    ]
    for slot in offsets:
        lines.append(f"stx %l0, [%o1+{slot * DOUBLEWORD}]")
        lines.append(f"add %l0, 1, %l0")
    lines += [
        "swap [%o1], %l4",
        f"cmp %l4, {count}",
        f"bnz .RETRY{idx}",
    ]
    return lines


def _plain_uncached_fragment(rng: random.Random, idx: int) -> List[str]:
    """Unlocked uncached device stores and a read-back (legal: the lint
    rules constrain lock pairing and combining windows, not bare PIO)."""
    base = IO_UNCACHED_BASE + (8 + rng.randrange(8)) * LINE_SIZE
    stores = rng.randrange(1, 4)
    lines = [
        f"set {base}, %o3",
        f"set {rng.randrange(1, 1 << 16)}, %l3",
    ]
    for i in range(stores):
        lines.append(f"stx %l3, [%o3+{i * DOUBLEWORD}]")
    lines.append("ldx [%o3+0], %l2")
    return lines


_FRAGMENTS = (
    _compute_fragment,
    _loop_fragment,
    _locked_fragment,
    _csb_fragment,
    _plain_uncached_fragment,
)


def _spin_fragment(rng: random.Random, idx: int) -> List[str]:
    """A bounded countdown spin whose body only adds immediates to its own
    registers: the counter steps by 1-3 from ``trips * step`` down to
    zero, or up from ``-trips * step`` (wrapping through 2**64), with up
    to two bystander registers stepping beside it."""
    step = rng.randrange(1, 4)
    trips = rng.choice((1, 2, rng.randrange(3, 70), rng.randrange(70, 300)))
    up = rng.random() < 0.25
    body = [f"{'add' if up else 'sub'} %l6, {step}, %l6"]
    for reg in rng.sample(("%l5", "%l7", "%o4"), rng.randrange(3)):
        op = rng.choice(("add", "sub"))
        line = f"{op} {reg}, {rng.randrange(1, 9)}, {reg}"
        body.insert(rng.randrange(len(body) + 1), line)
    start = -trips * step if up else trips * step
    return [f"set {start}, %l6", f".SPIN{idx}:", *body, f"brnz %l6, .SPIN{idx}"]


def generate_program(
    seed: int, min_fragments: int = 3, max_fragments: int = 7
) -> str:
    """A random, lint-clean, halting guest program named by ``seed``."""
    return _generate(random.Random(seed), min_fragments, max_fragments, spin=False)


def generate_spin_program(seed: int) -> str:
    """:func:`generate_program`'s kind of program with a register-only
    countdown spin after every fragment, named by ``seed``."""
    return _generate(random.Random(seed), 3, 7, spin=True)


def _generate(
    rng: random.Random, min_fragments: int, max_fragments: int, spin: bool
) -> str:
    count = rng.randrange(min_fragments, max_fragments + 1)
    lines: List[str] = [f"mark {MARK_START}"]
    for idx in range(count):
        template = rng.choice(_FRAGMENTS)
        lines.extend(template(rng, idx))
        if spin:
            lines.extend(_spin_fragment(rng, idx))
    lines += [f"mark {MARK_END}", "halt"]
    return "\n".join(lines)
