"""The exact local optimum of the X decoder as an incremental Gray walk.

The reference that the closed-form ``_exact_optimum`` and
``fixable_test`` in fibercode.decoders are tested against. The walk
visits the 2^deg row-flip masks in reflected-Gray order, updates the
m_F column counts one row at a time, and keeps the first mask that
attains the maximum; ``fixable_test`` counts the columns in its own
loop. The bodies are the former decoder functions, unchanged.

Not collected by pytest; the differential tests import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from fibercode.bundle import Bundle
from fibercode.decoders import (
    Amendment,
    _alternating_optimum,
    _canonical_pair,
    _occupancy_rows,
)
from fibercode.gf2 import BitChain


def _column_satisfaction(counts: Iterable[int], deg: int) -> int:
    return sum(max(c, deg - c) for c in counts)


def _exact_optimum(
    rows: Sequence[int], deg: int, mf: int
) -> tuple[int, int, int]:
    """Best satisfaction over all row flips, columns by majority.

    Enumerates the 2^deg row-flip masks in reflected-Gray order so each
    step updates one row; the first mask attaining the maximum is kept.
    Returns (row mask, column mask, satisfaction).
    """
    cur = list(rows)
    counts = [0] * mf
    for r in cur:
        for j in range(mf):
            counts[j] += (r >> j) & 1
    full = (1 << mf) - 1
    best_sat = _column_satisfaction(counts, deg)
    best_mask = 0
    best_counts = list(counts)
    mask = 0
    for k in range(1, 1 << deg):
        t = (k & -k).bit_length() - 1
        old = cur[t]
        new = old ^ full
        for j in range(mf):
            counts[j] += ((new >> j) & 1) - ((old >> j) & 1)
        cur[t] = new
        mask ^= 1 << t
        sat = _column_satisfaction(counts, deg)
        if sat > best_sat:
            best_sat = sat
            best_mask = mask
            best_counts = list(counts)
    y_bits = 0
    for j in range(mf):
        if 2 * best_counts[j] > deg:
            y_bits |= 1 << j
    return best_mask, y_bits, best_sat


def fixable_test(
    bundle: Bundle,
    e: BitChain,
    a: int,
    mode: str = "exact",
    *,
    ratio: float = 0.8,
) -> Amendment | None:
    """Test whether base 0-cell ``a`` admits a weight-reducing rewrite.

    The cell is *amended* (returns None) when, near ``a``, the chain
    ``e`` (i) occupies at most half of each base 1-cell's horizontal
    fiber, (ii) occupies at most half of the horizontal cells met by
    each fiber slot's coboundary, and (iii) vacates at least ``ratio``
    times as many horizontal cells as the best local rewrite does.
    Otherwise the best rewrite found by the requested optimizer is
    returned; it strictly reduces the horizontal weight of ``e``.

    ``exact`` mode enumerates every subset of the base 1-cells through
    ``a`` with fiber slots chosen by majority vote; ``alternating`` mode
    ascends by alternating majority updates from the empty rewrite.
    """
    if e.length != bundle.complex.dims[1]:
        raise ValueError("chain length differs from the 1-cell count")
    mf = bundle.m_fiber
    bits_of_a = bundle.base_code.adjacency[a]
    deg = len(bits_of_a)
    if deg == 0:
        return None
    rows = _occupancy_rows(bundle, e.bits, a)
    counts = [0] * mf
    for r in rows:
        for j in range(mf):
            counts[j] += (r >> j) & 1
    sat_now = sum(deg - c for c in counts)
    overfull_row = any(2 * int.bit_count(r) > mf for r in rows)
    overfull_col = any(2 * c > deg for c in counts)
    if mode == "exact":
        if deg > 16:
            raise ValueError(
                "exact mode enumerates 2^degree rewrites; use alternating"
            )
        x_mask, y_bits, sat_best = _exact_optimum(rows, deg, mf)
    elif mode == "alternating":
        x_mask, y_bits, sat_best = _alternating_optimum(rows, deg, mf)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    threshold = Fraction(str(ratio))
    if (
        not overfull_row
        and not overfull_col
        and Fraction(sat_now) >= threshold * sat_best
    ):
        return None
    gain = sat_best - sat_now
    if gain <= 0:
        raise RuntimeError(
            "fixable cell without a strictly improving rewrite; "
            "optimizer invariant broken"
        )
    x_mask, y_bits = _canonical_pair(x_mask, y_bits, deg, mf)
    return Amendment(
        base_cells=tuple(
            b for i, b in enumerate(bits_of_a) if (x_mask >> i) & 1
        ),
        fiber_cells=tuple(j for j in range(mf) if (y_bits >> j) & 1),
        satisfaction_gain=gain,
    )
