"""Loop forms of decoder steps that fibercode.decoders computes in closed form.

The exact local optimum of the X decoder as an incremental Gray walk:
the reference that the closed-form ``_exact_optimum`` and
``fixable_test`` are tested against. The walk visits the 2^deg row-flip
masks in reflected-Gray order, updates the m_F column counts one row at
a time, and keeps the first mask that attains the maximum;
``fixable_test`` counts the columns in its own loop.

The Z decoder whose greedy phase scores every horizontal cell in a
Python loop, asking each leg for its nearest syndrome point: the
reference for the dilated-mask scan of ``decode_z``.

The bodies are the former decoder functions, unchanged.

Not collected by pytest; the differential tests import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from fibercode.bundle import Bundle, projection_maps
from fibercode.decoders import (
    Amendment,
    DecodeResult,
    DecodeSuccess,
    _alternating_optimum,
    _arc_mask,
    _canonical_pair,
    _interval_completion,
    _occupancy_rows,
    _ror,
    flip_solve_coboundary,
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


def decode_z(
    bundle: Bundle,
    syndrome: BitChain,
    r_max: int | None = None,
) -> DecodeResult:
    """Decode a Z-error syndrome (a 0-chain).  Experimental.

    Greedy phase: with a growing string-length budget r, repeatedly
    apply whichever move removes the most syndrome points — a vertical
    string of length at most r joining two points on one 0-cell fiber,
    or a horizontal cell whose boundary points are each either on a
    syndrome point or within r of one along the fiber (nearest point,
    ties upward).  Equal reductions prefer string moves, then the lowest
    cell index.  Finishing phase: the leftover syndrome is projected to
    the base, solved by greedy flips, lifted at fiber slot 0, and closed
    with per-fiber vertical arcs.

    The success value never exceeds ``syndrome-matched-only``; the
    conjectural status is recorded under ``notes["experimental"]``.
    """
    cx = bundle.complex
    if syndrome.length != cx.dims[0]:
        raise ValueError("syndrome length differs from the 0-cell count")
    if not cx.is_boundary(0, syndrome):
        raise ValueError("syndrome is not the boundary of any qubit chain")
    d1 = cx.boundary(1)
    if r_max is None:
        if bundle.ell is None:
            raise ValueError(
                "r_max is required when the bundle records no fiber parameter"
            )
        r_max = bundle.ell // 4
    mf = bundle.m_fiber
    full = (1 << mf) - 1
    n_vars = bundle.n_vars
    n_checks = bundle.n_checks
    n_qubits = cx.dims[1]

    s_bits = syndrome.bits
    u_bits = 0
    moves = 0
    r = 0

    def fiber_points(a: int) -> list[int]:
        slice_ = (s_bits >> (a * mf)) & full
        return [i for i in range(mf) if (slice_ >> i) & 1]

    def nearest_point(a: int, p: int, radius: int) -> int | None:
        if (s_bits >> (a * mf + p)) & 1:
            return p
        for d in range(1, radius + 1):
            up = (p + d) % mf
            if (s_bits >> (a * mf + up)) & 1:
                return up
            down = (p - d) % mf
            if (s_bits >> (a * mf + down)) & 1:
                return down
        return None

    def string_mask(p: int, q: int) -> int:
        d_up = (q - p) % mf
        if 2 * d_up <= mf:
            return _arc_mask(mf, p, d_up)
        return _arc_mask(mf, q, mf - d_up)

    while s_bits:
        string_move = None
        for a in range(n_checks):
            points = fiber_points(a)
            for ii in range(len(points)):
                for jj in range(ii + 1, len(points)):
                    gap = points[jj] - points[ii]
                    if min(gap, mf - gap) <= r:
                        string_move = (a, points[ii], points[jj])
                        break
                if string_move:
                    break
            if string_move:
                break
        cell_move = None
        cell_delta = 0
        for b in range(n_vars):
            for upos in range(mf):
                delta = 0
                legs = []
                for a2 in bundle.var_checks[b]:
                    p = (upos + bundle.twist_of.get((b, a2), 0)) % mf
                    q = nearest_point(a2, p, r)
                    delta += -1 if q is not None else 1
                    legs.append((a2, p, q))
                if delta < cell_delta:
                    cell_delta = delta
                    cell_move = (b, upos, legs)
        best_delta = min(-2 if string_move else 0, cell_delta)
        if best_delta >= 0:
            if r >= r_max:
                break
            r += 1
            continue
        before = int.bit_count(s_bits)
        if string_move and cell_delta >= -2:
            a, p, q = string_move
            u_bits ^= string_mask(p, q) << bundle.v_cell(a, 0)
        else:
            b, upos, legs = cell_move
            u_bits ^= 1 << bundle.h_cell(b, upos)
            for a2, p, q in legs:
                if q is not None and q != p:
                    u_bits ^= string_mask(p, q) << bundle.v_cell(a2, 0)
        s_bits = syndrome.bits ^ d1.mul_bits(u_bits)
        if int.bit_count(s_bits) >= before:
            raise RuntimeError("accepted move failed to reduce the syndrome")
        moves += 1

    p0, _ = projection_maps(bundle)
    base_target = BitChain(n_checks, p0.mul_bits(s_bits))
    base_solution, toggles = flip_solve_coboundary(
        bundle.var_checks, n_checks, base_target
    )
    fail_notes = {
        "experimental": True,
        "moves": moves,
        "flip_toggles": toggles,
        "final_r": r,
    }
    if base_solution is None:
        return DecodeResult(
            BitChain(n_qubits, 0),
            DecodeSuccess.FAILED,
            moves + toggles,
            {**fail_notes, "stage": "base-flip-stall"},
        )
    out_bits = u_bits
    for b in base_solution.iter_support():
        out_bits ^= 1 << bundle.h_cell(b, 0)
    leftover = syndrome.bits ^ d1.mul_bits(out_bits)
    for a in range(n_checks):
        pattern = (leftover >> (a * mf)) & full
        if int.bit_count(pattern) % 2:
            return DecodeResult(
                BitChain(n_qubits, 0),
                DecodeSuccess.FAILED,
                moves + toggles,
                {**fail_notes, "stage": "vertical-residue"},
            )
        arcs = _interval_completion(mf, _ror(pattern, 1, mf))
        out_bits ^= arcs << bundle.v_cell(a, 0)
    if d1.mul_bits(out_bits) != syndrome.bits:
        return DecodeResult(
            BitChain(n_qubits, 0),
            DecodeSuccess.FAILED,
            moves + toggles,
            {**fail_notes, "stage": "vertical-residue"},
        )
    return DecodeResult(
        BitChain(n_qubits, out_bits),
        DecodeSuccess.MATCHED,
        moves + toggles,
        fail_notes,
    )
