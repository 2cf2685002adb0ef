"""Decoders for twisted circle-bundle CSS codes.

Four decoding routes are provided, each returning a :class:`DecodeResult`
carrying the correction, a tri-state verdict, an iteration count, and
diagnostic counters.

* :func:`decode_x` corrects X errors (cells of degree 1, syndrome on the
  2-cells).  Stage 1 integrates the syndrome over the fiber, solves the
  resulting base problem with a greedy bit-flip pass, and completes the
  lift fiber by fiber.  Stage 2 repeatedly rewrites the chain near base
  0-cells that fail a local expansion test ("fixable" cells), strictly
  shrinking its horizontal weight.
* :func:`decode_erasure_x` corrects X errors confined to a known erasure
  set by peeling cells whose value a private 2-cell pins down, pushing
  stuck vertical cells across a 0-cell star when peeling stalls.
* :func:`decode_z` (experimental) corrects Z errors by greedily
  cancelling syndrome points with short vertical strings and horizontal
  moves, then finishing through the base projection.  The underlying
  performance claim is conjectural; results carry an ``experimental``
  note.
* :func:`decode_via_homotopy` decodes one complex through another by
  transporting syndromes and corrections across a verified homotopy
  equivalence, wrapping any inner decoder.

Decoders themselves certify at most that the correction reproduces the
syndrome.  Whether the correction is equivalent to the true error up to
stabilizers is decided only by :func:`with_coset_verdict`, which needs
the true error and checks the residual against the (co)boundary matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from fibercode.bundle import Bundle
from fibercode.complexes import ChainComplex
from fibercode.gf2 import (
    GRAY_WALK_MAX_DIM,
    BitChain,
    Gf2Matrix,
    bits_from_support,
    gray_walk,
)
from fibercode.homotopy import HomotopyEquivalence, transpose_equivalence

__all__ = [
    "EXACT_MAX_DEGREE",
    "DecodeSuccess",
    "DecodeResult",
    "ErasureSet",
    "Amendment",
    "flip_solve_coboundary",
    "fixable_test",
    "amendment_chain",
    "decode_x",
    "decode_erasure_x",
    "decode_z",
    "decode_via_homotopy",
    "decode_brute_force",
    "with_coset_verdict",
]

# The highest base check degree whose 2^degree rewrites exact mode walks.
EXACT_MAX_DEGREE = 16


class DecodeSuccess(str, Enum):
    """Tri-state decode verdict.

    ``VERIFIED`` is never set by a decoder; only
    :func:`with_coset_verdict` upgrades a result after comparing with
    the true error.
    """

    VERIFIED = "verified-cosetcorrect"
    MATCHED = "syndrome-matched-only"
    FAILED = "failed"


ErasureSet = frozenset[int]
"""A set of degree-1 cell indices marking the erased qubits."""


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode call.

    When ``success`` is not ``FAILED`` the correction reproduces the
    input syndrome exactly; every decoder checks this before returning.
    """

    correction: BitChain
    success: DecodeSuccess
    steps: int
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Amendment:
    """A local rewrite near a base 0-cell.

    ``base_cells`` lists base 1-cells whose whole horizontal fiber is
    flipped; ``fiber_cells`` lists fiber slots of the 0-cell whose
    coboundary is added.  Together they form a 1-cocycle, so applying an
    amendment never changes the syndrome.  ``satisfaction_gain`` is the
    number of horizontal cells the rewrite vacates near the 0-cell.
    """

    base_cells: tuple[int, ...]
    fiber_cells: tuple[int, ...]
    satisfaction_gain: int


# -- small fiber utilities -------------------------------------------------


def _rol(value: int, shift: int, width: int) -> int:
    shift %= width
    if shift == 0:
        return value
    mask = (1 << width) - 1
    return ((value << shift) | (value >> (width - shift))) & mask


def _ror(value: int, shift: int, width: int) -> int:
    return _rol(value, width - (shift % width), width)


def _bit_rows(bits: int, n_rows: int, width: int) -> np.ndarray:
    """The low n_rows * width bits as an n_rows x width 0/1 uint8 array."""
    count = n_rows * width
    raw = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").reshape(
        n_rows, width
    )


def _fiber_parities(bits: int, n_fibers: int, width: int) -> BitChain:
    """Parity of each fiber slice: K2 of a 2-chain, P0 of a 0-chain."""
    odd = _bit_rows(bits, n_fibers, width).sum(axis=1) % 2
    return BitChain(n_fibers, bits_from_support(np.flatnonzero(odd).tolist()))


def _arc_mask(width: int, start: int, count: int) -> int:
    mask = 0
    for t in range(count):
        mask |= 1 << ((start + t) % width)
    return mask


def _interval_completion(width: int, pattern: int) -> int:
    """Lightest chi with chi(i) xor chi(i+1 mod width) matching pattern.

    The pattern must have even parity (the two prefix-parity solutions
    are complements).  Exact ties, possible only for even widths, pick
    the solution that leaves slot 0 empty.
    """
    if int.bit_count(pattern) % 2:
        raise ValueError("interval pattern has odd parity")
    run = 0
    chi = 0
    for i in range(1, width):
        run ^= (pattern >> (i - 1)) & 1
        chi |= run << i
    if 2 * int.bit_count(chi) > width:
        chi ^= (1 << width) - 1
    return chi


# -- greedy bit-flip solver -------------------------------------------------


def flip_solve_coboundary(
    incidence: Sequence[Sequence[int]],
    n_equations: int,
    target: BitChain,
) -> tuple[BitChain | None, int]:
    """Greedy flip solve of a parity system over GF(2).

    Unknown ``i`` participates in the equations listed in
    ``incidence[i]``; the system asks that each equation's unknowns sum
    to the matching bit of ``target``.  Starting from zero, the unknown
    whose toggle removes the most violated equations is flipped
    (strict improvement only, ties to the lowest index) until no
    violations remain.  Returns ``(solution, toggles)``; the solution is
    None when the greedy pass stalls with violations left.
    """
    if target.length != n_equations:
        raise ValueError("target length differs from the equation count")
    masks = [bits_from_support(row) for row in incidence]
    state = target.bits
    solution = 0
    toggles = 0
    while state:
        best_gain = 0
        best_i = -1
        for i, mask in enumerate(masks):
            gain = 2 * int.bit_count(state & mask) - int.bit_count(mask)
            if gain > best_gain:
                best_gain, best_i = gain, i
        if best_i < 0:
            return None, toggles
        solution ^= 1 << best_i
        state ^= masks[best_i]
        toggles += 1
    return BitChain(len(masks), solution), toggles


# -- fixable-cell test ------------------------------------------------------


def _occupancy_rows(bundle: Bundle, e_bits: int, a: int) -> list[int]:
    """Horizontal occupancy near check ``a`` in aligned coordinates.

    Row ``i`` covers the i-th base 1-cell through ``a``; bit ``j`` is
    the horizontal cell that the coboundary of the 0-cell (a, j) meets
    on that 1-cell, so a fiber flip at slot j toggles column j in every
    row.
    """
    mf = bundle.m_fiber
    full = (1 << mf) - 1
    rows = []
    for b in bundle.base_code.adjacency[a]:
        tw = bundle.twist_of.get((b, a), 0)
        rows.append(_rol((e_bits >> (b * mf)) & full, tw, mf))
    return rows


@functools.cache
def _gray_masks(deg: int) -> np.ndarray:
    """Row k holds the bits of k ^ (k >> 1); read-only, one per degree.

    float32 sends the product in :func:`_exact_optimum` through BLAS;
    every value in it is a small integer, so the arithmetic is exact.
    """
    gray = np.arange(1 << deg)
    gray ^= gray >> 1
    table = ((gray[:, None] >> np.arange(deg)) & 1).astype(np.float32)
    table.flags.writeable = False
    return table


def _exact_optimum(occupancy: np.ndarray) -> tuple[int, int, int]:
    """Best satisfaction over all row flips, columns by majority.

    Flipping row i of the deg x m_F 0/1 occupancy R turns its column
    contributions into 1 - R_i, so the column counts of all 2^deg
    row-flip masks, in reflected-Gray order, are one product; the first
    mask attaining the maximum is kept.  Returns (row mask, column mask,
    satisfaction).
    """
    deg = occupancy.shape[0]
    occ = occupancy.astype(np.float32)
    counts = occ.sum(axis=0) + _gray_masks(deg) @ (1 - 2 * occ)
    sat = np.maximum(counts, deg - counts).sum(axis=1)
    k = int(sat.argmax())
    y_bits = bits_from_support(np.flatnonzero(2 * counts[k] > deg).tolist())
    return k ^ (k >> 1), y_bits, int(sat[k])


def _alternating_optimum(
    rows: Sequence[int], deg: int, mf: int
) -> tuple[int, int, int]:
    """Alternating per-coordinate majority ascent from the zero pair.

    Each pass recomputes every column choice given the rows, then every
    row choice given the columns, flipping a coordinate only on strict
    improvement; satisfaction is monotone, so the loop reaches a fixed
    point.
    """
    x_mask = 0
    y_bits = 0
    seen = {(x_mask, y_bits)}
    while True:
        new_y = 0
        for j in range(mf):
            c = sum(
                ((rows[i] >> j) & 1) ^ ((x_mask >> i) & 1) for i in range(deg)
            )
            if 2 * c > deg:
                new_y |= 1 << j
        new_x = 0
        for i in range(deg):
            if 2 * int.bit_count(rows[i] ^ new_y) > mf:
                new_x |= 1 << i
        if (new_x, new_y) in seen:
            break
        seen.add((new_x, new_y))
        x_mask, y_bits = new_x, new_y
    counts = [
        sum(((rows[i] >> j) & 1) ^ ((x_mask >> i) & 1) for i in range(deg))
        for j in range(mf)
    ]
    sat = sum(
        (deg - c) if not (y_bits >> j) & 1 else c
        for j, c in enumerate(counts)
    )
    return x_mask, y_bits, sat


def _canonical_pair(
    x_mask: int, y_bits: int, deg: int, mf: int
) -> tuple[int, int]:
    """Pick the lighter of the two (rows, columns) encodings.

    Flipping every row and every column encodes the same cocycle; keep
    the representative whose column set has weight at most half the
    fiber, breaking exact ties toward the one avoiding slot 0.
    """
    weight = int.bit_count(y_bits)
    swap = 2 * weight > mf or (2 * weight == mf and y_bits & 1)
    if swap:
        return x_mask ^ ((1 << deg) - 1), y_bits ^ ((1 << mf) - 1)
    return x_mask, y_bits


def _check_ratio(ratio: float) -> None:
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio {ratio!r} outside (0, 1]")


@functools.lru_cache(typed=True)
def _exact_ratio(ratio: float) -> tuple[int, int]:
    """The ratio's decimal text as an exact fraction: 0.8 -> (4, 5)."""
    return Fraction(str(ratio)).as_integer_ratio()


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
    ``ratio`` must lie in (0, 1].

    Most cells are settled before any optimizer runs. No rewrite leaves
    more than all deg * m_F horizontal cells near ``a`` vacant, so when
    (i) holds and ``e`` already vacates ``ratio`` times that many, (iii)
    holds for every rewrite. Rotating a fiber into aligned coordinates
    keeps its popcount, so (i) and the vacant count come from the
    unrotated fibers; and a fiber slot can meet more than deg / 2
    occupied cells only if more than deg / 2 fibers are occupied, so the
    aligned rows are built for (ii) only in that case.

    ``exact`` mode enumerates every subset of the base 1-cells through
    ``a`` with fiber slots chosen by majority vote; ``alternating`` mode
    ascends by alternating majority updates from the empty rewrite.
    """
    if e.length != bundle.complex.dims[1]:
        raise ValueError("chain length differs from the 1-cell count")
    _check_ratio(ratio)
    mf = bundle.m_fiber
    bits_of_a = bundle.base_code.adjacency[a]
    deg = len(bits_of_a)
    if deg == 0:
        return None
    if mode == "exact":
        if deg > EXACT_MAX_DEGREE:
            raise ValueError(
                "exact mode enumerates 2^degree rewrites; use alternating"
            )
    elif mode != "alternating":
        raise ValueError(f"unknown mode {mode!r}")
    full = (1 << mf) - 1
    pops = [int.bit_count((e.bits >> (b * mf)) & full) for b in bits_of_a]
    sat_now = deg * mf - sum(pops)
    overfull_row = 2 * max(pops) > mf
    num, den = _exact_ratio(ratio)
    bounded = not overfull_row and sat_now * den >= num * deg * mf
    if bounded and 2 * (deg - pops.count(0)) <= deg:
        return None
    rows = _occupancy_rows(bundle, e.bits, a)
    occupancy = _bit_rows(
        sum(r << (i * mf) for i, r in enumerate(rows)), deg, mf
    )
    overfull_col = bool((2 * occupancy.sum(axis=0) > deg).any())
    if bounded and not overfull_col:
        return None
    if mode == "exact":
        x_mask, y_bits, sat_best = _exact_optimum(occupancy)
    else:
        x_mask, y_bits, sat_best = _alternating_optimum(rows, deg, mf)
    if (
        not overfull_row
        and not overfull_col
        and sat_now * den >= num * sat_best
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


def amendment_chain(bundle: Bundle, a: int, amendment: Amendment) -> BitChain:
    """The 1-cocycle an amendment adds to the current chain.

    Whole-fiber flips over the listed base 1-cells plus the coboundary
    of the listed fiber slots of 0-cell ``a``; its own coboundary
    vanishes, so adding it preserves any syndrome.
    """
    mf = bundle.m_fiber
    full = (1 << mf) - 1
    bits_of_a = bundle.base_code.adjacency[a]
    flips = set(amendment.base_cells)
    if not flips.issubset(bits_of_a):
        raise ValueError("base cells of the amendment do not pass through a")
    y_bits = bits_from_support(amendment.fiber_cells)
    z = (y_bits ^ _ror(y_bits, 1, mf)) << bundle.v_cell(a, 0)
    for b in bits_of_a:
        tw = bundle.twist_of.get((b, a), 0)
        horizontal = _ror(y_bits, tw, mf)
        if b in flips:
            horizontal ^= full
        z ^= horizontal << (b * mf)
    return BitChain(bundle.complex.dims[1], z)


# -- X decoding --------------------------------------------------------------


def _horizontal_weight(bits: int, n_vars: int, mf: int) -> int:
    return int.bit_count(bits & ((1 << (n_vars * mf)) - 1))


def decode_x(
    bundle: Bundle,
    syndrome: BitChain,
    *,
    mode: str = "exact",
    ratio: float = 0.8,
) -> DecodeResult:
    """Decode an X-error syndrome (a 2-chain) on the bundle.

    Stage 1 integrates the syndrome over the fiber, solves the base
    problem by greedy flips (a stall returns ``FAILED``), seeds the
    correction with one vertical cell per base solution cell at fiber
    slot 0, and completes each base 1-cell's fiber with the lighter
    matching arc.  Stage 2 flips any horizontal fiber that is more than
    half full, then repeatedly amends the fixable base 0-cell whose
    rewrite vacates the most horizontal cells (ties to the lowest
    index); every amendment strictly reduces horizontal weight, so at
    most one amendment per qubit can occur.  Greedy order matters: a
    full-clearing rewrite is flip-free, hence a pure coboundary, so
    taking the best rewrite first keeps single-cell errors in the
    correct coset instead of letting a marginal neighbor inject
    whole-fiber flips.  ``ratio`` is :func:`fixable_test`'s, in (0, 1].
    """
    cx = bundle.complex
    if syndrome.length != cx.dims[2]:
        raise ValueError("syndrome length differs from the 2-cell count")
    _check_ratio(ratio)
    if not cx.is_coboundary(2, syndrome):
        raise ValueError("syndrome is not the coboundary of any qubit chain")
    d2t = cx.boundary(2).transpose()
    mf = bundle.m_fiber
    full = (1 << mf) - 1
    n_vars = bundle.n_vars
    n_qubits = cx.dims[1]

    base_target = _fiber_parities(syndrome.bits, n_vars, mf)
    base_solution, toggles = flip_solve_coboundary(
        bundle.base_code.adjacency, n_vars, base_target
    )
    if base_solution is None:
        return DecodeResult(
            BitChain(n_qubits, 0),
            DecodeSuccess.FAILED,
            toggles,
            {"stage": "base-flip-stall", "flip_toggles": toggles},
        )

    e_bits = 0
    for a in base_solution.iter_support():
        e_bits ^= 1 << bundle.v_cell(a, 0)
    residual = syndrome.bits ^ d2t.mul_bits(e_bits)
    for b in range(n_vars):
        pattern = (residual >> (b * mf)) & full
        if pattern:
            e_bits ^= _interval_completion(mf, pattern) << (b * mf)
    if d2t.mul_bits(e_bits) != syndrome.bits:
        raise RuntimeError("fiber completion failed to reproduce the syndrome")

    for b in range(n_vars):
        if 2 * int.bit_count((e_bits >> (b * mf)) & full) > mf:
            e_bits ^= full << (b * mf)

    amendments = 0
    while True:
        chosen = None
        chain = BitChain(n_qubits, e_bits)
        for a in range(bundle.n_checks):
            found = fixable_test(bundle, chain, a, mode, ratio=ratio)
            if found is not None and (
                chosen is None
                or found.satisfaction_gain > chosen[1].satisfaction_gain
            ):
                chosen = (a, found)
        if chosen is None:
            break
        a, step = chosen
        before = _horizontal_weight(e_bits, n_vars, mf)
        e_bits ^= amendment_chain(bundle, a, step).bits
        after = _horizontal_weight(e_bits, n_vars, mf)
        if after >= before:
            raise RuntimeError("amendment did not reduce horizontal weight")
        amendments += 1
        if amendments > n_qubits:
            raise RuntimeError("amendment count exceeded the qubit count")

    if d2t.mul_bits(e_bits) != syndrome.bits:
        raise RuntimeError("final chain does not reproduce the syndrome")
    return DecodeResult(
        BitChain(n_qubits, e_bits),
        DecodeSuccess.MATCHED,
        toggles + amendments,
        {
            "flip_toggles": toggles,
            "amendments": amendments,
            "mode": mode,
        },
    )


# -- erasure decoding --------------------------------------------------------


def decode_erasure_x(
    bundle: Bundle,
    erased: Iterable[int],
    syndrome: BitChain,
) -> DecodeResult:
    """Peel an X-error syndrome known to live on the erased cells.

    A cell is *certain* when some 2-cell of its coboundary meets no
    other erased cell; that private 2-cell's syndrome bit pins the
    cell's error, so it is corrected and unerased (lowest cell, then
    lowest witness, first).  When nothing is certain, a vertical cell is
    pushed across a 0-cell star: taking the lowest pair (u, v) with v an
    erased vertical cell of the star and more than half of the star's
    horizontal cells erased-but-certain-without-v, the erasure swaps v
    for the rest of the star.  No certain cell and no pushable pair
    means the instance left the decodable regime.
    """
    cx = bundle.complex
    if syndrome.length != cx.dims[2]:
        raise ValueError("syndrome length differs from the 2-cell count")
    n_qubits = cx.dims[1]
    erased_set = set()
    for cell in erased:
        cell = int(cell)
        if not 0 <= cell < n_qubits:
            raise ValueError(f"erased cell {cell} out of range")
        erased_set.add(cell)

    d2 = cx.boundary(2)
    d1 = cx.boundary(1)
    vertical_start = bundle.n_vars * bundle.m_fiber

    def witness(cell: int, skip: int | None = None) -> int | None:
        for q in d2.row_support(cell):
            if all(
                c == cell or c == skip or c not in erased_set
                for c in d2.col_support(q)
            ):
                return q
        return None

    s_bits = syndrome.bits
    correction = 0
    removals = 0
    pushes = 0
    initial = len(erased_set)
    ops_cap = 4 * (initial + 4) * (bundle.max_star + 4)

    while erased_set:
        if removals + pushes > ops_cap:
            return DecodeResult(
                BitChain(n_qubits, correction),
                DecodeSuccess.FAILED,
                removals + pushes,
                {
                    "removals": removals,
                    "pushes": pushes,
                    "stage": "progress-guard",
                    "remaining": len(erased_set),
                },
            )
        acted = False
        for cell in sorted(erased_set):
            q = witness(cell)
            if q is None:
                continue
            if (s_bits >> q) & 1:
                correction ^= 1 << cell
                s_bits ^= d2.row(cell)
            erased_set.remove(cell)
            removals += 1
            acted = True
            break
        if acted:
            continue
        push = None
        for u in range(cx.dims[0]):
            star = d1.row_support(u)
            horizontal = [c for c in star if c < vertical_start]
            for v in star:
                if v < vertical_start or v not in erased_set:
                    continue
                ready = sum(
                    1
                    for h in horizontal
                    if h in erased_set and witness(h, skip=v) is not None
                )
                if 2 * ready > len(horizontal):
                    push = (v, star)
                    break
            if push is not None:
                break
        if push is None:
            return DecodeResult(
                BitChain(n_qubits, correction),
                DecodeSuccess.FAILED,
                removals + pushes,
                {
                    "removals": removals,
                    "pushes": pushes,
                    "stage": "stalled",
                    "remaining": len(erased_set),
                },
            )
        v, star = push
        erased_set.remove(v)
        erased_set.update(c for c in star if c != v)
        pushes += 1

    success = DecodeSuccess.MATCHED if s_bits == 0 else DecodeSuccess.FAILED
    return DecodeResult(
        BitChain(n_qubits, correction),
        success,
        removals + pushes,
        {
            "removals": removals,
            "pushes": pushes,
            "remaining_syndrome": int.bit_count(s_bits),
        },
    )


# -- Z decoding (experimental) ------------------------------------------------


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
    cell index; every cell is scored at once from the syndrome dilated
    by r along each fiber.  Finishing phase: the leftover syndrome is
    projected to the base, solved by greedy flips, lifted at fiber slot
    0, and closed with per-fiber vertical arcs.

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
    n_checks = bundle.n_checks
    n_qubits = cx.dims[1]
    twist = bundle.twist_of
    legs, incidence = bundle.edge_legs

    s_bits = syndrome.bits
    u_bits = 0
    moves = 0
    r = 0

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
        syndrome_rows = _bit_rows(s_bits, n_checks, mf)
        string_move = next(
            (
                (a, p, q)
                for a in np.flatnonzero(syndrome_rows.sum(1) > 1).tolist()
                for p, q in itertools.combinations(
                    np.flatnonzero(syndrome_rows[a]).tolist(), 2
                )
                if min(q - p, mf - q + p) <= r
            ),
            None,
        )
        # Beyond half the fiber every slot is already within reach.
        near = syndrome_rows.copy()
        for d in range(1, min(r, mf // 2) + 1):
            near |= np.roll(syndrome_rows, d, axis=1)
            near |= np.roll(syndrome_rows, -d, axis=1)
        # Entry 0 is "no cell move": argmin keeps the first minimum, so
        # only a strictly negative delta displaces it, in (b, u) order.
        deltas = np.append(0, incidence @ (1 - 2.0 * near.ravel()[legs]))
        cell = int(deltas.argmin())
        cell_delta = int(deltas[cell])
        best_delta = min(-2 if string_move else 0, cell_delta)
        if best_delta >= 0:
            if r >= r_max:
                break
            r += 1
            continue
        before = int.bit_count(s_bits)
        if string_move and cell_delta >= -2:
            a, p, q = string_move
            move = string_mask(p, q) << bundle.v_cell(a, 0)
        else:
            b, upos = divmod(cell - 1, mf)
            move = 1 << bundle.h_cell(b, upos)
            for a2 in bundle.var_checks[b]:
                p = (upos + twist.get((b, a2), 0)) % mf
                q = nearest_point(a2, p, r)
                if q is not None and q != p:
                    move ^= string_mask(p, q) << bundle.v_cell(a2, 0)
        u_bits ^= move
        s_bits ^= d1.mul_bits(move)
        if int.bit_count(s_bits) >= before:
            raise RuntimeError("accepted move failed to reduce the syndrome")
        moves += 1

    base_target = _fiber_parities(s_bits, n_checks, mf)
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
        if not pattern:
            continue
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


# -- decoding through a homotopy equivalence ----------------------------------

def decode_via_homotopy(
    equiv: HomotopyEquivalence,
    inner: Callable[[BitChain], DecodeResult],
    syndrome: BitChain,
    *,
    error_degree: int = 1,
    cohomology: bool = False,
) -> DecodeResult:
    """Decode the equivalence's source complex through its target.

    The syndrome is pushed forward along the equivalence, handed to the
    inner decoder, and the inner correction is pulled back with the
    homotopy correction term, which restores the exact syndrome on the
    source side.  ``cohomology=True`` decodes against coboundaries
    (syndrome one degree above the error) by transposing the
    equivalence.  Inner failures propagate; inner verdicts are recorded
    in the notes but never upgraded here.
    """
    # An equivalence verified once, or reversed or transposed from one,
    # records it; any other is verified here.
    if not (equiv._verified or equiv.verify()):
        raise ValueError("equivalence fails verification")
    work = transpose_equivalence(equiv) if cohomology else equiv
    top = work.f.source.top_degree
    j = (top - error_degree) if cohomology else error_degree
    if not 1 <= j <= top:
        raise ValueError("error degree out of range for this equivalence")
    source = work.f.source
    if syndrome.length != source.dims[j - 1]:
        raise ValueError("syndrome length differs from the expected degree")
    pushed = work.f.maps[j - 1].mul_chain(syndrome)
    inner_result = inner(pushed)
    notes = {
        "inner_success": inner_result.success.value,
        "inner_steps": inner_result.steps,
    }
    if inner_result.success is DecodeSuccess.FAILED:
        return DecodeResult(
            BitChain(source.dims[j], 0),
            DecodeSuccess.FAILED,
            inner_result.steps,
            notes,
        )
    correction = work.g.maps[j].mul_chain(inner_result.correction) ^ work.h_source[
        j - 1
    ].mul_chain(syndrome)
    if source.boundary(j).mul_bits(correction.bits) != syndrome.bits:
        return DecodeResult(
            correction,
            DecodeSuccess.FAILED,
            inner_result.steps,
            {**notes, "stage": "transport-mismatch"},
        )
    return DecodeResult(
        correction, DecodeSuccess.MATCHED, inner_result.steps, notes
    )


# -- oracles -------------------------------------------------------------------


def decode_brute_force(matrix: Gf2Matrix, syndrome: BitChain) -> DecodeResult:
    """Exhaustive minimum-weight decoding against an arbitrary matrix.

    Finds a minimum-weight chain whose image under ``matrix`` is the
    syndrome by walking the solution coset in Gray order (the first
    minimum encountered is kept).  Usable as an exact inner decoder on
    instances whose kernel dimension is at most ``GRAY_WALK_MAX_DIM``.
    """
    particular = matrix.solve(syndrome)
    if particular is None:
        return DecodeResult(
            BitChain(matrix.shape[1], 0),
            DecodeSuccess.FAILED,
            0,
            {"stage": "unsolvable"},
        )
    kernel = matrix.kernel_basis()
    if len(kernel) > GRAY_WALK_MAX_DIM:
        raise ValueError("kernel dimension exceeds the exhaustive budget")
    best = min(
        gray_walk(particular.bits, [v.bits for v in kernel]),
        key=int.bit_count,
    )
    return DecodeResult(
        BitChain(matrix.shape[1], best),
        DecodeSuccess.MATCHED,
        1 << len(kernel),
        {"kernel_dim": len(kernel)},
    )


def with_coset_verdict(
    cx: ChainComplex,
    degree: int,
    result: DecodeResult,
    true_error: BitChain,
    *,
    cohomology: bool = False,
) -> DecodeResult:
    """Upgrade a matched result after comparing with the true error.

    The residual (true error plus correction) is checked against the
    boundary matrix one degree up (or the coboundary matrix one degree
    down, for X-type errors); only this oracle may certify
    ``verified-cosetcorrect``.
    """
    if result.success is DecodeSuccess.FAILED:
        return result
    residual = true_error ^ result.correction
    if cohomology:
        trivial = cx.is_coboundary(degree, residual)
    else:
        trivial = cx.is_boundary(degree, residual)
    return replace(
        result,
        success=DecodeSuccess.VERIFIED if trivial else result.success,
        notes={**result.notes, "coset_correct": trivial},
    )
