"""Gaussian elimination as it was done before matrices cached it.

The reference that the cached elimination record of ``Gf2Matrix`` and
the (co)homology bases in fibercode.complexes are tested against. Each
query eliminates from scratch: ``rref`` per rank or kernel call, a fresh
augmented RREF per ``solve`` or column-space membership test, and two
leading-bit eliminators in the complexes module. ``mul_bits`` takes one
parity per row, where ``Gf2Matrix.mul_bits`` XORs columns. The bodies
are the former methods and helpers with ``self`` turned into a ``mat``
argument.

``eliminate`` is the Gauss-Jordan loop that once filled the cached
elimination record, column by column over [M | I]: the reference that
the pivot-insertion record is tested against.

Not collected by pytest; the differential tests import it.
"""

from __future__ import annotations

from typing import Iterable

from fibercode.complexes import ChainComplex
from fibercode.gf2 import BitChain, Gf2Matrix


def rref(mat: Gf2Matrix) -> tuple[list[int], list[tuple[int, int]]]:
    """Reduced row echelon form.

    Returns (rows, pivots) where pivots is a list of (row, col) pairs
    in increasing column order. Deterministic: the pivot for a column
    is the first remaining row with a 1 there.
    """
    rows = list(mat.rows)
    pivots: list[tuple[int, int]] = []
    pivot_row = 0
    n_rows = mat.n_rows
    for col in range(mat.n_cols):
        mask = 1 << col
        src = -1
        for r in range(pivot_row, n_rows):
            if rows[r] & mask:
                src = r
                break
        if src < 0:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        piv = rows[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and rows[r] & mask:
                rows[r] ^= piv
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return rows, pivots


def eliminate(
    mat: Gf2Matrix,
) -> tuple[dict[int, int], tuple[int, ...], Gf2Matrix]:
    """The RREF of [M | I]: (pivot column -> reduced row, in row order;
    the transforms of those rows; the left-null block).

    Reduced row r is the sum of the original rows in transform r.
    The rows after the pivot rows are zero, so their transforms span
    the left null space; they are the rows of the left-null block.
    The identity columns never hold a pivot, so they record the row
    operations without steering them.
    """
    n_cols, n_rows = mat.n_cols, mat.n_rows
    rows = [r | (1 << (n_cols + i)) for i, r in enumerate(mat.rows)]
    # Row operations never fill a column that no row touches, so only
    # the occupied columns are visited, lowest first.
    occupied = 0
    for r in mat.rows:
        occupied |= r
    pivots: list[int] = []
    while occupied and len(pivots) < n_rows:
        mask = occupied & -occupied
        occupied ^= mask
        top = len(pivots)
        src = next((r for r in range(top, n_rows) if rows[r] & mask), -1)
        if src < 0:
            continue
        piv = rows[src]
        rows[src] = rows[top]
        rows = [r ^ piv if r & mask else r for r in rows]
        rows[top] = piv
        pivots.append(mask.bit_length() - 1)
    low = (1 << n_cols) - 1
    rank = len(pivots)
    return (
        {c: r & low for c, r in zip(pivots, rows)},
        tuple(r >> n_cols for r in rows[:rank]),
        Gf2Matrix([r >> n_cols for r in rows[rank:]], n_rows),
    )


def mul_bits(mat: Gf2Matrix, x: int) -> int:
    """Apply the matrix to a column vector given as a bit mask."""
    acc = 0
    for i, r in enumerate(mat.rows):
        if (r & x).bit_count() & 1:
            acc |= 1 << i
    return acc


def rank(mat: Gf2Matrix) -> int:
    _, pivots = rref(mat)
    return len(pivots)


def solve(mat: Gf2Matrix, b: BitChain) -> BitChain | None:
    """One solution of M x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    if b.length != mat.n_rows:
        raise ValueError("rhs length mismatch")
    # Augment with b as an extra column and reduce.
    aug_col = 1 << mat.n_cols
    rows = [
        r | (aug_col if (b.bits >> i) & 1 else 0)
        for i, r in enumerate(mat.rows)
    ]
    aug = Gf2Matrix(rows, mat.n_cols + 1)
    red, pivots = rref(aug)
    x = 0
    for r, c in pivots:
        if c == mat.n_cols:
            return None  # pivot in the augmented column: inconsistent
        if red[r] & aug_col:
            x |= 1 << c
    return BitChain(mat.n_cols, x)


def kernel_basis(mat: Gf2Matrix) -> list[BitChain]:
    """Basis of the right null space, one vector per free column."""
    red, pivots = rref(mat)
    pivot_cols = {c: r for r, c in pivots}
    basis = []
    for f in range(mat.n_cols):
        if f in pivot_cols:
            continue
        v = 1 << f
        fmask = 1 << f
        for c, r in pivot_cols.items():
            if red[r] & fmask:
                v |= 1 << c
        basis.append(BitChain(mat.n_cols, v))
    return basis


def column_space_contains(mat: Gf2Matrix, b: BitChain) -> bool:
    """Whether b is a GF(2) combination of the columns, by solving."""
    return solve(mat, b) is not None


def row_space_contains(mat: Gf2Matrix, c: BitChain) -> bool:
    """Whether c is a GF(2) combination of the rows."""
    if c.length != mat.n_cols:
        raise ValueError("length mismatch")
    return solve(mat.transpose(), c) is not None


def _independent_mod(
    candidates: list[BitChain], span_rows: Iterable[int], length: int
) -> list[BitChain]:
    """Subset of candidates independent modulo the span of the given rows.

    Maintains an eliminator keyed by leading bit position; the reduction
    order is fixed, so the selection is deterministic.
    """
    eliminators: dict[int, int] = {}

    def reduce(bits: int) -> int:
        while bits:
            lead = bits.bit_length() - 1
            row = eliminators.get(lead)
            if row is None:
                return bits
            bits ^= row
        return 0

    def insert(bits: int) -> bool:
        bits = reduce(bits)
        if bits == 0:
            return False
        eliminators[bits.bit_length() - 1] = bits
        return True

    for row in span_rows:
        insert(row)
    picked = []
    for cand in candidates:
        if insert(cand.bits):
            picked.append(cand)
    return picked


def homology_basis(cx: ChainComplex, j: int) -> list[BitChain]:
    """Cycles independent modulo boundaries, deterministically chosen."""
    cycles = kernel_basis(cx.boundary(j))
    return _independent_mod(cycles, cx.boundary(j + 1).transpose().rows, cx.dims[j])


def cohomology_basis(cx: ChainComplex, j: int) -> list[BitChain]:
    cocycles = kernel_basis(cx.boundary(j + 1).transpose())
    return _independent_mod(cocycles, cx.boundary(j).rows, cx.dims[j])


def _row_space_eliminators(rows: Iterable[int]) -> dict[int, int]:
    eliminators: dict[int, int] = {}
    for bits in rows:
        while bits:
            lead = bits.bit_length() - 1
            row = eliminators.get(lead)
            if row is None:
                eliminators[lead] = bits
                break
            bits ^= row
    return eliminators


def _in_row_space(eliminators: dict[int, int], bits: int) -> bool:
    while bits:
        lead = bits.bit_length() - 1
        row = eliminators.get(lead)
        if row is None:
            return False
        bits ^= row
    return True


def in_row_space(mat: Gf2Matrix, c: BitChain) -> bool:
    """Row-space membership by the leading-bit eliminators."""
    return _in_row_space(_row_space_eliminators(mat.rows), c.bits)
