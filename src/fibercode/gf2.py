"""GF(2) linear algebra on bit-packed integers.

Matrices store one Python int per row, bit j of row i being entry (i, j).
Rows never change after construction. Each matrix caches its transpose
and one elimination record, the RREF of [M | I], so it is eliminated at
most once however many rank, solve, kernel or membership queries it
answers. Matrices and chains can be shared freely between threads, such
as the CLI's ``--threads`` workers: a cache depends on the rows alone,
so two threads racing to fill it store equal values and either may win.
Elimination is deterministic: the record is the reduced row echelon form,
whose pivot columns and reduced rows depend on the matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BitChain",
    "Gf2Matrix",
    "parity",
    "bits_from_support",
    "gray_walk",
    "GRAY_WALK_MAX_DIM",
    "to_alist",
    "from_alist",
]


def parity(x: int) -> int:
    """Parity of the popcount of a nonnegative int."""
    return x.bit_count() & 1


def bits_from_support(support: Iterable[int]) -> int:
    """Pack an iterable of bit positions into an int mask."""
    bits = 0
    for i in support:
        bits |= 1 << i
    return bits


# The largest basis that exact searches walk: 2^22 words take seconds.
GRAY_WALK_MAX_DIM = 22


def gray_walk(start: int, basis: Sequence[int]) -> Iterator[int]:
    """start plus every combination of basis, in reflected-Gray order.

    Yields 2^len(basis) words, beginning with start itself; step k adds
    basis[t] for t the number of trailing zeros of k.
    """
    word = start
    yield word
    for k in range(1, 1 << len(basis)):
        word ^= basis[(k & -k).bit_length() - 1]
        yield word


@dataclass(frozen=True)
class BitChain:
    """A GF(2) vector of fixed length, stored as a bit mask.

    Used for chains, cochains, syndromes and error patterns alike. The
    length is part of the value: operations refuse to mix lengths.
    """

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative chain length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside of chain length")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitChain":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"support index {i} out of range")
            bits |= 1 << i
        return cls(length, bits)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.iter_support())

    def iter_support(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def flip(self, i: int) -> "BitChain":
        if not 0 <= i < self.length:
            raise IndexError(i)
        return BitChain(self.length, self.bits ^ (1 << i))

    def __xor__(self, other: "BitChain") -> "BitChain":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitChain(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitChain") -> "BitChain":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitChain(self.length, self.bits & other.bits)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.length and (self.bits >> i) & 1 == 1

    def dot(self, other: "BitChain") -> int:
        """GF(2) inner product."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        return parity(self.bits & other.bits)


class Gf2Matrix:
    """Immutable GF(2) matrix with bit-packed rows.

    Two caches, filled on first use and never part of the value (equality
    and hashing read the shape and rows only): the transpose, and the
    elimination record that every rank, solve, kernel, row-space,
    column-space and pivot query reads. The record keeps the left null
    space as one matrix, the left-null block, so column-space membership
    is a mat-vec with it. ``mul_bits`` XORs rows of the transpose, so it
    costs O(|x|) big-int XORs, not one parity per row. A racing fill from
    two threads stores an equal value, so shared matrices need no lock.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "_transpose", "_elimination")

    def __init__(self, rows: Sequence[int], n_cols: int):
        rows = tuple(rows)
        if n_cols < 0 or rows and (min(rows) < 0 or max(rows) >> n_cols):
            raise ValueError("row bits outside of column range")
        object.__setattr__(self, "n_rows", len(rows))
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_transpose", None)
        object.__setattr__(self, "_elimination", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Gf2Matrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "Gf2Matrix":
        return cls([0] * n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_row_support(
        cls, supports: Sequence[Iterable[int]], n_cols: int
    ) -> "Gf2Matrix":
        return cls([bits_from_support(s) for s in supports], n_cols)

    @classmethod
    def from_col_support(
        cls, supports: Sequence[Iterable[int]], n_rows: int
    ) -> "Gf2Matrix":
        """Build from per-column row-index supports (mod-2 accumulation)."""
        rows = [0] * n_rows
        for j, sup in enumerate(supports):
            for i in sup:
                rows[i] ^= 1 << j
        return cls(rows, len(supports))

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence[int]], n_cols: int | None = None) -> "Gf2Matrix":
        if n_cols is None:
            n_cols = len(entries[0]) if entries else 0
        rows = []
        for row in entries:
            bits = 0
            for j, v in enumerate(row):
                if v & 1:
                    bits |= 1 << j
            rows.append(bits)
        return cls(rows, n_cols)

    # -- basic accessors -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row(self, i: int) -> int:
        return self.rows[i]

    def row_support(self, i: int) -> tuple[int, ...]:
        return tuple(BitChain(self.n_cols, self.rows[i]).iter_support())

    def col_support(self, j: int) -> tuple[int, ...]:
        return self.transpose().row_support(j)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def max_row_weight(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def max_col_weight(self) -> int:
        counts = [0] * self.n_cols
        for r in self.rows:
            while r:
                low = r & -r
                counts[low.bit_length() - 1] += 1
                r ^= low
        return max(counts, default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return (
            self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_cols, self.rows))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.n_rows}x{self.n_cols})"

    # -- algebra ---------------------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        t = self._transpose
        if t is None:
            cols = [0] * self.n_cols
            for i, r in enumerate(self.rows):
                bit = 1 << i
                while r:
                    low = r & -r
                    cols[low.bit_length() - 1] |= bit
                    r ^= low
            # No back-link t -> self: the cycle would outlive refcounting.
            t = Gf2Matrix(cols, self.n_rows)
            object.__setattr__(self, "_transpose", t)
        return t

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Gf2Matrix(
            [a ^ b for a, b in zip(self.rows, other.rows)], self.n_cols
        )

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}"
            )
        out = []
        orows = other.rows
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc ^= orows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Gf2Matrix(out, other.n_cols)

    def mul_bits(self, x: int) -> int:
        """Apply the matrix to a column vector given as a bit mask: the
        XOR of the columns at the set bits of x, one per set bit."""
        if x >> self.n_cols:
            raise ValueError("bits outside of column range")
        # The slot, not transpose(): a cached transpose costs no call.
        t = self._transpose
        cols = (t if t is not None else self.transpose()).rows
        acc = 0
        while x:
            low = x & -x
            acc ^= cols[low.bit_length() - 1]
            x ^= low
        return acc

    def mul_chain(self, c: BitChain) -> BitChain:
        if c.length != self.n_cols:
            raise ValueError("length mismatch")
        return BitChain(self.n_rows, self.mul_bits(c.bits))

    # -- elimination -----------------------------------------------------

    def _eliminate(self) -> tuple[dict[int, int], tuple[int, ...], "Gf2Matrix"]:
        """The cached RREF of [M | I]: (pivot column -> reduced row, in
        column order; the transforms of those rows; the left-null block),
        computed on first use in two passes.

        The first pass inserts the augmented rows one at a time: a row is
        cleared at its lowest bit by the pivot row keyed there until it
        either finds a free lowest bit, where it becomes the pivot row,
        or has no bit left inside M, when its identity part is a left-null
        row. The second pass clears every other pivot bit from each pivot
        row, going in descending pivot order, so each row it adds is
        already reduced. Reduced row r is the sum of the original rows in
        transform r. The left-null rows number n_rows - rank and are
        independent: each holds its own row's identity bit above all the
        rows it was cleared with.
        """
        if self._elimination is not None:
            return self._elimination
        n_cols = self.n_cols
        low = (1 << n_cols) - 1
        pivots: dict[int, int] = {}
        null_rows = []
        for i, r in enumerate(self.rows):
            row = r | (1 << (n_cols + i))
            while row & low:
                col = (row & -row).bit_length() - 1
                piv = pivots.get(col)
                if piv is None:
                    pivots[col] = row
                    break
                row ^= piv
            else:
                null_rows.append(row >> n_cols)
        order = sorted(pivots)
        pivot_bits = sum(1 << col for col in order)
        for col in reversed(order):
            row = pivots[col]
            rest = row & pivot_bits ^ (1 << col)
            while rest:
                bit = rest & -rest
                row ^= pivots[bit.bit_length() - 1]
                rest ^= bit
            pivots[col] = row
        record = (
            {c: pivots[c] & low for c in order},
            tuple(pivots[c] >> n_cols for c in order),
            Gf2Matrix(null_rows, self.n_rows),
        )
        object.__setattr__(self, "_elimination", record)
        return record

    def rank(self) -> int:
        return len(self._eliminate()[0])

    def pivot_columns(self) -> tuple[int, ...]:
        """Columns that are not combinations of the columns before them."""
        return tuple(self._eliminate()[0])

    def solve(self, b: BitChain) -> BitChain | None:
        """One solution of M x = b with free variables set to zero.

        Returns None when the system is inconsistent.
        """
        if not self.column_space_contains(b):
            return None
        reduced, transform, _ = self._eliminate()
        bits = b.bits
        x = 0
        for c, t in zip(reduced, transform):
            if (t & bits).bit_count() & 1:
                x |= 1 << c
        return BitChain(self.n_cols, x)

    def column_space_contains(self, b: BitChain) -> bool:
        """Whether b is a GF(2) combination of the columns: whether the
        left-null block maps it to zero. Without a left null space every
        b qualifies, and nothing is built to say so."""
        if b.length != self.n_rows:
            raise ValueError("rhs length mismatch")
        left_null = self._eliminate()[2]
        return not left_null.n_rows or not left_null.mul_bits(b.bits)

    def kernel_basis(self) -> list[BitChain]:
        """Basis of the right null space, one vector per free column."""
        n, reduced = self.n_cols, self._eliminate()[0]
        # Free column f pairs with every pivot whose reduced row has bit f.
        vecs = [1 << f for f in range(n)]
        for c, r in reduced.items():
            bit = 1 << c
            rest = r ^ bit
            while rest:
                low = rest & -rest
                vecs[low.bit_length() - 1] |= bit
                rest ^= low
        return [BitChain(n, v) for f, v in enumerate(vecs) if f not in reduced]

    def reduce_mod_rows(self, c: BitChain) -> BitChain:
        """c minus the reduced rows at its pivot bits: linear in c, and
        zero exactly when c lies in the row space."""
        if c.length != self.n_cols:
            raise ValueError("length mismatch")
        reduced = self._eliminate()[0]
        bits = rest = c.bits
        # A pivot column is set in its own reduced row only, so clearing
        # the pivot bits of c one by one never sets another.
        while rest:
            low = rest & -rest
            bits ^= reduced.get(low.bit_length() - 1, 0)
            rest ^= low
        return BitChain(self.n_cols, bits)

    def row_space_contains(self, c: BitChain) -> bool:
        """Whether c is a GF(2) combination of the rows."""
        return self.reduce_mod_rows(c).is_zero()


# -- alist serialization --------------------------------------------------


def to_alist(mat: Gf2Matrix) -> str:
    """Serialize a parity-check style matrix in alist format.

    First line is "cols rows". Index lists are 1-based and zero-padded to
    the maximum weight, matching the classic Gallager/MacKay layout.
    """
    # One walk over the rows yields both lists, lowest index first; the
    # bit length of the lowest set bit is its 1-based position. Each
    # index is formatted once, and the padding is ready-made "0"s.
    digits = list(map(str, range(max(mat.n_rows, mat.n_cols) + 1)))
    row_lists = []
    col_lists: list[list[str]] = [[] for _ in range(mat.n_cols)]
    for i, bits in enumerate(mat.rows, start=1):
        row = []
        while bits:
            low = bits & -bits
            j = low.bit_length()
            row.append(digits[j])
            col_lists[j - 1].append(digits[i])
            bits ^= low
        row_lists.append(row)
    mcw = max(map(len, col_lists), default=0)
    mrw = max(map(len, row_lists), default=0)
    lines = [
        f"{mat.n_cols} {mat.n_rows}",
        f"{mcw} {mrw}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    for lists, width in ((col_lists, mcw), (row_lists, mrw)):
        pad = ["0"] * width
        lines.extend(" ".join(x + pad[len(x) :]) for x in lists)
    return "\n".join(lines) + "\n"


def from_alist(text: str) -> Gf2Matrix:
    """Parse the text to_alist writes for some matrix, and nothing else.

    Reads the header and the column lists, rebuilds the matrix, and
    raises ValueError unless to_alist gives back the text exactly; that
    one comparison checks the degrees, the row lists and the padding.
    The token count is checked against the header before anything is
    allocated or indexed.
    """
    tokens = text.split()
    n, m, mcw, mrw = head = list(map(int, tokens[:4]))
    if min(head) < 0 or len(tokens) != 4 + n + m + n * mcw + m * mrw:
        raise ValueError("alist token count disagrees with its header")
    start = 4 + n + m
    cols = list(map(int, tokens[start : start + n * mcw]))
    if cols and (min(cols) < 0 or max(cols) > m):
        raise ValueError("alist row index out of range")
    rows = [0] * (m + 1)
    for j in range(n):
        bit = 1 << j
        for i in cols[j * mcw : (j + 1) * mcw]:
            if i:  # 0 pads the list
                rows[i] |= bit
    mat = Gf2Matrix(rows[1:], n)
    if to_alist(mat) != text:
        raise ValueError("not an alist in the form to_alist writes")
    return mat
