"""Chain maps, homotopy equivalences, and weight reduction.

Two chain complexes are treated as interchangeable codes when they are
homotopy equivalent through maps with small Lipschitz constants: the
equivalence transports minimum-distance bounds and decoders between
them. This module provides the equivalence algebra (chain maps,
homotopies, exact verification, Lipschitz measurement, composition and
transposition), the two elementary rewrites that generate equivalences
— combining the two edges meeting at a degree-2 vertex, and collapsing
an edge with two endpoints — and weight reduction (Hastings,
arXiv:1611.03790), which caps every bit and check degree of a classical
code at 3 and carries twisted circle bundles along with their base.

Weight reduction is a fixed splitting: every bit and check becomes one
copy per incidence, chained by auxiliary cells. Its equivalence is
written down in closed form from that layout — f collapses copies onto
originals, g opens each original into its copy chain, h pushes along
the auxiliary chains — and checked once with an exact verify(). For a
bundle the same base maps are lifted fiberwise in one pass, shifting an
entry by the twist of the Tanner edge it crosses, with one anchor turn
per connected component (see weight_reduce_bundle). The result equals,
matrix for matrix, the composite of one verified combine or collapse
per auxiliary cell, which tests/reduction_reference.py keeps as the
reference.

Conventions. A classical code is a 1-complex with checks as 0-cells and
bits as 1-cells. A degree-raising homotopy on a complex with top degree
k is stored as k+1 matrices, h[j] mapping degree j to degree j+1; the
entry at j = k has zero rows. Weight reduction returns equivalences
whose forward map runs from the reduced complex to the original, and
the reverse-then-forward composite on the original side is exactly the
identity, so the original code can be decoded through the reduced one
with a zero homotopy term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from fibercode.bundle import Bundle, PlainBase, build_bundle
from fibercode.complexes import ChainComplex, transpose_complex
from fibercode.gf2 import Gf2Matrix, from_alist, to_alist

__all__ = [
    "ChainMap",
    "HomotopyEquivalence",
    "combine_cells",
    "collapse_cell",
    "transpose_equivalence",
    "reverse_equivalence",
    "weight_reduce_classical",
    "weight_reduce_bundle",
    "save_equivalence",
    "load_equivalence",
]


@dataclass(frozen=True)
class ChainMap:
    """Degree-preserving map between complexes commuting with boundaries."""

    source: ChainComplex
    target: ChainComplex
    maps: tuple[Gf2Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))
        k = self.source.top_degree
        if self.target.top_degree != k:
            raise ValueError("source and target must share the top degree")
        if len(self.maps) != k + 1:
            raise ValueError("need one matrix per degree")
        for j, m in enumerate(self.maps):
            if m.shape != (self.target.dims[j], self.source.dims[j]):
                raise ValueError(
                    f"map at degree {j} has shape {m.shape}, expected "
                    f"{(self.target.dims[j], self.source.dims[j])}"
                )
        for j in range(1, k + 1):
            lhs = self.target.boundary(j) @ self.maps[j]
            rhs = self.maps[j - 1] @ self.source.boundary(j)
            if lhs != rhs:
                raise ValueError(f"not a chain map at degree {j}")

    @classmethod
    def identity(cls, cx: ChainComplex) -> "ChainMap":
        return cls(cx, cx, tuple(Gf2Matrix.identity(d) for d in cx.dims))

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        """Composition self(other(.)): other runs first."""
        if other.target != self.source:
            raise ValueError("composition endpoints do not meet")
        return ChainMap(
            other.source,
            self.target,
            tuple(a @ b for a, b in zip(self.maps, other.maps)),
        )

    def apply(self, j: int, chain):
        return self.maps[j].mul_chain(chain)

    def lipschitz(self) -> tuple[int, ...]:
        """Per-degree max image weight of a basis cell (max column weight)."""
        return tuple(m.max_col_weight() for m in self.maps)

    def transpose_lipschitz(self) -> tuple[int, ...]:
        """Lipschitz constants of the transposed map, degree-aligned."""
        return tuple(m.max_row_weight() for m in self.maps)


def _zero_homotopy(cx: ChainComplex) -> tuple[Gf2Matrix, ...]:
    k = cx.top_degree
    return tuple(
        Gf2Matrix.zeros(cx.dims[j + 1] if j < k else 0, cx.dims[j])
        for j in range(k + 1)
    )


@dataclass(frozen=True)
class HomotopyEquivalence:
    """Chain maps f: A -> B and g: B -> A inverse up to the homotopies.

    h_source[j]: A_j -> A_{j+1} witnesses gf + I = h d + d h on A and
    h_target does the same for fg on B. Shapes are enforced here; the
    defining identities are checked by verify(), which the rewrite
    constructors call before returning. An equivalence remembers that
    verify() passed, outside its value, and its reversal and
    transposition inherit that record.
    """

    f: ChainMap
    g: ChainMap
    h_source: tuple[Gf2Matrix, ...]
    h_target: tuple[Gf2Matrix, ...]
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_source", tuple(self.h_source))
        object.__setattr__(self, "h_target", tuple(self.h_target))
        a, b = self.f.source, self.f.target
        if self.g.source != b or self.g.target != a:
            raise ValueError("g must run opposite to f")
        for cx, h in ((a, self.h_source), (b, self.h_target)):
            k = cx.top_degree
            if len(h) != k + 1:
                raise ValueError("need one homotopy matrix per degree")
            for j, m in enumerate(h):
                want = (cx.dims[j + 1] if j < k else 0, cx.dims[j])
                if m.shape != want:
                    raise ValueError(
                        f"homotopy at degree {j} has shape {m.shape}, "
                        f"expected {want}"
                    )

    @classmethod
    def identity(cls, cx: ChainComplex) -> "HomotopyEquivalence":
        one = ChainMap.identity(cx)
        zero = _zero_homotopy(cx)
        return cls(one, one, zero, zero)

    def verify(self) -> bool:
        """All four defining identities, checked as exact matrix equations."""
        a, b = self.f.source, self.f.target
        for cm in (self.f, self.g):
            k = cm.source.top_degree
            for j in range(1, k + 1):
                if cm.target.boundary(j) @ cm.maps[j] != cm.maps[j - 1] @ cm.source.boundary(j):
                    return False
        ok = _homotopy_holds(a, self.g, self.f, self.h_source) and _homotopy_holds(
            b, self.f, self.g, self.h_target
        )
        object.__setattr__(self, "_verified", ok)
        return ok

    def _inheriting(self, other: "HomotopyEquivalence") -> "HomotopyEquivalence":
        """other, marked verified when self is: for the reversal and the
        transposition, whose identities are those of self."""
        object.__setattr__(other, "_verified", self._verified)
        return other

    def lipschitz_report(self) -> dict[str, tuple[int, ...]]:
        """Measured constants for f, g and their transposes, per degree."""
        return {
            "f": self.f.lipschitz(),
            "g": self.g.lipschitz(),
            "f_transpose": self.f.transpose_lipschitz(),
            "g_transpose": self.g.transpose_lipschitz(),
        }

    def compose(self, other: "HomotopyEquivalence") -> "HomotopyEquivalence":
        """Chain self: A <-> B with other: B <-> C into A <-> C."""
        if other.f.source != self.f.target:
            raise ValueError("composition endpoints do not meet")
        k = self.f.source.top_degree
        f = other.f @ self.f
        g = self.g @ other.g
        h_source = []
        for j in range(k + 1):
            m = self.h_source[j]
            if j < k:
                m = m + self.g.maps[j + 1] @ other.h_source[j] @ self.f.maps[j]
            h_source.append(m)
        h_target = []
        for j in range(k + 1):
            m = other.h_target[j]
            if j < k:
                m = m + other.f.maps[j + 1] @ self.h_target[j] @ other.g.maps[j]
            h_target.append(m)
        return HomotopyEquivalence(f, g, tuple(h_source), tuple(h_target))


def _homotopy_holds(
    cx: ChainComplex,
    outer: ChainMap,
    inner: ChainMap,
    h: tuple[Gf2Matrix, ...],
) -> bool:
    """outer(inner(.)) + I == boundary h + h boundary on cx, exactly."""
    for j in range(cx.top_degree + 1):
        lhs = outer.maps[j] @ inner.maps[j] + Gf2Matrix.identity(cx.dims[j])
        rhs = cx.boundary(j + 1) @ h[j]
        if j > 0:
            rhs = rhs + h[j - 1] @ cx.boundary(j)
        if lhs != rhs:
            return False
    return True


def transpose_equivalence(
    equiv: HomotopyEquivalence,
    source: ChainComplex | None = None,
    target: ChainComplex | None = None,
) -> HomotopyEquivalence:
    """Equivalence between the transposed complexes.

    Forward and reverse maps swap and transpose; each homotopy stays on
    its own side. Optional source/target supply existing complex objects
    (they must equal the computed transposes, else ValueError),
    preserving labels.
    """
    a, b = equiv.f.source, equiv.f.target
    ta, tb = transpose_complex(a), transpose_complex(b)
    if source not in (None, ta) or target not in (None, tb):
        raise ValueError("source and target must be the transposed complexes")
    ta = ta if source is None else source
    tb = tb if target is None else target
    k = a.top_degree

    def flip(h: tuple[Gf2Matrix, ...], cx: ChainComplex) -> tuple[Gf2Matrix, ...]:
        out = [h[k - 1 - j].transpose() for j in range(k)]
        out.append(Gf2Matrix.zeros(0, cx.dims[k]))
        return tuple(out)

    f = ChainMap(ta, tb, tuple(equiv.g.maps[k - j].transpose() for j in range(k + 1)))
    g = ChainMap(tb, ta, tuple(equiv.f.maps[k - j].transpose() for j in range(k + 1)))
    return equiv._inheriting(
        HomotopyEquivalence(f, g, flip(equiv.h_source, ta), flip(equiv.h_target, tb))
    )


def reverse_equivalence(equiv: HomotopyEquivalence) -> HomotopyEquivalence:
    """The same equivalence read in the other direction.

    Swapping the forward and reverse maps together with the two
    homotopies turns the four defining identities into each other, so
    the reversal of a valid equivalence is valid without recomputation.
    """
    return equiv._inheriting(
        HomotopyEquivalence(equiv.g, equiv.f, equiv.h_target, equiv.h_source)
    )


# -- elementary rewrites -------------------------------------------------------


def combine_cells(
    cx: ChainComplex, v: int
) -> tuple[ChainComplex, HomotopyEquivalence]:
    """Merge the two edges meeting at 0-cell v into one, removing v.

    The 0-cell must have exactly two 1-cells e1 < e2 in its coboundary.
    The merged edge keeps e1's slot and label; e2 and v disappear. The
    forward map sends e1 to the merged edge, e2 to zero, and v to the
    rest of e2's boundary; the reverse map opens the merged edge back up
    to e1 + e2; the homotopy pushes v along e2.
    """
    if cx.top_degree != 1:
        raise ValueError("cell combining works on 1-complexes")
    d1 = cx.boundary(1)
    n0, n1 = cx.dims
    if not 0 <= v < n0:
        raise ValueError(f"0-cell {v} out of range")
    cob = d1.row_support(v)
    if len(cob) != 2:
        raise ValueError(
            f"0-cell {v} has {len(cob)} coboundary cells, need exactly 2"
        )
    e1, e2 = cob

    keep0 = [a for a in range(n0) if a != v]
    keep1 = [e for e in range(n1) if e != e2]
    pos0 = {a: i for i, a in enumerate(keep0)}
    pos1 = {e: i for i, e in enumerate(keep1)}

    f0 = Gf2Matrix.from_col_support(
        [
            [pos0[x] for x in d1.col_support(e2) if x != v]
            if a == v
            else [pos0[a]]
            for a in range(n0)
        ],
        len(keep0),
    )
    f1 = Gf2Matrix.from_col_support(
        [[] if e == e2 else [pos1[e]] for e in range(n1)], len(keep1)
    )
    g0 = Gf2Matrix.from_col_support([[a] for a in keep0], n0)
    g1 = Gf2Matrix.from_col_support(
        [[e1, e2] if e == e1 else [e] for e in keep1], n1
    )
    h0 = Gf2Matrix.from_col_support(
        [[e2] if a == v else [] for a in range(n0)], n1
    )

    merged_boundary = f0 @ d1 @ g1
    labels = None
    if cx.labels is not None:
        labels = (
            tuple(cx.labels[0][a] for a in keep0),
            tuple(cx.labels[1][e] for e in keep1),
        )
    rewritten = ChainComplex((len(keep0), len(keep1)), (merged_boundary,), labels)

    equiv = HomotopyEquivalence(
        ChainMap(cx, rewritten, (f0, f1)),
        ChainMap(rewritten, cx, (g0, g1)),
        (h0, Gf2Matrix.zeros(0, n1)),
        _zero_homotopy(rewritten),
    )
    if not equiv.verify():
        raise RuntimeError("cell combine produced an invalid equivalence")
    return rewritten, equiv


def collapse_cell(
    cx: ChainComplex, e: int
) -> tuple[ChainComplex, HomotopyEquivalence]:
    """Contract 1-cell e, merging its two endpoint 0-cells.

    Dual of combine_cells: transpose the complex, combine at what is now
    a 0-cell, and transpose back. The merged 0-cell keeps the slot and
    label of the lower endpoint.
    """
    if cx.top_degree != 1:
        raise ValueError("cell collapsing works on 1-complexes")
    if not 0 <= e < cx.dims[1]:
        raise ValueError(f"1-cell {e} out of range")
    ends = cx.boundary(1).col_support(e)
    if len(ends) != 2:
        raise ValueError(
            f"1-cell {e} has {len(ends)} boundary cells, need exactly 2"
        )
    flipped, equiv_t = combine_cells(transpose_complex(cx), e)
    rewritten = transpose_complex(flipped)
    equiv = transpose_equivalence(equiv_t, source=cx, target=rewritten)
    if not equiv.verify():
        raise RuntimeError("cell collapse produced an invalid equivalence")
    return rewritten, equiv


# -- weight reduction ------------------------------------------------------------


@dataclass(frozen=True)
class _ReducedLayout:
    """The degree-reduced rewrite of a classical code, with cell indices.

    bit_checks[b] and check_bits[c] are the original incidences in
    ascending order. Reduced cells are keyed by their origin:
    bit_index[(b, c)] is b{b}.c{c}, check_index[(c, b)] is c{c}.b{b},
    aux_bit_index[(c, k)] is ab{c}.{k} and aux_check_index[(b, j)] is
    ac{b}.{j}.
    """

    complex: ChainComplex
    bit_checks: tuple[tuple[int, ...], ...]
    check_bits: tuple[tuple[int, ...], ...]
    bit_index: dict[tuple[int, int], int]
    check_index: dict[tuple[int, int], int]
    aux_bit_index: dict[tuple[int, int], int]
    aux_check_index: dict[tuple[int, int], int]


def _reduced_layout(cx: ChainComplex) -> _ReducedLayout:
    """The degree-reduced rewrite of a classical code.

    Every bit b becomes one copy per check it meets, chained by
    auxiliary equality checks; every check c becomes one copy per bit,
    chained by auxiliary carry bits. Copies are labeled b{b}.c{c} and
    c{c}.b{b}; auxiliaries ac{b}.{j} (checks) and ab{c}.{k} (bits).
    """
    if cx.top_degree != 1:
        raise ValueError("weight reduction works on 1-complexes")
    d1 = cx.boundary(1)
    n0, n1 = cx.dims
    bit_checks = tuple(d1.col_support(b) for b in range(n1))
    check_bits = tuple(d1.row_support(c) for c in range(n0))
    if any(not s for s in bit_checks) or any(not s for s in check_bits):
        raise ValueError(
            "weight reduction needs every bit in some check and every "
            "check over some bit"
        )

    bit_index: dict[tuple[int, int], int] = {}
    bit_labels: list[str] = []
    aux_bit_index: dict[tuple[int, int], int] = {}
    for b in range(n1):
        for c in bit_checks[b]:
            bit_index[(b, c)] = len(bit_labels)
            bit_labels.append(f"b{b}.c{c}")
    for c in range(n0):
        for k in range(1, len(check_bits[c])):
            aux_bit_index[(c, k)] = len(bit_labels)
            bit_labels.append(f"ab{c}.{k}")

    check_index: dict[tuple[int, int], int] = {}
    check_labels: list[str] = []
    aux_check_index: dict[tuple[int, int], int] = {}
    for c in range(n0):
        for b in check_bits[c]:
            check_index[(c, b)] = len(check_labels)
            check_labels.append(f"c{c}.b{b}")
    for b in range(n1):
        for j in range(1, len(bit_checks[b])):
            aux_check_index[(b, j)] = len(check_labels)
            check_labels.append(f"ac{b}.{j}")

    cols: list[list[int]] = []
    for b in range(n1):
        checks = bit_checks[b]
        for i, c in enumerate(checks, start=1):
            sup = [check_index[(c, b)]]
            if i > 1:
                sup.append(aux_check_index[(b, i - 1)])
            if i < len(checks):
                sup.append(aux_check_index[(b, i)])
            cols.append(sup)
    for c in range(n0):
        bits = check_bits[c]
        for k in range(1, len(bits)):
            cols.append([check_index[(c, bits[k - 1])], check_index[(c, bits[k])]])

    reduced = ChainComplex(
        (len(check_labels), len(bit_labels)),
        (Gf2Matrix.from_col_support(cols, len(check_labels)),),
        (tuple(check_labels), tuple(bit_labels)),
    )
    return _ReducedLayout(
        reduced,
        bit_checks,
        check_bits,
        bit_index,
        check_index,
        aux_bit_index,
        aux_check_index,
    )


# A map column as (row, edge) entries. edge is the Tanner edge (b, c)
# when the entry runs from bit b's frame (b{b}.*, ac{b}.*, bit b) into
# check c's frame (c{c}.*, ab{c}.*, check c), and None otherwise; a
# bundle lift shifts exactly those entries by the twist on the edge.
_Column = list[tuple[int, "tuple[int, int] | None"]]


def _closed_form(layout: _ReducedLayout) -> tuple[list[_Column], ...]:
    """Columns of f0, f1, g0, g1 and h0 for the reduction of layout.

    With c_0 < ... < c_{d-1} the checks of bit b, b_0 < ... < b_{e-1}
    the bits of check c, and carry(c, b_k) = ab{c}.1 + ... + ab{c}.k:

        f0: c{c}.b{b} -> c,  ac{b}.j -> c_j + ... + c_{d-1}
        f1: b{b}.c{c_0} -> b, every other reduced bit -> 0
        g0: c -> c{c}.b{b_0}
        g1: b -> open(b, 0)
        h0: c{c}.b{b} -> carry(c, b),  ac{b}.j -> open(b, j)

    where open(b, j) = sum over i >= j of b{b}.c{c_i} + carry(c_i, b).
    f is a left inverse of g, so h_target = 0 and h_source has h0 as
    its only nonzero degree.
    """
    bit_checks, check_bits = layout.bit_checks, layout.check_bits
    n_checks, n_bits = layout.complex.dims
    carry: dict[tuple[int, int], list[int]] = {}
    for c, bits in enumerate(check_bits):
        for k, b in enumerate(bits):
            carry[(c, b)] = [
                layout.aux_bit_index[(c, i)] for i in range(1, k + 1)
            ]

    def open_chain(b: int, j: int) -> _Column:
        tail = bit_checks[b][j:]
        return [(layout.bit_index[(b, c)], None) for c in tail] + [
            (a, (b, c)) for c in tail for a in carry[(c, b)]
        ]

    f0: list[_Column] = [[] for _ in range(n_checks)]
    h0: list[_Column] = [[] for _ in range(n_checks)]
    for (c, b), x in layout.check_index.items():
        f0[x] = [(c, None)]
        h0[x] = [(a, None) for a in carry[(c, b)]]
    for (b, j), x in layout.aux_check_index.items():
        f0[x] = [(c, (b, c)) for c in bit_checks[b][j:]]
        h0[x] = open_chain(b, j)
    f1: list[_Column] = [[] for _ in range(n_bits)]
    for b, checks in enumerate(bit_checks):
        f1[layout.bit_index[(b, checks[0])]] = [(b, None)]
    g0 = [
        [(layout.check_index[(c, bits[0])], None)]
        for c, bits in enumerate(check_bits)
    ]
    g1 = [open_chain(b, 0) for b in range(len(bit_checks))]
    return f0, f1, g0, g1, h0


def _support(cols: list[_Column], n_rows: int) -> Gf2Matrix:
    return Gf2Matrix.from_col_support(
        [[y for y, _ in col] for col in cols], n_rows
    )


def weight_reduce_classical(code) -> tuple[ChainComplex, HomotopyEquivalence]:
    """Cap every bit and check degree at 3.

    Degrees land exactly in {2, 3} whenever every original bit and check
    touches at least two cells; a degree-1 original keeps one degree-1
    image (splitting never raises a cell's degree). Accepts a classical
    base code (anything with as_complex()) or a 1-complex. Returns the
    reduced complex and a verified equivalence whose forward map runs
    reduced -> original with the reverse-forward composite on the
    original side exactly the identity. The maps are the closed form of
    _closed_form: f collapses copies onto originals, g opens each
    original into its copy chain, h pushes along the auxiliary chains.
    """
    cx = code.as_complex() if hasattr(code, "as_complex") else code
    layout = _reduced_layout(cx)
    reduced = layout.complex
    (n0, n1), (r0, r1) = cx.dims, reduced.dims
    f0, f1, g0, g1, h0 = _closed_form(layout)
    equiv = HomotopyEquivalence(
        ChainMap(reduced, cx, (_support(f0, n0), _support(f1, n1))),
        ChainMap(cx, reduced, (_support(g0, r0), _support(g1, r1))),
        (_support(h0, r1), Gf2Matrix.zeros(0, r1)),
        _zero_homotopy(cx),
    )
    if not equiv.verify():
        raise RuntimeError("classical homotopy equivalence failed verification")
    return reduced, equiv


def _anchor_turns(
    layout: _ReducedLayout, twist_of: dict[tuple[int, int], int]
) -> tuple[list[int], list[int]]:
    """Anchor turn of each original bit and check (see weight_reduce_bundle)."""
    bit_checks, check_bits = layout.bit_checks, layout.check_bits
    turn_bit: list[int | None] = [None] * len(bit_checks)
    turn_check: list[int | None] = [None] * len(check_bits)
    for root in range(len(bit_checks)):
        if turn_bit[root] is not None:
            continue
        turn = 0
        if len(bit_checks[root]) == 1:
            c = bit_checks[root][0]
            if len(check_bits[c]) >= 2:
                turn = twist_of.get((root, c), 0)
        turn_bit[root] = turn
        queue = [root]
        while queue:
            for c in bit_checks[queue.pop()]:
                if turn_check[c] is None:
                    turn_check[c] = turn
                    for b in check_bits[c]:
                        if turn_bit[b] is None:
                            turn_bit[b] = turn
                            queue.append(b)
    return turn_bit, turn_check


def _lift(
    blocks: list[tuple[list[list[tuple[int, int]]], int]], n_rows: int, mf: int
) -> Gf2Matrix:
    """A map over fiber cells from blocks of base columns.

    Each block holds columns of (row, shift) entries and a row offset;
    entry x -> (y, s) becomes (x, u) -> (offset + y, u + s) for every
    fiber position u. Blocks stack their columns in order.
    """
    cols = []
    for block, offset in blocks:
        for col in block:
            for u in range(mf):
                cols.append([(offset + y) * mf + (u + s) % mf for y, s in col])
    return Gf2Matrix.from_col_support(cols, n_rows * mf)


def weight_reduce_bundle(bundle: Bundle) -> tuple[Bundle, HomotopyEquivalence]:
    """Bundle over the degree-reduced base, with a verified equivalence.

    The reduced base carries each original twist on the edge between the
    matching bit and check copies and zero twists elsewhere. The
    equivalence is the classical closed form (_closed_form) lifted
    fiberwise in one pass: a base entry x -> y maps fiber position u to
    u + t(b, c) when it runs from bit b's frame into check c's frame,
    and to u otherwise. Checks and vertical cells follow f0, g0 and h0;
    horizontal and degree-2 cells follow f1 and g1.

    Anchor rule. Rotating every fiber over one connected component of
    the base is an automorphism of the original bundle, so the
    equivalence is fixed only up to such turns. The one returned turns
    each component by an amount read off its lowest-index bit, root:
    t(root, c) when root has degree 1 and its check c has at least two
    bits, else 0. f adds the turn on original-side targets and g
    subtracts it on original-side sources. This reproduces the step-by-step rewrite
    construction (tests/reduction_reference.py) matrix for matrix, so
    saved equivalences and reported Lipschitz constants stay the same.
    """
    layout = _reduced_layout(bundle.base_complex)
    mf = bundle.m_fiber
    twist_of = bundle.twist_of

    reduced_twists = {}
    for (b, a), t in twist_of.items():
        if t % mf:
            reduced_twists[
                (layout.bit_index[(b, a)], layout.check_index[(a, b)])
            ] = t % mf
    built = build_bundle(PlainBase.from_complex(layout.complex), mf, reduced_twists)
    reduced = Bundle(
        base_code=built.base_code,
        m_fiber=mf,
        twists=built.twists,
        complex=built.complex,
        ell=bundle.ell,
    )

    turn_bit, turn_check = _anchor_turns(layout, twist_of)
    no_turn = [0] * max(layout.complex.dims)  # reduced dims bound every index

    def shifted(cols: list[_Column], row_turn=no_turn, col_turn=no_turn):
        return [
            [
                (y, (twist_of.get(e, 0) if e else 0) + row_turn[y] - col_turn[x])
                for y, e in col
            ]
            for x, col in enumerate(cols)
        ]

    f0, f1, g0, g1, h0 = _closed_form(layout)
    f0, f1 = shifted(f0, row_turn=turn_check), shifted(f1, row_turn=turn_bit)
    g0, g1 = shifted(g0, col_turn=turn_check), shifted(g1, col_turn=turn_bit)
    h0 = shifted(h0)
    n0, n1 = bundle.n_checks, bundle.n_vars
    r0, r1 = layout.complex.dims
    equiv = HomotopyEquivalence(
        ChainMap(
            reduced.complex,
            bundle.complex,
            (
                _lift([(f0, 0)], n0, mf),
                _lift([(f1, 0), (f0, n1)], n1 + n0, mf),
                _lift([(f1, 0)], n1, mf),
            ),
        ),
        ChainMap(
            bundle.complex,
            reduced.complex,
            (
                _lift([(g0, 0)], r0, mf),
                _lift([(g1, 0), (g0, r1)], r1 + r0, mf),
                _lift([(g1, 0)], r1, mf),
            ),
        ),
        (
            _lift([(h0, 0)], r1 + r0, mf),
            _lift([([[]] * r1, 0), (h0, 0)], r1, mf),
            Gf2Matrix.zeros(0, r1 * mf),
        ),
        _zero_homotopy(bundle.complex),
    )
    if not equiv.verify():
        raise RuntimeError("bundle homotopy equivalence failed verification")
    return reduced, equiv


# -- serialization ---------------------------------------------------------------


def _alist_names(source_dims: list[int], target_dims: list[int]) -> dict[str, list[str]]:
    """The alist file of each saved matrix, by tag: one per degree for f,
    g and the two homotopies, one per positive degree for the
    boundaries."""
    counts = {
        "f": len(source_dims),
        "g": len(target_dims),
        "h_source": len(source_dims),
        "h_target": len(target_dims),
        "source_boundary": len(source_dims) - 1,
        "target_boundary": len(target_dims) - 1,
    }
    return {tag: [f"{tag}{j}.alist" for j in range(n)] for tag, n in counts.items()}


def _manifest_text(source_dims: list[int], target_dims: list[int]) -> str:
    """The manifest save_equivalence writes and load_equivalence expects."""
    manifest = {
        "source_dims": source_dims,
        "target_dims": target_dims,
        "files": _alist_names(source_dims, target_dims),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def save_equivalence(equiv: HomotopyEquivalence, directory: str | Path) -> Path:
    """Write an equivalence as alist matrices plus a manifest, byte for
    byte as load_equivalence reads them back."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    source_dims, target_dims = list(equiv.f.source.dims), list(equiv.f.target.dims)
    names = _alist_names(source_dims, target_dims)
    for tag, matrices in (
        ("f", equiv.f.maps),
        ("g", equiv.g.maps),
        ("h_source", equiv.h_source),
        ("h_target", equiv.h_target),
        ("source_boundary", equiv.f.source.boundaries),
        ("target_boundary", equiv.f.target.boundaries),
    ):
        for name, mat in zip(names[tag], matrices, strict=True):
            (directory / name).write_bytes(to_alist(mat).encode())
    path = directory / "manifest.json"
    path.write_bytes(_manifest_text(source_dims, target_dims).encode())
    return path


def load_equivalence(directory: str | Path) -> HomotopyEquivalence:
    """Read back a saved equivalence and verify it before returning.

    The manifest must be the text save_equivalence writes for its two
    dims lists, and each dims entry a nonnegative int; the alist file
    names follow from the dims and are never read from the manifest.
    Any other manifest, or a failed verification, raises ValueError.
    """
    directory = Path(directory)
    # Bytes, not read_text: newline translation would accept CRLF files.
    text = (directory / "manifest.json").read_bytes().decode()
    manifest = json.loads(text)

    def dims(key: str) -> list[int]:
        value = manifest.get(key) if isinstance(manifest, dict) else None
        if not isinstance(value, list) or any(
            type(d) is not int or d < 0 for d in value
        ):
            raise ValueError(f"manifest {key} must be a list of cell counts")
        return value

    source_dims, target_dims = dims("source_dims"), dims("target_dims")
    if _manifest_text(source_dims, target_dims) != text:
        raise ValueError("not a manifest in the form save_equivalence writes")

    names = _alist_names(source_dims, target_dims)

    def grab(tag: str) -> tuple[Gf2Matrix, ...]:
        return tuple(
            from_alist((directory / name).read_bytes().decode()) for name in names[tag]
        )

    source = ChainComplex(source_dims, grab("source_boundary"))
    target = ChainComplex(target_dims, grab("target_boundary"))
    equiv = HomotopyEquivalence(
        ChainMap(source, target, grab("f")),
        ChainMap(target, source, grab("g")),
        grab("h_source"),
        grab("h_target"),
    )
    if not equiv.verify():
        raise ValueError("stored equivalence fails verification")
    return equiv
