"""Circle bundles over classical Tanner graph bases.

The total complex has three degrees. Writing n for the number of base
variables (1-cells), m for the number of base checks (0-cells) and m_F
for the fiber length:

    degree 2: n * m_F cells, one per (variable, fiber 1-cell);
    degree 1: horizontal cells (variable, fiber 0-cell) followed by
              vertical cells (check, fiber 1-cell);
    degree 0: m * m_F cells, one per (check, fiber 0-cell).

Each Tanner edge (b, a) carries a twist in Z_{m_F}: the horizontal cell
over b at fiber position u attaches to the fiber over a at position
u + twist(b, a). Boundaries:

    d1 h(b, u) = sum_{a in checks(b)} c(a, u + twist(b, a))
    d1 v(a, i) = c(a, i) + c(a, i + 1)
    d2 q(b, i) = h(b, i) + h(b, i + 1)
                 + sum_{a in checks(b)} v(a, i + twist(b, a))

The module also provides the projection onto the base, integration along
the fiber, (co)homology lifts, a report on when the projection induces a
degree-1 (co)homology isomorphism, gauge changes of the twists, and the
sliding normalization that moves every horizontal cell of a cycle to a
fiber position divisible by the twist modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fibercode.base import PartitionedBaseCode
from fibercode.complexes import ChainComplex, CssCode, css_from_complex
from fibercode.gf2 import BitChain, Gf2Matrix
from fibercode.twists import TwistAssignment, TwistGraph, assign_twists

__all__ = [
    "Bundle",
    "H1IsoReport",
    "PlainBase",
    "SlideResult",
    "cycle_base",
    "build_bundle",
    "build_fiber_bundle_code",
    "fiber_boundary",
    "projection_maps",
    "fiber_integration_maps",
    "cohomology_lift",
    "homology_lift",
    "cohomology_lift_basis",
    "homology_lift_basis",
    "verify_h1_iso",
    "gauge_transform",
    "slide_normalize",
]


@dataclass(frozen=True)
class PlainBase:
    """Classical base given by its Tanner graph alone, with no type
    partition. Check a reads the variables in adjacency[a]. Sufficient
    for building bundles over arbitrary 1-complexes, e.g. weight-reduced
    bases whose checks carry no head/tail structure."""

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[str, ...], tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.m:
            raise ValueError("one adjacency row per check")
        for row in self.adjacency:
            if any(not 0 <= b < self.n for b in row):
                raise ValueError("adjacency entry out of range")
            if list(row) != sorted(set(row)):
                raise ValueError("adjacency rows must be sorted and distinct")
        if self.labels is not None and (
            len(self.labels[0]) != self.m or len(self.labels[1]) != self.n
        ):
            raise ValueError("labels must cover every check and variable")

    @classmethod
    def from_complex(cls, cx: ChainComplex) -> "PlainBase":
        if cx.top_degree != 1:
            raise ValueError("a classical base is a 1-complex")
        d1 = cx.boundary(1)
        return cls(
            n=cx.dims[1],
            m=cx.dims[0],
            adjacency=tuple(d1.row_support(a) for a in range(cx.dims[0])),
            labels=cx.labels,
        )

    def matrix(self) -> Gf2Matrix:
        return Gf2Matrix.from_row_support(
            [row for row in self.adjacency], self.n
        )

    def as_complex(self) -> ChainComplex:
        labels = self.labels
        if labels is None:
            labels = (
                tuple(f"c{a}" for a in range(self.m)),
                tuple(f"b{j}" for j in range(self.n)),
            )
        return ChainComplex((self.m, self.n), (self.matrix(),), labels)


def cycle_base(length: int) -> PartitionedBaseCode:
    """The circle as a base: check a reads variables a and a + 1."""
    if length < 2:
        raise ValueError("a cycle needs at least two cells")
    adjacency = tuple(
        tuple(sorted((a, (a + 1) % length))) for a in range(length)
    )
    return PartitionedBaseCode(
        n=length,
        delta=2,
        k_types=1,
        seed=0,
        adjacency=adjacency,
        heads=tuple((a,) for a in range(length)),
        tails=tuple(((a + 1) % length,) for a in range(length)),
    )


def fiber_boundary(m_fiber: int) -> Gf2Matrix:
    """Boundary matrix of the length-m_fiber cycle fiber."""
    cols = [(i, (i + 1) % m_fiber) for i in range(m_fiber)]
    return Gf2Matrix.from_col_support(cols, m_fiber)


@dataclass(frozen=True)
class Bundle:
    base_code: PartitionedBaseCode | PlainBase
    m_fiber: int
    twists: tuple[tuple[tuple[int, int], int], ...]
    complex: ChainComplex
    ell: int | None = None

    @property
    def n_vars(self) -> int:
        return self.base_code.n

    @property
    def n_checks(self) -> int:
        return self.base_code.m

    @cached_property
    def base_complex(self) -> ChainComplex:
        return self.base_code.as_complex()

    @cached_property
    def twist_of(self) -> dict[tuple[int, int], int]:
        return dict(self.twists)

    @cached_property
    def var_checks(self) -> tuple[tuple[int, ...], ...]:
        found: list[list[int]] = [[] for _ in range(self.n_vars)]
        for a, row in enumerate(self.base_code.adjacency):
            for b in row:
                found[b].append(a)
        return tuple(tuple(cs) for cs in found)

    @cached_property
    def max_star(self) -> int:
        """The most 1-cells whose boundary meets one 0-cell."""
        return self.complex.boundary(1).max_row_weight()

    @cached_property
    def edge_legs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (legs, incidence) over the Tanner edges e = (b, a),
        in check order: legs[e, u] is the 0-cell that h(b, u) meets over
        a, and incidence[b, e] is 1.0 when e leaves variable b. Floats
        send sums over edges through BLAS; they are small integers,
        hence exact."""
        edges = [
            (b, a) for a, row in enumerate(self.base_code.adjacency) for b in row
        ]
        var, check = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        shift = np.array([self.twist_of.get(e, 0) for e in edges], dtype=np.intp)
        legs = self.c0_cell(check[:, None], shift[:, None] + np.arange(self.m_fiber))
        incidence = (np.arange(self.n_vars)[:, None] == var) * 1.0
        legs.flags.writeable = False
        incidence.flags.writeable = False
        return legs, incidence

    # -- cell indexing --------------------------------------------------------

    def h_cell(self, var: int, pos: int) -> int:
        return var * self.m_fiber + pos % self.m_fiber

    def v_cell(self, check: int, pos: int) -> int:
        return (self.n_vars + check) * self.m_fiber + pos % self.m_fiber

    def c0_cell(self, check: int, pos: int) -> int:
        return check * self.m_fiber + pos % self.m_fiber

    def c2_cell(self, var: int, pos: int) -> int:
        return var * self.m_fiber + pos % self.m_fiber

    def cell1_info(self, index: int) -> tuple[str, int, int]:
        """Kind tag plus (base cell, fiber position) of a 1-cell index."""
        cut = self.n_vars * self.m_fiber
        if index < cut:
            return "h", index // self.m_fiber, index % self.m_fiber
        rest = index - cut
        return "v", rest // self.m_fiber, rest % self.m_fiber

    def css_code(self) -> CssCode:
        return css_from_complex(self.complex, 1)


def build_bundle(
    code: PartitionedBaseCode | PlainBase,
    m_fiber: int,
    twists: TwistAssignment | dict[tuple[int, int], int] | None = None,
) -> Bundle:
    """Assemble the total complex; twists default to zero everywhere."""
    if m_fiber < 1:
        raise ValueError("fiber must have at least one cell")
    ell = None
    if isinstance(twists, TwistAssignment):
        ell = twists.ell
        twists = twists.as_dict()
    twists = dict(twists or {})
    # Each adjacency entry is its own base 1-cell, so a repeat would
    # build a double edge that the base matrix cancels.
    for a, row in enumerate(code.adjacency):
        if row and (row[0] < 0 or row[-1] >= code.n) or any(
            x >= y for x, y in zip(row, row[1:])
        ):
            raise ValueError(
                f"check {a}: variables must be strictly ascending in 0..n-1"
            )

    edges = {
        (b, a) for a, row in enumerate(code.adjacency) for b in row
    }
    for (b, a), t in twists.items():
        if (b, a) not in edges:
            raise ValueError(f"twist on ({b}, {a}) which is not a Tanner edge")
        if not 0 <= t < m_fiber:
            raise ValueError(f"twist {t} outside the fiber")
    # Canonical sparse form: only nonzero twists are stored, so bundles
    # built through different routes compare equal edge for edge.
    twists = {edge: t for edge, t in twists.items() if t}

    n, m, mf = code.n, code.m, m_fiber
    var_checks: list[list[int]] = [[] for _ in range(n)]
    for a, row in enumerate(code.adjacency):
        for b in row:
            var_checks[b].append(a)

    def tw(b: int, a: int) -> int:
        return twists.get((b, a), 0)

    cols1: list[list[int]] = []
    for b in range(n):
        for u in range(mf):
            cols1.append(
                [a * mf + (u + tw(b, a)) % mf for a in var_checks[b]]
            )
    for a in range(m):
        for i in range(mf):
            cols1.append([a * mf + i, a * mf + (i + 1) % mf])
    d1 = Gf2Matrix.from_col_support(cols1, m * mf)

    cols2: list[list[int]] = []
    for b in range(n):
        for i in range(mf):
            col = [b * mf + i, b * mf + (i + 1) % mf]
            col += [
                n * mf + a * mf + (i + tw(b, a)) % mf for a in var_checks[b]
            ]
            cols2.append(col)
    d2 = Gf2Matrix.from_col_support(cols2, (n + m) * mf)

    labels = (
        tuple(f"c{a}.{u}" for a in range(m) for u in range(mf)),
        tuple(f"h{b}.{u}" for b in range(n) for u in range(mf))
        + tuple(f"v{a}.{i}" for a in range(m) for i in range(mf)),
        tuple(f"q{b}.{i}" for b in range(n) for i in range(mf)),
    )
    cx = ChainComplex((m * mf, (n + m) * mf, n * mf), (d1, d2), labels)
    cx.validate()
    return Bundle(
        base_code=code,
        m_fiber=mf,
        twists=tuple(sorted(twists.items())),
        complex=cx,
        ell=ell,
    )


def build_fiber_bundle_code(
    code: PartitionedBaseCode, graph: TwistGraph
) -> Bundle:
    """The quantum construction: fiber of length ell^2, twisted per type."""
    return build_bundle(code, graph.ell**2, assign_twists(code, graph))


# -- projection and integration ------------------------------------------------


def projection_maps(bundle: Bundle) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(P0, P1): collapse the fiber, keeping fiber-degree-0 cells only.

    P0 sends c(a, u) to a; P1 sends h(b, u) to b and kills vertical cells.
    They intertwine the boundaries: P0 d1 = d_base P1 and P1 d2 = 0.
    """
    mf = bundle.m_fiber
    cols0 = [[i // mf] for i in range(bundle.n_checks * mf)]
    p0 = Gf2Matrix.from_col_support(cols0, bundle.n_checks)
    cols1: list[list[int]] = [
        [i // mf] for i in range(bundle.n_vars * mf)
    ] + [[] for _ in range(bundle.n_checks * mf)]
    p1 = Gf2Matrix.from_col_support(cols1, bundle.n_vars)
    return p0, p1


def fiber_integration_maps(bundle: Bundle) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(K1, K2): keep fiber-degree-1 cells, remembering the base cell.

    K1 sends v(a, i) to a and kills horizontal cells; K2 sends q(b, i)
    to b. They satisfy K1 d2 = d_base K2, a chain map dropping the degree.
    """
    mf = bundle.m_fiber
    cols1: list[list[int]] = [[] for _ in range(bundle.n_vars * mf)] + [
        [i // mf] for i in range(bundle.n_checks * mf)
    ]
    k1 = Gf2Matrix.from_col_support(cols1, bundle.n_checks)
    cols2 = [[i // mf] for i in range(bundle.n_vars * mf)]
    k2 = Gf2Matrix.from_col_support(cols2, bundle.n_vars)
    return k1, k2


# -- lifts ---------------------------------------------------------------------


def cohomology_lift(bundle: Bundle, base_cochain: BitChain) -> BitChain:
    """Pull a base 1-cochain back: every fiber position over each cell."""
    if base_cochain.length != bundle.n_vars:
        raise ValueError("cochain length is not the base variable count")
    bits = 0
    block = (1 << bundle.m_fiber) - 1
    for b in base_cochain.iter_support():
        bits |= block << b * bundle.m_fiber
    return BitChain(bundle.complex.dims[1], bits)


def homology_lift(bundle: Bundle, base_cycle: BitChain) -> BitChain:
    """Place the cycle at fiber position 0 and cap the twist mismatches.

    Over each base check the horizontal boundary lands on an even set of
    fiber positions; the cap is the lighter of the two fiber arcs with
    that boundary, preferring the arc that leaves the lowest mismatch
    upward when both have equal weight.
    """
    if base_cycle.length != bundle.n_vars:
        raise ValueError("cycle length is not the base variable count")
    if not bundle.base_complex.is_cycle(1, base_cycle):
        raise ValueError("not a cycle of the base")
    mf = bundle.m_fiber
    bits = 0
    defects: dict[int, set[int]] = {}
    for b in base_cycle.iter_support():
        bits |= 1 << bundle.h_cell(b, 0)
        for a in bundle.var_checks[b]:
            pos = bundle.twist_of.get((b, a), 0) % mf
            defects.setdefault(a, set()).symmetric_difference_update({pos})
    for a in sorted(defects):
        spots = defects[a]
        if not spots:
            continue
        parity = 0
        arc = []
        for i in range(mf):
            if i in spots:
                parity ^= 1
            if parity:
                arc.append(i)
        if 2 * len(arc) > mf:
            arc = [i for i in range(mf) if i not in set(arc)]
        for i in arc:
            bits |= 1 << bundle.v_cell(a, i)
    return BitChain(bundle.complex.dims[1], bits)


def cohomology_lift_basis(bundle: Bundle) -> list[BitChain]:
    return [
        cohomology_lift(bundle, z)
        for z in bundle.base_complex.cohomology_basis(1)
    ]


def homology_lift_basis(bundle: Bundle) -> list[BitChain]:
    return [
        homology_lift(bundle, c)
        for c in bundle.base_complex.homology_basis(1)
    ]


# -- the degree-1 isomorphism report -------------------------------------------


@dataclass(frozen=True)
class H1IsoReport:
    """Checks under which the projection identifies degree-1 (co)homology."""

    base_is_graph: bool
    fiber_boundaries_even: bool
    fiber_even_chains_bound: bool
    base_zeroth_homology_trivial: bool
    twists_fix_fiber_cycles: bool
    b1_base: int
    b1_bundle: int
    projection_rank: int

    @property
    def isomorphism_holds(self) -> bool:
        return (
            self.base_is_graph
            and self.fiber_boundaries_even
            and self.fiber_even_chains_bound
            and self.base_zeroth_homology_trivial
            and self.twists_fix_fiber_cycles
            and self.b1_base == self.b1_bundle
            and self.projection_rank == self.b1_base
        )

    def as_dict(self) -> dict:
        return {
            "base_is_graph": self.base_is_graph,
            "fiber_boundaries_even": self.fiber_boundaries_even,
            "fiber_even_chains_bound": self.fiber_even_chains_bound,
            "base_zeroth_homology_trivial": self.base_zeroth_homology_trivial,
            "twists_fix_fiber_cycles": self.twists_fix_fiber_cycles,
            "b1_base": self.b1_base,
            "b1_bundle": self.b1_bundle,
            "projection_rank": self.projection_rank,
            "isomorphism_holds": self.isomorphism_holds,
        }


def verify_h1_iso(bundle: Bundle) -> H1IsoReport:
    mf = bundle.m_fiber
    fiber = fiber_boundary(mf)
    boundaries_even = all(
        sum(row >> j & 1 for row in fiber.rows) % 2 == 0
        for j in range(mf)
    )
    # Even chains are exactly the boundaries when the image has full
    # even-subspace rank.
    even_chains_bound = boundaries_even and fiber.rank() == mf - 1

    used = sorted({t % mf for _, t in bundle.twists})
    fiber_cycles = fiber.kernel_basis()
    rotations_fix = all(
        BitChain.from_support(mf, [(i + t) % mf for i in s.iter_support()])
        == s
        for t in used
        for s in fiber_cycles
    )

    base_cx = bundle.base_complex
    b1_base = base_cx.betti(1)
    b1_bundle = bundle.complex.betti(1)

    _, p1 = projection_maps(bundle)
    projected = [p1.mul_bits(z.bits) for z in bundle.complex.homology_basis(1)]
    projection_rank = Gf2Matrix(projected, bundle.n_vars).rank()

    return H1IsoReport(
        base_is_graph=base_cx.top_degree == 1,
        fiber_boundaries_even=boundaries_even,
        fiber_even_chains_bound=even_chains_bound,
        base_zeroth_homology_trivial=base_cx.betti(0) == 0,
        twists_fix_fiber_cycles=rotations_fix,
        b1_base=b1_base,
        b1_bundle=b1_bundle,
        projection_rank=projection_rank,
    )


# -- gauge changes -------------------------------------------------------------


def gauge_transform(
    bundle: Bundle,
    rho_vars: list[int],
    rho_checks: list[int],
) -> tuple[Bundle, tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]]:
    """Rotate each fiber independently: twist'(b, a) = twist + rho_a - rho_b.

    Returns the regauged bundle and the cell permutations (U0, U1, U2)
    intertwining the boundaries: U d = d' U. Horizontal and degree-2
    cells rotate by rho of their variable, the rest by rho of their check.
    """
    if len(rho_vars) != bundle.n_vars or len(rho_checks) != bundle.n_checks:
        raise ValueError("one rotation per base cell")
    mf = bundle.m_fiber
    # Every Tanner edge rotates, including those with implicit zero twist.
    new_twists = {
        (b, a): (bundle.twist_of.get((b, a), 0) + rho_checks[a] - rho_vars[b]) % mf
        for a, row in enumerate(bundle.base_code.adjacency)
        for b in row
    }
    new_ell = bundle.ell
    if new_ell is not None and any(
        t % new_ell for t in new_twists.values()
    ):
        new_ell = None
    regauged = build_bundle(bundle.base_code, mf, new_twists)
    regauged = Bundle(
        base_code=regauged.base_code,
        m_fiber=mf,
        twists=regauged.twists,
        complex=regauged.complex,
        ell=new_ell,
    )

    cols0 = [
        [bundle.c0_cell(a, u + rho_checks[a])]
        for a in range(bundle.n_checks)
        for u in range(mf)
    ]
    u0 = Gf2Matrix.from_col_support(cols0, bundle.n_checks * mf)
    cols1 = [
        [bundle.h_cell(b, u + rho_vars[b])]
        for b in range(bundle.n_vars)
        for u in range(mf)
    ] + [
        [bundle.v_cell(a, i + rho_checks[a])]
        for a in range(bundle.n_checks)
        for i in range(mf)
    ]
    u1 = Gf2Matrix.from_col_support(cols1, (bundle.n_vars + bundle.n_checks) * mf)
    cols2 = [
        [bundle.c2_cell(b, i + rho_vars[b])]
        for b in range(bundle.n_vars)
        for i in range(mf)
    ]
    u2 = Gf2Matrix.from_col_support(cols2, bundle.n_vars * mf)
    return regauged, (u0, u1, u2)


# -- sliding -------------------------------------------------------------------


@dataclass(frozen=True)
class SlideResult:
    chain: BitChain
    two_chain: BitChain
    steps: int


def _boundary_two_cell(bundle: Bundle, b: int, i: int) -> int:
    bits = (1 << bundle.h_cell(b, i)) | (1 << bundle.h_cell(b, i + 1))
    for a in bundle.var_checks[b]:
        bits |= 1 << bundle.v_cell(a, i + bundle.twist_of.get((b, a), 0))
    return bits


def slide_normalize(
    bundle: Bundle,
    cycle: BitChain,
    modulus: int | None = None,
    max_steps: int | None = None,
) -> SlideResult:
    """Move every horizontal cell of a 1-cycle to fiber position 0 mod ell.

    Clusters of horizontal cells with overlapping boundaries slide one
    fiber step at a time, toward the side where more of the attached
    vertical strings pull (downward on a tie), each step recorded as a
    2-chain so the result stays homologous. The weight never increases.
    Twists must be multiples of the modulus, which makes linked cells
    share a residue; that invariant is asserted.
    """
    modulus = modulus if modulus is not None else bundle.ell
    if modulus is None:
        raise ValueError("no twist modulus to normalize against")
    if any(t % modulus for _, t in bundle.twists):
        raise ValueError("twists are not multiples of the modulus")
    if not bundle.complex.is_cycle(1, cycle):
        raise ValueError("can only slide a closed chain")

    mf = bundle.m_fiber
    r = cycle.bits
    acc = 0
    steps = 0
    cap = (
        max_steps
        if max_steps is not None
        else cycle.weight() * (mf + 1) + 16
    )
    n_h = bundle.n_vars * mf

    while True:
        horiz = [
            (i // mf, i % mf)
            for i in BitChain(n_h, r & ((1 << n_h) - 1)).iter_support()
        ]
        offending = [(b, p) for b, p in horiz if p % modulus]
        if not offending:
            break
        if steps >= cap:
            raise RuntimeError(f"sliding did not settle in {cap} steps")

        # Cluster the horizontal cells through shared boundary 0-cells.
        owner: dict[tuple[int, int], int] = {}
        parent = list(range(len(horiz)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx, (b, p) in enumerate(horiz):
            for a in bundle.var_checks[b]:
                key = (a, (p + bundle.twist_of.get((b, a), 0)) % mf)
                if key in owner:
                    ra, rb = find(owner[key]), find(idx)
                    parent[ra] = rb
                else:
                    owner[key] = idx
        first = min(
            idx for idx, cell in enumerate(horiz) if cell in offending
        )
        root = find(first)
        cluster = [cell for idx, cell in enumerate(horiz) if find(idx) == root]
        residues = {p % modulus for _, p in cluster}
        assert len(residues) == 1, "linked cells must share a fiber residue"

        # Boundary mismatches of the cluster and which way they pull.
        defects: set[tuple[int, int]] = set()
        for b, p in cluster:
            for a in bundle.var_checks[b]:
                key = (a, (p + bundle.twist_of.get((b, a), 0)) % mf)
                defects.symmetric_difference_update({key})
        pull = 0
        for a, i in defects:
            up = r >> bundle.v_cell(a, i) & 1
            down = r >> bundle.v_cell(a, i - 1) & 1
            assert up != down, "each mismatch is held by exactly one string"
            pull += -1 if up else 1
        direction = 1 if pull < 0 else -1

        two_chain = 0
        for b, p in cluster:
            two_chain |= 1 << bundle.c2_cell(
                b, p if direction == 1 else p - 1
            )
        for j in BitChain(bundle.n_vars * mf, two_chain).iter_support():
            r ^= _boundary_two_cell(bundle, j // mf, j % mf)
        acc ^= two_chain
        steps += 1

    return SlideResult(
        chain=BitChain(cycle.length, r),
        two_chain=BitChain(bundle.complex.dims[2], acc),
        steps=steps,
    )
