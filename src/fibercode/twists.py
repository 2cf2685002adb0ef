"""Circulant twist graphs, their spectral certification, and twist codes.

A twist graph on Z_ell assigns one shift per check type. The undirected
graph with connection multiset {+-s_tau} is 2k-regular; its normalized
adjacency spectrum has the closed form

    lambda_j = (1/k) sum_tau cos(2 pi j s_tau / ell),    j = 0..ell-1

and the expansion figure kappa is max_{j != 0} |lambda_j|. The closed form
is the primary route; a dense eigensolver cross-check is kept separate so
the two never collapse into one computation.

The twist code interleaves ell copies of a partitioned base code along the
directed edges of the twist graph. Its single-check violation probability
has an exact product form used to validate the sampler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from fibercode.base import PartitionedBaseCode
from fibercode.gf2 import BitChain, Gf2Matrix

__all__ = [
    "MAX_ELL",
    "CERTIFY_EXPANDER_ATTEMPTS",
    "TwistGraph",
    "TwistAssignment",
    "ExpanderCertificationError",
    "kappa_closed_form",
    "kappa_dense",
    "gen_twist_graph",
    "certify_expander",
    "assign_twists",
    "twist_code_matrix",
    "check_violation_probability",
    "sample_violation_rate",
    "serialize_twist_graph",
    "parse_twist_graph",
]


# The most fiber classes a twist graph may have. Kappa costs O(ell k) and
# the dense cross-check O(ell^3), 0.12 s at this ell; twist graphs in use
# have ell below 10, and a huge ell read from a file is refused at once.
MAX_ELL = 1024

# Twist graphs certify_expander samples before giving up.
CERTIFY_EXPANDER_ATTEMPTS = 100


def kappa_closed_form(ell: int, shifts: tuple[int, ...]) -> float:
    """Largest nontrivial normalized eigenvalue magnitude of the circulant."""
    if ell < 2:
        raise ValueError("need at least two fiber classes")
    k = len(shifts)
    best = 0.0
    for j in range(1, ell):
        lam = sum(math.cos(2 * math.pi * j * s / ell) for s in shifts) / k
        best = max(best, abs(lam))
    return best


def kappa_dense(ell: int, shifts: tuple[int, ...]) -> float:
    """Same figure via an explicit eigensolve; cross-check route only."""
    k = len(shifts)
    adj = np.zeros((ell, ell))
    for s in shifts:
        for u in range(ell):
            adj[u][(u + s) % ell] += 1
            adj[u][(u - s) % ell] += 1
    eigs = np.linalg.eigvalsh(adj / (2 * k))
    eigs = sorted(eigs, key=lambda x: -x)
    # Drop one copy of the trivial eigenvalue 1, keep the rest.
    return max(abs(e) for e in eigs[1:]) if ell > 1 else 0.0


@dataclass(frozen=True)
class TwistGraph:
    ell: int
    shifts: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.ell <= MAX_ELL:
            raise ValueError(f"need 2 to {MAX_ELL} fiber classes")
        if not self.shifts:
            raise ValueError("need at least one type")
        for s in self.shifts:
            if not 1 <= s < self.ell:
                raise ValueError(f"shift {s} outside 1..{self.ell - 1}")

    @property
    def k_types(self) -> int:
        return len(self.shifts)

    @property
    def ell_is_odd(self) -> bool:
        return self.ell % 2 == 1

    def kappa(self) -> float:
        return kappa_closed_form(self.ell, self.shifts)


class ExpanderCertificationError(Exception):
    """Raised when no sampled twist graph meets the expansion target."""

    def __init__(self, best: TwistGraph, best_kappa: float, attempts: int):
        self.best = best
        self.best_kappa = best_kappa
        self.attempts = attempts
        super().__init__(
            f"no twist graph with kappa <= target in {attempts} attempts; "
            f"best seen {best_kappa:.4f}"
        )


def gen_twist_graph(ell: int, k_types: int, seed: int) -> TwistGraph:
    """One uniform sample: each type's shift drawn from 1..ell-1."""
    if ell < 2:
        raise ValueError("need at least two fiber classes")
    if k_types < 1:
        raise ValueError("need at least one type")
    rng = random.Random(seed)
    shifts = tuple(rng.randrange(1, ell) for _ in range(k_types))
    return TwistGraph(ell=ell, shifts=shifts, seed=seed)


def certify_expander(
    ell: int,
    k_types: int,
    kappa_target: float = 0.5,
    seed: int = 0,
) -> TwistGraph:
    """Sample twist graphs until one has kappa at most the target.

    Attempt t uses seed + t; raises ExpanderCertificationError with the
    best graph seen after ``CERTIFY_EXPANDER_ATTEMPTS`` attempts.
    """
    best: TwistGraph | None = None
    best_kappa = float("inf")
    for attempt in range(1, CERTIFY_EXPANDER_ATTEMPTS + 1):
        graph = gen_twist_graph(ell, k_types, seed + attempt - 1)
        kappa = graph.kappa()
        if kappa <= kappa_target:
            return graph
        if kappa < best_kappa:
            best, best_kappa = graph, kappa
    assert best is not None
    raise ExpanderCertificationError(best, best_kappa, CERTIFY_EXPANDER_ATTEMPTS)


@dataclass(frozen=True)
class TwistAssignment:
    """Per-edge fiber rotations for a bundle over a partitioned base.

    Keys are (variable, check) pairs of the base Tanner graph; values are
    multiples of ell in Z_{ell^2}: zero on heads, ell * shift(type) on
    tails.
    """

    ell: int
    edges: tuple[tuple[tuple[int, int], int], ...]

    @property
    def m_fiber(self) -> int:
        return self.ell * self.ell

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.edges)

    def get(self, var: int, check: int) -> int:
        return self.as_dict().get((var, check), 0)


def assign_twists(
    code: PartitionedBaseCode, graph: TwistGraph
) -> TwistAssignment:
    if code.k_types != graph.k_types:
        raise ValueError(
            f"base has {code.k_types} types, twist graph has {graph.k_types}"
        )
    edges = []
    for a in range(code.m):
        tau = code.type_of(a)
        twist = (graph.ell * graph.shifts[tau]) % (graph.ell**2)
        for j in code.heads[a]:
            edges.append(((j, a), 0))
        for j in code.tails[a]:
            edges.append(((j, a), twist))
    edges.sort()
    return TwistAssignment(ell=graph.ell, edges=tuple(edges))


def tail_twists_per_check(
    code: PartitionedBaseCode, graph: TwistGraph
) -> list[int]:
    """The sidecar's fourth field: one tail twist value per check."""
    return [
        (graph.ell * graph.shifts[code.type_of(a)]) % (graph.ell**2)
        for a in range(code.m)
    ]


# -- twist graph code ---------------------------------------------------------


def twist_code_matrix(
    code: PartitionedBaseCode, graph: TwistGraph
) -> Gf2Matrix:
    """Parity checks of the interleaved code on ell * n bits.

    Bit (u, i) sits at column u * n + i. For every fiber class u and every
    check a of type tau, the row reads the tails of a in block u and the
    heads of a in block u + shift(tau).
    """
    if code.k_types != graph.k_types:
        raise ValueError("type counts disagree")
    n, ell = code.n, graph.ell
    rows = []
    for u in range(ell):
        for a in range(code.m):
            v = (u + graph.shifts[code.type_of(a)]) % ell
            bits = 0
            for i in code.tails[a]:
                bits |= 1 << (u * n + i)
            for j in code.heads[a]:
                bits |= 1 << (v * n + j)
            rows.append(bits)
    return Gf2Matrix(rows, ell * n)


def check_violation_probability(
    n: int, delta: int, y: BitChain, z: BitChain
) -> float:
    """Exact violation probability of one random partitioned check.

    Independent coordinates: untouched positions contribute factor 1,
    positions in exactly one of y, z contribute 1 - delta/n, and shared
    positions contribute 1 - 2 delta/n.
    """
    if y.length != n or z.length != n:
        raise ValueError("word length mismatch")
    sym = (y.bits ^ z.bits).bit_count()
    both = (y.bits & z.bits).bit_count()
    return 0.5 - 0.5 * (1 - delta / n) ** sym * (1 - 2 * delta / n) ** both


def sample_violation_rate(
    n: int,
    delta: int,
    y: BitChain,
    z: BitChain,
    samples: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the same probability, fresh check per sample.

    Only coordinates in the union support matter, so the sampler draws
    membership and the heads/tails coin just there, vectorized.
    """
    support = sorted(set(y.iter_support()) | set(z.iter_support()))
    if not support:
        return 0.0
    rng = np.random.default_rng(seed)
    y_vals = np.array([1 if i in y else 0 for i in support], dtype=np.uint8)
    z_vals = np.array([1 if i in z else 0 for i in support], dtype=np.uint8)
    member = rng.random((samples, len(support))) < delta / n
    is_tail = rng.random((samples, len(support))) < 0.5
    contrib = np.where(is_tail, y_vals[None, :], z_vals[None, :])
    parity = (member & (contrib == 1)).sum(axis=1) % 2
    return float(parity.mean())


# -- serialization ------------------------------------------------------------


def serialize_twist_graph(graph: TwistGraph) -> str:
    """One line: ell, k, the shifts, then kappa for the human reader."""
    shifts = " ".join(str(s) for s in graph.shifts)
    return f"{graph.ell} {graph.k_types} {shifts} {graph.kappa():.12f}\n"


def parse_twist_graph(text: str) -> TwistGraph:
    """Parse the line serialize_twist_graph writes, and nothing else:
    ell and the shifts are read, and the type count and kappa are
    checked by comparing the rebuilt line with the input."""
    ell, _, *shifts, _ = text.split()
    graph = TwistGraph(ell=int(ell), shifts=tuple(int(s) for s in shifts))
    if serialize_twist_graph(graph) != text:
        raise ValueError("not a twist graph in the form serialize_twist_graph writes")
    return graph
