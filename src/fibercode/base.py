"""Random partitioned classical LDPC base codes and their certificates.

A base code is a sparse parity check matrix whose checks are split into
type classes, with each check's neighborhood further split into heads and
tails. Generation follows a fixed randomness order (neighborhood with
immediate resampling of empty rows, then the heads/tails coins, one check
at a time) so instances are reproducible from the seed alone.

Certification measures the properties the construction relies on: degree
windows, full rank, neighborhood expansion of small check sets, and the
minimum distance. The asymptotic thresholds hold only for large blocks,
so every threshold is a parameter and every certificate echoes the values
it was judged against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from fibercode.complexes import ChainComplex
from fibercode.gf2 import (
    GRAY_WALK_MAX_DIM,
    Gf2Matrix,
    bits_from_support,
    gray_walk,
)

__all__ = [
    "GEN_BASE_ATTEMPTS",
    "PartitionedBaseCode",
    "CertificateParams",
    "BaseCertificate",
    "gen_base",
    "certify_base",
    "min_distance",
    "export_base_sidecar",
    "parse_base_sidecar",
]

# Base codes gen_base samples before it returns the best failure.
GEN_BASE_ATTEMPTS = 200


@dataclass(frozen=True)
class CertificateParams:
    """Thresholds a base certificate is judged against.

    Degree windows are fractions of delta. ``expansion_ratio`` r demands
    |N(S)| >= r * delta * |S| for every set S of one or two checks.
    ``dist_frac`` demands minimum distance >= dist_frac * n; a distance
    that is not computed exactly passes only a zero ``dist_frac``.
    """

    check_deg_lo: float = 0.99
    check_deg_hi: float = 1.01
    var_deg_lo: float = 0.74
    var_deg_hi: float = 0.76
    expansion_ratio: float = 0.9
    dist_frac: float = 0.2

    @classmethod
    def paper_scale(cls) -> "CertificateParams":
        """The asymptotic thresholds; realistic only for very large n."""
        return cls()

    @classmethod
    def desk_scale(cls) -> "CertificateParams":
        """Widened windows that small blocks can meet; echoed in reports."""
        return cls(
            check_deg_lo=1 / 3,
            check_deg_hi=5 / 3,
            var_deg_lo=0.1,
            var_deg_hi=1.9,
            expansion_ratio=0.45,
            dist_frac=0.1,
        )

    @classmethod
    def structural_only(cls) -> "CertificateParams":
        """Only full rank and nonzero degrees; for toy instances in tests."""
        return cls(
            check_deg_lo=0.0,
            check_deg_hi=1e9,
            var_deg_lo=0.0,
            var_deg_hi=1e9,
            expansion_ratio=0.0,
            dist_frac=0.0,
        )


@dataclass(frozen=True)
class BaseCertificate:
    passed: bool
    degree_ok: bool
    check_deg_min: int
    check_deg_max: int
    var_deg_min: int
    var_deg_max: int
    full_rank: bool
    expansion_ok: bool
    expansion_worst_ratio: float
    min_dist_estimate: int | None  # None when not computed
    min_dist_method: str  # "exact", "unknown" or "skipped"
    min_dist_ok: bool
    params: CertificateParams
    attempts: int = 1

    def score(self) -> int:
        """How many sub-checks passed; used to keep the best failure."""
        return sum(
            (self.degree_ok, self.full_rank, self.expansion_ok, self.min_dist_ok)
        )

    def as_dict(self) -> dict:
        d = {
            "passed": self.passed,
            "degree_ok": self.degree_ok,
            "check_deg_range": [self.check_deg_min, self.check_deg_max],
            "var_deg_range": [self.var_deg_min, self.var_deg_max],
            "full_rank": self.full_rank,
            "expansion_ok": self.expansion_ok,
            "expansion_worst_ratio": self.expansion_worst_ratio,
            "min_dist_estimate": self.min_dist_estimate,
            "min_dist_method": self.min_dist_method,
            "min_dist_ok": self.min_dist_ok,
            "attempts": self.attempts,
            "thresholds": {
                "check_deg_window": [
                    self.params.check_deg_lo,
                    self.params.check_deg_hi,
                ],
                "var_deg_window": [self.params.var_deg_lo, self.params.var_deg_hi],
                "expansion_ratio": self.params.expansion_ratio,
                "dist_frac": self.params.dist_frac,
            },
        }
        return d


@dataclass(frozen=True)
class PartitionedBaseCode:
    """A classical code with typed checks and heads/tails neighborhoods."""

    n: int
    delta: int
    k_types: int
    seed: int
    adjacency: tuple[tuple[int, ...], ...]  # per check, strictly ascending variables
    heads: tuple[tuple[int, ...], ...]
    tails: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.delta < 1:
            raise ValueError("block length and density must be positive")
        m = len(self.adjacency)
        if len(self.heads) != m or len(self.tails) != m:
            raise ValueError("heads/tails must cover every check")
        if self.k_types < 1 or m % self.k_types:
            raise ValueError("number of types must divide the check count")
        for a in range(m):
            merged = tuple(sorted(self.heads[a] + self.tails[a]))
            if merged != self.adjacency[a]:
                raise ValueError(f"check {a}: heads+tails is not the neighborhood")
            if merged and (merged[0] < 0 or merged[-1] >= self.n):
                raise ValueError(f"check {a}: variable index outside 0..n-1")
            if any(x >= y for x, y in zip(merged, merged[1:])):
                raise ValueError(f"check {a}: a variable appears twice")

    @property
    def m(self) -> int:
        return len(self.adjacency)

    def type_of(self, check: int) -> int:
        return check // (self.m // self.k_types)

    def matrix(self) -> Gf2Matrix:
        return Gf2Matrix.from_row_support(self.adjacency, self.n)

    def as_complex(self) -> ChainComplex:
        return ChainComplex((self.m, self.n), (self.matrix(),))


def _sample_code(
    n: int, delta: int, k_types: int, seed: int
) -> PartitionedBaseCode:
    rng = random.Random(seed)
    m = (3 * n) // 4
    p = delta / n
    adjacency = []
    heads = []
    tails = []
    for _ in range(m):
        neigh: list[int] = []
        while not neigh:
            neigh = [j for j in range(n) if rng.random() < p]
        hs = []
        ts = []
        for j in neigh:
            (hs if rng.random() < 0.5 else ts).append(j)
        adjacency.append(tuple(neigh))
        heads.append(tuple(hs))
        tails.append(tuple(ts))
    return PartitionedBaseCode(
        n=n,
        delta=delta,
        k_types=k_types,
        seed=seed,
        adjacency=tuple(adjacency),
        heads=tuple(heads),
        tails=tuple(tails),
    )


def min_distance(mat: Gf2Matrix) -> tuple[int | None, str]:
    """Minimum nonzero codeword weight of ker(mat), and how it was found.

    Exact, by a Gray walk over the kernel, when the kernel dimension is at
    most GRAY_WALK_MAX_DIM; otherwise (None, "unknown"), since a search
    would give only an upper bound. A code with trivial kernel has no
    codewords; by convention that reports (n + 1, "exact").
    """
    kernel = mat.kernel_basis()
    if not kernel:
        return mat.n_cols + 1, "exact"
    if len(kernel) > GRAY_WALK_MAX_DIM:
        return None, "unknown"
    # The basis is independent, so every word after the first is nonzero.
    words = gray_walk(0, [v.bits for v in kernel])
    next(words)
    return min(map(int.bit_count, words)), "exact"


def _expansion(
    code: PartitionedBaseCode, params: CertificateParams
) -> tuple[bool, float]:
    """Worst |N(S)| / (delta |S|) over every set of at most two checks."""
    masks = [bits_from_support(neigh) for neigh in code.adjacency]
    worst = float("inf")
    for size in range(1, min(2, code.m) + 1):
        for combo in itertools.combinations(range(code.m), size):
            union = 0
            for a in combo:
                union |= masks[a]
            ratio = union.bit_count() / (code.delta * size)
            worst = min(worst, ratio)
    if worst == float("inf"):
        worst = 1.0
    return worst >= params.expansion_ratio, worst


def certify_base(
    code: PartitionedBaseCode, params: CertificateParams | None = None
) -> BaseCertificate:
    if params is None:
        params = CertificateParams.desk_scale()
    check_degs = [len(neigh) for neigh in code.adjacency]
    var_counts = [0] * code.n
    for neigh in code.adjacency:
        for j in neigh:
            var_counts[j] += 1
    d = code.delta
    degree_ok = all(
        params.check_deg_lo * d <= deg <= params.check_deg_hi * d
        for deg in check_degs
    ) and all(
        params.var_deg_lo * d <= deg <= params.var_deg_hi * d
        for deg in var_counts
    )
    mat = code.matrix()
    full_rank = mat.rank() == code.m
    expansion_ok, worst_ratio = _expansion(code, params)
    # The kernel walk is the one costly check, so it runs only when the
    # cheap ones pass; a skipped or unknown distance never passes.
    dist, method, dist_ok = None, "skipped", False
    if degree_ok and full_rank and expansion_ok:
        dist, method = min_distance(mat)
        # An unknown distance is bounded below by nothing more than 0.
        dist_ok = (0 if dist is None else dist) >= params.dist_frac * code.n
    passed = degree_ok and full_rank and expansion_ok and dist_ok
    return BaseCertificate(
        passed=passed,
        degree_ok=degree_ok,
        check_deg_min=min(check_degs),
        check_deg_max=max(check_degs),
        var_deg_min=min(var_counts),
        var_deg_max=max(var_counts),
        full_rank=full_rank,
        expansion_ok=expansion_ok,
        expansion_worst_ratio=worst_ratio,
        min_dist_estimate=dist,
        min_dist_method=method,
        min_dist_ok=dist_ok,
        params=params,
    )


def gen_base(
    n: int,
    delta: int,
    k_types: int,
    seed: int,
    params: CertificateParams | None = None,
) -> tuple[PartitionedBaseCode, BaseCertificate]:
    """Sample base codes until one certifies, up to GEN_BASE_ATTEMPTS.

    Attempt t uses seed + t, so the whole run is reproducible. When the cap
    is exhausted, the best-scoring (code, certificate) pair seen is returned
    with ``passed`` False; callers decide whether that is fatal.
    """
    if n % 4:
        raise ValueError("block length must be divisible by 4")
    m = (3 * n) // 4
    if k_types < 1 or m % k_types:
        raise ValueError(f"{k_types} types do not evenly split {m} checks")
    if not 2 <= delta <= n:
        raise ValueError("density parameter must be in [2, n]")
    if params is None:
        params = CertificateParams.desk_scale()
    best: tuple[PartitionedBaseCode, BaseCertificate] | None = None
    for attempt in range(1, GEN_BASE_ATTEMPTS + 1):
        code = _sample_code(n, delta, k_types, seed + attempt - 1)
        cert = replace(certify_base(code, params), attempts=attempt)
        if cert.passed:
            return code, cert
        if best is None or cert.score() > best[1].score():
            best = (code, cert)
    assert best is not None
    return best[0], replace(best[1], attempts=GEN_BASE_ATTEMPTS)


# -- sidecar serialization ----------------------------------------------------

_SIDECAR_HEADER = "fibercode-base v1"


def export_base_sidecar(code: PartitionedBaseCode) -> str:
    """Per-check partition data: type, heads and tails, one check a line.

    The twists are not here: bundle.json holds them edge by edge.
    """
    lines = [
        _SIDECAR_HEADER,
        f"n {code.n} m {code.m} delta {code.delta} "
        f"k_types {code.k_types} seed {code.seed}",
    ]
    for a in range(code.m):
        fields = [
            str(code.type_of(a)),
            " ".join(str(j) for j in sorted(code.heads[a])),
            " ".join(str(j) for j in sorted(code.tails[a])),
        ]
        lines.append("; ".join(fields))
    return "\n".join(lines) + "\n"


def parse_base_sidecar(text: str) -> PartitionedBaseCode:
    """Parse the text export_base_sidecar writes, and nothing else.

    Reads n, delta, k_types and seed, and each check's heads and tails;
    a check line with any other field count is refused, and the header,
    m and the type fields are checked by comparing the rebuilt sidecar
    with the input.
    """
    _, meta, *checks = text.splitlines()
    n, _, delta, k_types, seed = (int(v) for v in meta.split()[1::2])
    heads, tails = [], []
    for line in checks:
        _, hs, ts = line.split("; ")
        heads.append(tuple(int(j) for j in hs.split()))
        tails.append(tuple(int(j) for j in ts.split()))
    code = PartitionedBaseCode(
        n=n,
        delta=delta,
        k_types=k_types,
        seed=seed,
        adjacency=tuple(tuple(sorted(h + t)) for h, t in zip(heads, tails)),
        heads=tuple(heads),
        tails=tuple(tails),
    )
    if export_base_sidecar(code) != text:
        raise ValueError("not a sidecar in the form export_base_sidecar writes")
    return code
