"""Chain complexes over GF(2), homology, CSS extraction, serialization.

A complex of length k stores cell counts ``dims[0..k]`` and boundary
matrices ``del_j`` of shape dims[j-1] x dims[j] for j = 1..k, satisfying
del_j del_(j+1) = 0. Degree-j chains are BitChains of length dims[j].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from fibercode.gf2 import BitChain, Gf2Matrix, from_alist, to_alist

__all__ = [
    "ChainComplex",
    "CssCode",
    "cycle_complex",
    "transpose_complex",
    "css_from_complex",
    "coset_min_weight_exact",
    "serialize_complex",
    "parse_complex",
    "serialize_labels",
    "parse_labels",
]


class ChainComplex:
    """Finite chain complex over GF(2), immutable after construction."""

    __slots__ = ("dims", "boundaries", "labels", "_maps")

    def __init__(
        self,
        dims: Sequence[int],
        boundaries: Sequence[Gf2Matrix],
        labels: Sequence[Sequence[str]] | None = None,
    ):
        dims = tuple(dims)
        boundaries = tuple(boundaries)
        if len(dims) < 1:
            raise ValueError("a complex needs at least degree 0")
        if len(boundaries) != len(dims) - 1:
            raise ValueError("need one boundary matrix per degree 1..k")
        for j, mat in enumerate(boundaries, start=1):
            if mat.shape != (dims[j - 1], dims[j]):
                raise ValueError(
                    f"boundary {j} has shape {mat.shape}, "
                    f"expected {(dims[j - 1], dims[j])}"
                )
        if labels is not None:
            labels = tuple(tuple(lab) for lab in labels)
            if len(labels) != len(dims) or any(
                len(lab) != d for lab, d in zip(labels, dims)
            ):
                raise ValueError("labels must match dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "labels", labels)
        # The zero maps at both ends are built once, so the elimination
        # and transpose they cache persist across calls.
        maps = (
            Gf2Matrix.zeros(0, dims[0]),
            *boundaries,
            Gf2Matrix.zeros(dims[-1], 0),
        )
        object.__setattr__(self, "_maps", maps)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ChainComplex is immutable")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def boundary(self, j: int) -> Gf2Matrix:
        """del_j for 1 <= j <= k; zero-shaped maps at the two ends."""
        if j < 0 or j > self.top_degree + 1:
            raise ValueError(f"degree {j} out of range")
        return self._maps[j]

    def validate(self) -> None:
        """Check del_j del_(j+1) = 0 at every degree; raise otherwise."""
        for j in range(1, self.top_degree):
            prod = self.boundary(j) @ self.boundary(j + 1)
            if not prod.is_zero():
                raise ValueError(f"del_{j} del_{j + 1} is nonzero")

    def betti(self, j: int) -> int:
        if not 0 <= j <= self.top_degree:
            raise ValueError(f"degree {j} out of range")
        ker = self.dims[j] - self.boundary(j).rank()
        return ker - self.boundary(j + 1).rank()

    # -- (co)cycle tests, one code path each -----------------------------

    def is_cycle(self, j: int, z: BitChain) -> bool:
        return self.boundary(j).mul_chain(z).is_zero()

    def is_boundary(self, j: int, z: BitChain) -> bool:
        return self.boundary(j + 1).column_space_contains(z)

    def is_nontrivial_cycle(self, j: int, z: BitChain) -> bool:
        return (
            not z.is_zero()
            and self.is_cycle(j, z)
            and not self.is_boundary(j, z)
        )

    def is_cocycle(self, j: int, z: BitChain) -> bool:
        return self.boundary(j + 1).transpose().mul_chain(z).is_zero()

    def is_coboundary(self, j: int, z: BitChain) -> bool:
        return self.boundary(j).row_space_contains(z)

    def is_nontrivial_cocycle(self, j: int, z: BitChain) -> bool:
        return (
            not z.is_zero()
            and self.is_cocycle(j, z)
            and not self.is_coboundary(j, z)
        )

    def homology_basis(self, j: int) -> list[BitChain]:
        """Cycles independent modulo boundaries, deterministically chosen."""
        cycles = self.boundary(j).kernel_basis()
        return _new_classes(cycles, self.boundary(j + 1).transpose())

    def cohomology_basis(self, j: int) -> list[BitChain]:
        cocycles = self.boundary(j + 1).transpose().kernel_basis()
        return _new_classes(cocycles, self.boundary(j))

    def label(self, j: int, i: int) -> str:
        if self.labels is None:
            return f"{j}:{i}"
        return self.labels[j][i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.dims == other.dims and self.boundaries == other.boundaries

    def __hash__(self) -> int:
        return hash((self.dims, self.boundaries))

    def __repr__(self) -> str:
        return f"ChainComplex(dims={self.dims})"


def _new_classes(candidates: list[BitChain], span: Gf2Matrix) -> list[BitChain]:
    """Candidates independent modulo span's rows and earlier candidates:
    the pivot columns of [span | candidates] with the span block already
    eliminated, since reduce_mod_rows is linear with kernel the row space.
    """
    reduced = Gf2Matrix(
        [span.reduce_mod_rows(c).bits for c in candidates], span.n_cols
    ).transpose()
    return [candidates[k] for k in reduced.pivot_columns()]


def transpose_complex(cx: ChainComplex) -> ChainComplex:
    """Reverse the grading: cells of degree j become degree k - j."""
    k = cx.top_degree
    dims = tuple(reversed(cx.dims))
    boundaries = [cx.boundary(k + 1 - j).transpose() for j in range(1, k + 1)]
    labels = None
    if cx.labels is not None:
        labels = tuple(reversed(cx.labels))
    return ChainComplex(dims, boundaries, labels)


def cycle_complex(n: int) -> ChainComplex:
    """The circle graph with n vertices and n edges as a 1-complex."""
    if n < 1:
        raise ValueError("need at least one cell")
    boundary = Gf2Matrix.from_col_support(
        [(i, (i + 1) % n) for i in range(n)], n
    )
    labels = (
        tuple(f"v{i}" for i in range(n)),
        tuple(f"e{i}" for i in range(n)),
    )
    return ChainComplex((n, n), (boundary,), labels)


# -- CSS extraction ---------------------------------------------------------


@dataclass(frozen=True)
class CssCode:
    """A CSS code presented by its two parity check matrices.

    Rows of h_x are X-checks, rows of h_z are Z-checks, columns are qubits.
    """

    h_x: Gf2Matrix
    h_z: Gf2Matrix

    def __post_init__(self) -> None:
        if self.h_x.n_cols != self.h_z.n_cols:
            raise ValueError("check matrices disagree on qubit count")

    @property
    def n_qubits(self) -> int:
        return self.h_x.n_cols

    def k_logical(self) -> int:
        return self.n_qubits - self.h_x.rank() - self.h_z.rank()

    def validate(self) -> None:
        if not (self.h_x @ self.h_z.transpose()).is_zero():
            raise ValueError("h_x h_z^T is nonzero")

    def syndrome_of_x_error(self, e: BitChain) -> BitChain:
        """Z-check measurements triggered by an X error pattern."""
        return self.h_z.mul_chain(e)

    def syndrome_of_z_error(self, e: BitChain) -> BitChain:
        return self.h_x.mul_chain(e)

    def max_stabilizer_weight(self) -> int:
        return max(self.h_x.max_row_weight(), self.h_z.max_row_weight())


def css_from_complex(cx: ChainComplex, q: int) -> CssCode:
    """Qubits on q-cells, X-checks on (q-1)-cells, Z-checks on (q+1)-cells."""
    if not 0 <= q <= cx.top_degree:
        raise ValueError(f"degree {q} out of range")
    h_x = cx.boundary(q)
    h_z = cx.boundary(q + 1).transpose()
    return CssCode(h_x, h_z)


# -- exact coset minimum weight ---------------------------------------------


def coset_min_weight_exact(
    cx: ChainComplex,
    j: int,
    mode: str = "homology",
    budget: int = 26,
    max_weight: int | None = None,
) -> int | None:
    """Minimum weight of a nontrivial (co)cycle at degree j, by enumeration.

    Walks supports in increasing weight, so the first hit is the distance.
    Returns None when the relevant betti number vanishes. Refuses outright
    when dims[j] exceeds the budget; the caller must raise it consciously.
    """
    n = cx.dims[j]
    if n > budget:
        raise ValueError(
            f"{n} cells at degree {j} exceed the exhaustive budget {budget}; "
            "raise the budget explicitly to enumerate anyway"
        )
    if mode == "homology":
        closer = cx.boundary(j)
        is_trivial = cx.is_boundary
    elif mode == "cohomology":
        closer = cx.boundary(j + 1).transpose()
        is_trivial = cx.is_coboundary
    else:
        raise ValueError(f"unknown mode {mode!r}")
    b = cx.betti(j)  # field coefficients: cohomology rank equals homology rank
    if b == 0:
        return None
    top = n if max_weight is None else min(max_weight, n)
    syndromes = closer.transpose().rows  # row i is the image of cell i
    for w in range(1, top + 1):
        for combo in itertools.combinations(range(n), w):
            acc = 0
            for i in combo:
                acc ^= syndromes[i]
            if acc:
                continue
            if not is_trivial(j, BitChain.from_support(n, combo)):
                return w
    raise RuntimeError(
        f"no nontrivial chain of weight <= {top} found although betti = {b}"
    )


# -- serialization -----------------------------------------------------------

_COMPLEX_HEADER = "fibercode-complex v1"
_LABELS_HEADER = "fibercode-labels v1"


def serialize_complex(cx: ChainComplex) -> str:
    """Header, degree count and dims, then each boundary as a whole
    alist, whose 4 + dims[j-1] + dims[j] lines include any empty ones."""
    parts = [
        _COMPLEX_HEADER,
        f"degrees {cx.top_degree}",
        "dims " + " ".join(str(d) for d in cx.dims),
    ]
    for j in range(1, cx.top_degree + 1):
        parts.append(f"boundary {j}")
        parts.append(to_alist(cx.boundary(j))[:-1])
    parts.append("end")
    return "\n".join(parts) + "\n"


def parse_complex(text: str) -> ChainComplex:
    """Parse the text serialize_complex writes for some complex, and
    nothing else.

    Reads the dims line and hands each boundary block, whose line count
    the dims fix, to from_alist with its trailing newline; every other
    line is checked by comparing the rebuilt complex's text with the
    input.
    """
    lines = text.split("\n")
    dims = tuple(int(t) for t in lines[2].split()[1:]) if len(lines) > 2 else ()
    boundaries = []
    pos = 4
    for j in range(1, len(dims)):
        end = pos + 4 + dims[j] + dims[j - 1]
        boundaries.append(from_alist("\n".join(lines[pos:end]) + "\n"))
        pos = end + 1
    cx = ChainComplex(dims, boundaries)
    if serialize_complex(cx) != text:
        raise ValueError("not a complex in the form serialize_complex writes")
    cx.validate()
    return cx


def _labels_text(labels: Sequence[Sequence[str]]) -> str:
    parts = [_LABELS_HEADER]
    for j, block in enumerate(labels):
        parts.append(f"degree {j} {len(block)}")
        parts.extend(block)
    return "\n".join(parts) + "\n"


def serialize_labels(cx: ChainComplex) -> str:
    return _labels_text(
        [[cx.label(j, i) for i in range(d)] for j, d in enumerate(cx.dims)]
    )


def parse_labels(text: str) -> tuple[tuple[str, ...], ...]:
    """Parse the text serialize_labels writes, and nothing else: each
    block is read by the count on its degree line, and the labels must
    give back the input text."""
    lines = text.splitlines()
    out = []
    pos = 1
    while pos < len(lines):
        count = int(lines[pos].rpartition(" ")[2])
        if count < 0:
            raise ValueError(f"negative label count at line {pos + 1}")
        out.append(tuple(lines[pos + 1 : pos + 1 + count]))
        pos += 1 + count
    labels = tuple(out)
    if _labels_text(labels) != text:
        raise ValueError("not a labels file in the form serialize_labels writes")
    return labels
