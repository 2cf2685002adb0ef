import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.cli import build_instance, load_config

from fibercode.complexes import (
    ChainComplex,
    coset_min_weight_exact,
    css_from_complex,
    cycle_complex,
    parse_complex,
    parse_labels,
    serialize_complex,
    serialize_labels,
    transpose_complex,
)
from fibercode.gf2 import BitChain, Gf2Matrix

import elimination_reference


def _triangle_disk() -> ChainComplex:
    """Three vertices, three edges, one face glued along all edges."""
    d1 = Gf2Matrix.from_col_support([(0, 1), (1, 2), (0, 2)], 3)
    d2 = Gf2Matrix.from_col_support([(0, 1, 2)], 3)
    return ChainComplex((3, 3, 1), (d1, d2))


@st.composite
def random_two_complexes(draw, min_cells=1):
    """A valid 2-complex: columns of del_2 are random cycles of del_1."""
    m = draw(st.integers(min_cells, 5))
    n = draw(st.integers(min_cells, 7))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    d1 = Gf2Matrix(rows, n)
    kernel = d1.kernel_basis()
    n2 = draw(st.integers(0, 4))
    cols = []
    for _ in range(n2):
        bits = 0
        for v in kernel:
            if draw(st.booleans()):
                bits ^= v.bits
        cols.append(bits)
    d2 = Gf2Matrix(cols, n).transpose()
    return ChainComplex((m, n, n2), (d1, d2))


def test_validate_accepts_triangle():
    _triangle_disk().validate()


def test_validate_rejects_bad_square():
    d1 = Gf2Matrix.from_dense([[1, 0], [0, 1]])
    d2 = Gf2Matrix.from_dense([[1], [0]])
    cx = ChainComplex((2, 2, 1), (d1, d2))
    with pytest.raises(ValueError):
        cx.validate()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ChainComplex((2, 3), (Gf2Matrix.zeros(3, 2),))


def test_end_boundaries_are_built_once():
    cx = _triangle_disk()
    top = cx.top_degree
    assert cx.boundary(0) is cx.boundary(0)
    assert cx.boundary(top + 1) is cx.boundary(top + 1)
    assert cx.boundary(0).shape == (0, 3)
    assert cx.boundary(top + 1).shape == (1, 0)


def test_triangle_betti():
    cx = _triangle_disk()
    assert [cx.betti(j) for j in range(3)] == [1, 0, 0]


def test_cycle_complex_betti_and_basis():
    cx = cycle_complex(5)
    assert cx.betti(0) == 1
    assert cx.betti(1) == 1
    (h,) = cx.homology_basis(1)
    assert h.weight() == 5
    assert cx.is_nontrivial_cycle(1, h)


def test_nontrivial_cycle_rejects_boundary():
    cx = _triangle_disk()
    face_boundary = cx.boundary(2).mul_chain(BitChain(1, 1))
    assert face_boundary.weight() == 3
    assert cx.is_cycle(1, face_boundary)
    assert not cx.is_nontrivial_cycle(1, face_boundary)


def test_cocycle_tests_on_cycle_graph():
    cx = cycle_complex(4)
    single_edge = BitChain.from_support(4, [2])
    assert cx.is_cocycle(1, single_edge)
    assert cx.is_nontrivial_cocycle(1, single_edge)
    vertex_cob = cx.boundary(1).transpose().mul_chain(
        BitChain.from_support(4, [0])
    )
    assert vertex_cob.weight() == 2
    assert not cx.is_nontrivial_cocycle(1, vertex_cob)


def test_transpose_complex_reverses_betti():
    cx = _triangle_disk()
    t = transpose_complex(cx)
    t.validate()
    assert [t.betti(j) for j in range(3)] == [0, 0, 1]


def test_css_from_triangle():
    code = css_from_complex(_triangle_disk(), 1)
    code.validate()
    assert code.n_qubits == 3
    assert code.k_logical() == 0


def test_css_orientation():
    # X-checks must be the (q-1)-cells: for the triangle at q = 1 that is
    # three vertex checks of weight 2 each.
    code = css_from_complex(_triangle_disk(), 1)
    assert code.h_x.shape == (3, 3)
    assert code.h_z.shape == (1, 3)
    assert code.h_x.max_row_weight() == 2


def test_coset_min_weight_cycle_graph():
    cx = cycle_complex(5)
    assert coset_min_weight_exact(cx, 1, "homology") == 5
    assert coset_min_weight_exact(cx, 1, "cohomology") == 1


def test_coset_min_weight_trivial_homology():
    cx = _triangle_disk()
    assert coset_min_weight_exact(cx, 1, "homology") is None


def test_coset_min_weight_budget_refusal():
    cx = cycle_complex(30)
    with pytest.raises(ValueError):
        coset_min_weight_exact(cx, 1, "homology")
    # A raised budget unlocks the same instance at a smaller size.
    small = cycle_complex(8)
    with pytest.raises(ValueError):
        coset_min_weight_exact(small, 1, "homology", budget=5)
    assert coset_min_weight_exact(small, 1, "homology", budget=8) == 8


def test_coset_min_weight_max_weight_cap():
    cx = cycle_complex(6)
    with pytest.raises(RuntimeError):
        coset_min_weight_exact(cx, 1, "homology", max_weight=3)


@given(random_two_complexes())
@settings(max_examples=60, deadline=None)
def test_random_complex_invariants(cx):
    cx.validate()
    basis = cx.homology_basis(1)
    assert len(basis) == cx.betti(1)
    for z in basis:
        assert cx.is_nontrivial_cycle(1, z)
    cobasis = cx.cohomology_basis(1)
    assert len(cobasis) == cx.betti(1)
    for z in cobasis:
        assert cx.is_nontrivial_cocycle(1, z)


@given(random_two_complexes())
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip(cx):
    back = parse_complex(serialize_complex(cx))
    assert back == cx


def test_labels_roundtrip():
    cx = cycle_complex(3)
    labels = parse_labels(serialize_labels(cx))
    assert labels == (("v0", "v1", "v2"), ("e0", "e1", "e2"))


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        parse_complex("not a complex\n")


def test_default_labels():
    d1 = Gf2Matrix.zeros(1, 1)
    cx = ChainComplex((1, 1), (d1,))
    assert cx.label(0, 0) == "0:0"


# -- membership tests and bases against the per-query reference -------------


@pytest.fixture(scope="module")
def desk_complex(tmp_path_factory):
    """The bundle complex of the CLI's desk preset."""
    cfg = tmp_path_factory.mktemp("desk") / "config.json"
    cfg.write_text('{"preset": "desk"}')
    return build_instance(load_config(str(cfg))).bundle.complex


def _fresh(cx: ChainComplex) -> ChainComplex:
    """An equal complex whose matrices have empty caches."""
    return ChainComplex(cx.dims, [Gf2Matrix(m.rows, m.n_cols) for m in cx.boundaries])


def _assert_bases_match_reference(cx: ChainComplex) -> None:
    for j in range(cx.top_degree + 1):
        want = elimination_reference.homology_basis(cx, j)
        assert cx.homology_basis(j) == want
        assert cx.homology_basis(j) == want  # second call reads the caches
        want = elimination_reference.cohomology_basis(cx, j)
        assert cx.cohomology_basis(j) == want
        assert cx.cohomology_basis(j) == want


@given(random_two_complexes(min_cells=0))
@settings(max_examples=150, deadline=None)
def test_bases_match_reference(cx):
    _assert_bases_match_reference(_fresh(cx))


def test_bases_match_reference_on_fixed_complexes(desk_complex):
    empty = ChainComplex((0, 0, 0), (Gf2Matrix.zeros(0, 0), Gf2Matrix.zeros(0, 0)))
    for cx in (_triangle_disk(), cycle_complex(5), empty, desk_complex):
        _assert_bases_match_reference(_fresh(cx))
        _assert_bases_match_reference(transpose_complex(_fresh(cx)))


@given(random_two_complexes(min_cells=0), st.data())
@settings(max_examples=150, deadline=None)
def test_boundary_tests_match_reference(cx, data):
    cx = _fresh(cx)
    for j in range(cx.top_degree + 1):
        z = BitChain(cx.dims[j], data.draw(st.integers(0, (1 << cx.dims[j]) - 1)))
        image = cx.boundary(j + 1)
        assert cx.is_boundary(j, z) == elimination_reference.in_row_space(
            image.transpose(), z
        )
        assert cx.is_boundary(j, z) == (
            elimination_reference.solve(image, z) is not None
        )
        assert cx.is_coboundary(j, z) == elimination_reference.in_row_space(
            cx.boundary(j), z
        )


@given(random_two_complexes())
@settings(max_examples=60, deadline=None)
def test_coset_min_weight_matches_enumeration(cx):
    n = cx.dims[1]
    for mode, closer, span in (
        ("homology", cx.boundary(1), cx.boundary(2).transpose()),
        ("cohomology", cx.boundary(2).transpose(), cx.boundary(1)),
    ):
        weights = [
            w
            for w in range(1, n + 1)
            for combo in itertools.combinations(range(n), w)
            if closer.mul_chain(z := BitChain.from_support(n, combo)).is_zero()
            and not elimination_reference.in_row_space(span, z)
        ]
        want = min(weights) if weights else None
        assert coset_min_weight_exact(_fresh(cx), 1, mode) == want


# -- truncated complex files -------------------------------------------------


def _assert_prefixes_rejected(text: str) -> None:
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        with pytest.raises(ValueError):
            parse_complex("".join(lines[:k]))


def test_parse_complex_rejects_every_line_prefix(desk_complex):
    for cx in (cycle_complex(3), desk_complex):
        text = serialize_complex(cx)
        assert parse_complex(text) == cx
        _assert_prefixes_rejected(text)


def test_parse_complex_rejects_every_character_prefix():
    text = serialize_complex(cycle_complex(3))
    for k in range(len(text) - 1):
        with pytest.raises(ValueError):
            parse_complex(text[:k])


def test_parse_complex_requires_end_line():
    text = serialize_complex(_triangle_disk())
    assert parse_complex(text) == _triangle_disk()
    with pytest.raises(ValueError):  # nothing may follow the end line
        parse_complex(text + "\n")
    with pytest.raises(ValueError):
        parse_complex(text.replace("end\n", ""))
    with pytest.raises(ValueError):
        parse_complex(text + "boundary 3\n")
