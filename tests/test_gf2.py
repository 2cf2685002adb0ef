import gc
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.gf2 import (
    BitChain,
    Gf2Matrix,
    bits_from_support,
    from_alist,
    gray_walk,
    to_alist,
)

import elimination_reference


def _cycle_boundary(n: int) -> Gf2Matrix:
    """Boundary matrix of the cycle graph C_n: edge i hits vertices i, i+1."""
    cols = [(i, (i + 1) % n) for i in range(n)]
    return Gf2Matrix.from_col_support(cols, n)


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    rows = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m)
    )
    return Gf2Matrix(rows, n)


def test_bitchain_basics():
    c = BitChain.from_support(5, [0, 3])
    assert c.weight() == 2
    assert c.support == (0, 3)
    assert 3 in c and 1 not in c
    assert (c ^ c).is_zero()
    assert c.flip(1).weight() == 3
    with pytest.raises(ValueError):
        BitChain(3, 0b1000)
    with pytest.raises(ValueError):
        c ^ BitChain(4, 0)


def test_rank_frozen_example():
    # Three rows 110, 011, 101: any two are independent, all three sum to 0.
    mat = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert mat.rank() == 2


def test_kernel_single_check():
    mat = Gf2Matrix.from_dense([[1, 1]])
    basis = mat.kernel_basis()
    assert len(basis) == 1
    assert basis[0].bits == 0b11


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_cycle_graph_kernel(n):
    mat = _cycle_boundary(n)
    basis = mat.kernel_basis()
    assert len(basis) == 1
    assert basis[0].weight() == n  # the full cycle


def test_solve_free_vars_zero():
    # x0 + x1 = 1 with x1 free: back substitution leaves x1 = 0.
    mat = Gf2Matrix.from_dense([[1, 1]])
    x = mat.solve(BitChain(1, 1))
    assert x == BitChain(2, 0b01)


def test_solve_inconsistent():
    mat = Gf2Matrix.from_dense([[1, 0], [1, 0]])
    assert mat.solve(BitChain.from_support(2, [0])) is None


def test_identity_and_mul():
    eye = Gf2Matrix.identity(4)
    mat = Gf2Matrix.from_dense([[1, 0, 1, 1], [0, 1, 0, 0]])
    assert mat @ eye.transpose() == mat
    c = BitChain.from_support(4, [0, 2])
    assert mat.mul_chain(c) == BitChain(2, 0)
    # Rows are checked once against the column range, in both directions.
    for rows in ([0b1, -1], [0b1, 1 << 4], [1 << 40]):
        with pytest.raises(ValueError):
            Gf2Matrix(rows, 4)
    with pytest.raises(ValueError):
        Gf2Matrix([], -1)
    empty = Gf2Matrix([], 4)
    assert empty.shape == (0, 4) and empty == Gf2Matrix.zeros(0, 4)
    assert empty.transpose() == Gf2Matrix.zeros(4, 0)


def test_from_col_support_cancellation():
    # Repeated row indices accumulate mod 2.
    mat = Gf2Matrix.from_col_support([(0, 0, 1)], 2)
    assert mat.entry(0, 0) == 0
    assert mat.entry(1, 0) == 1


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(mat):
    assert mat.rank() == mat.transpose().rank()


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_dimension(mat):
    basis = mat.kernel_basis()
    assert len(basis) == mat.n_cols - mat.rank()
    for v in basis:
        assert mat.mul_chain(v).is_zero()


@given(matrices(), st.integers(0, (1 << 8) - 1))
@settings(max_examples=150, deadline=None)
def test_solve_matches(mat, raw):
    b = BitChain(mat.n_rows, raw & ((1 << mat.n_rows) - 1))
    x = mat.solve(b)
    if x is not None:
        assert mat.mul_chain(x) == b
    else:
        # Inconsistent means b is outside the column space.
        assert mat.transpose().row_space_contains(b) is False


@given(matrices(), matrices())
@settings(max_examples=100, deadline=None)
def test_matmul_transpose(a, b):
    if a.n_cols != b.n_rows:
        return
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        Gf2Matrix.zeros(2, 3) @ Gf2Matrix.zeros(2, 3)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_alist_roundtrip(mat):
    assert from_alist(to_alist(mat)) == mat


def test_alist_fixed_layout():
    mat = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    text = to_alist(mat)
    lines = text.strip().split("\n")
    assert lines[0] == "3 2"
    assert lines[1] == "2 2"
    assert lines[2] == "1 2 1"
    assert lines[3] == "2 2"
    # Column lists, 1-based, padded to width 2.
    assert lines[4] == "1 0"
    assert lines[5] == "1 2"
    assert lines[6] == "2 0"


def test_alist_rejects_corrupt_row_lists():
    mat = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    text = to_alist(mat)
    bad = text.replace("1 2 1", "1 2 2", 1)
    with pytest.raises(ValueError):
        from_alist(bad)


@given(matrices(), st.sampled_from([" 7", " 7 7 7", "\n0\n", " x"]))
@settings(max_examples=50, deadline=None)
def test_alist_rejects_trailing_tokens(mat, tail):
    with pytest.raises(ValueError):
        from_alist(to_alist(mat) + tail)


@given(matrices(max_rows=12, max_cols=12))
@settings(max_examples=100, deadline=None)
def test_col_support_matches_row_scan(mat):
    for j in range(mat.n_cols):
        assert mat.col_support(j) == tuple(
            i for i, r in enumerate(mat.rows) if (r >> j) & 1
        )


@given(st.integers(0, 255), st.lists(st.integers(0, 255), max_size=6))
@settings(max_examples=100, deadline=None)
def test_gray_walk_visits_combinations_in_gray_order(start, basis):
    def combination(mask):
        word = start
        for t, v in enumerate(basis):
            if (mask >> t) & 1:
                word ^= v
        return word

    assert list(gray_walk(start, basis)) == [
        combination(k ^ (k >> 1)) for k in range(1 << len(basis))
    ]


def test_bits_from_support():
    assert bits_from_support([0, 2]) == 0b101


# -- the cached elimination against the per-query reference ----------------


@st.composite
def low_rank_matrices(draw):
    """Rows drawn as sums of a few generator rows, so rank stays small."""
    gens = draw(matrices(max_rows=3, max_cols=10))
    m = draw(st.integers(0, 10))
    masks = draw(
        st.lists(st.integers(0, (1 << gens.n_rows) - 1), min_size=m, max_size=m)
    )
    rows = []
    for mask in masks:
        row = 0
        for i, g in enumerate(gens.rows):
            if (mask >> i) & 1:
                row ^= g
        rows.append(row)
    return Gf2Matrix(rows, gens.n_cols)


any_matrices = st.one_of(
    matrices(), matrices(max_rows=14, max_cols=14), low_rank_matrices()
)


def _fresh(mat: Gf2Matrix) -> Gf2Matrix:
    """An equal matrix with empty caches."""
    return Gf2Matrix(mat.rows, mat.n_cols)


def _bits(data, length: int) -> int:
    return data.draw(st.integers(0, (1 << length) - 1))


@pytest.mark.parametrize(
    "mat",
    [
        Gf2Matrix.zeros(0, 0),
        Gf2Matrix.zeros(0, 4),
        Gf2Matrix.zeros(3, 0),
        Gf2Matrix.zeros(3, 4),
        Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
        Gf2Matrix.identity(3),
        Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]]),
        Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]])
        .transpose()
        .transpose(),
    ],
    ids=[
        "0x0",
        "0x4",
        "3x0",
        "zero-3x4",
        "rank-deficient",
        "identity",
        "full-row-rank",
        "transpose-of-transpose",
    ],
)
def test_degenerate_shapes_match_reference(mat):
    assert mat.rank() == elimination_reference.rank(mat)
    assert mat.kernel_basis() == elimination_reference.kernel_basis(mat)
    for raw in range(1 << mat.n_rows):
        b = BitChain(mat.n_rows, raw)
        assert mat.solve(b) == elimination_reference.solve(mat, b)
        assert mat.column_space_contains(b) == elimination_reference.column_space_contains(mat, b)
    for raw in range(1 << mat.n_cols):
        c = BitChain(mat.n_cols, raw)
        assert mat.row_space_contains(c) == elimination_reference.row_space_contains(mat, c)
        assert mat.mul_bits(raw) == elimination_reference.mul_bits(mat, raw)


@given(any_matrices)
@settings(max_examples=200, deadline=None)
def test_elimination_matches_reference(mat):
    mat = _fresh(mat)
    _, ref_pivots = elimination_reference.rref(mat)
    assert mat.rank() == elimination_reference.rank(mat)
    assert mat.pivot_columns() == tuple(c for _, c in ref_pivots)
    assert mat.kernel_basis() == elimination_reference.kernel_basis(mat)
    t = mat.transpose()
    assert t.rank() == elimination_reference.rank(t)
    assert t.kernel_basis() == elimination_reference.kernel_basis(t)


def _combine(rows, mask: int) -> int:
    """XOR of the rows picked by the set bits of mask."""
    acc = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            acc ^= r
    return acc


@given(any_matrices)
@settings(max_examples=200, deadline=None)
def test_elimination_record_matches_gauss_jordan(mat):
    """Pivot insertion against the column-by-column Gauss-Jordan loop.

    Pivots and reduced rows are the RREF's, so they must be equal. The
    transforms and the left-null rows may be another basis when a left
    null space exists, so each is checked for what it must be.
    """
    reduced, transforms, left_null = _fresh(mat)._eliminate()
    ref_reduced, ref_transforms, _ = elimination_reference.eliminate(mat)
    assert list(reduced.items()) == list(ref_reduced.items())
    for r, t in zip(reduced.values(), transforms):
        assert _combine(mat.rows, t) == r
    rank = len(reduced)
    if rank == mat.n_rows:
        assert transforms == ref_transforms
    assert left_null.shape == (mat.n_rows - rank, mat.n_rows)
    assert elimination_reference.rank(left_null) == left_null.n_rows
    for t in left_null.rows:
        assert _combine(mat.rows, t) == 0


@given(any_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_reference(mat, data):
    mat = _fresh(mat)
    x = BitChain(mat.n_cols, _bits(data, mat.n_cols))
    consistent = mat.mul_chain(x)
    assert mat.solve(consistent) is not None
    assert mat.solve(consistent) == elimination_reference.solve(mat, consistent)
    b = BitChain(mat.n_rows, _bits(data, mat.n_rows))
    assert mat.solve(b) == elimination_reference.solve(mat, b)


@given(any_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_mul_bits_matches_reference(mat, data):
    mat = _fresh(mat)
    assert mat.mul_bits(0) == 0
    x = _bits(data, mat.n_cols)
    assert mat.mul_bits(x) == elimination_reference.mul_bits(mat, x)
    with pytest.raises(ValueError):
        mat.mul_bits(x | 1 << mat.n_cols)
    t = mat.transpose()
    y = _bits(data, mat.n_rows)
    assert t.mul_bits(y) == elimination_reference.mul_bits(t, y)
    # The transpose holds no link back, so its transpose is a new equal
    # matrix with caches of its own.
    tt = t.transpose()
    assert tt == mat and tt is not mat
    assert tt.mul_bits(x) == elimination_reference.mul_bits(mat, x)


@given(any_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_column_space_contains_matches_reference(mat, data):
    mat = _fresh(mat)
    assert mat.column_space_contains(BitChain(mat.n_rows, 0))
    member = BitChain(mat.n_rows, mat.mul_bits(_bits(data, mat.n_cols)))
    assert mat.column_space_contains(member)
    assert elimination_reference.column_space_contains(mat, member)
    b = BitChain(mat.n_rows, _bits(data, mat.n_rows))
    want = elimination_reference.column_space_contains(mat, b)
    assert mat.column_space_contains(b) == want
    assert (mat.solve(b) is not None) == want
    assert mat.transpose().row_space_contains(b) == want
    with pytest.raises(ValueError):
        mat.column_space_contains(BitChain(mat.n_rows + 1, 0))


def _no_transpose(self):
    raise AssertionError("a transpose was built")


@given(any_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_full_row_rank_membership_builds_nothing(mat, data):
    # Rows independent of the rows before them: no left null space.
    full = Gf2Matrix(
        [mat.rows[i] for i in mat.transpose().pivot_columns()], mat.n_cols
    )
    assert full.rank() == full.n_rows
    b = BitChain(full.n_rows, _bits(data, full.n_rows))
    want = elimination_reference.solve(full, b)
    assert want is not None
    with mock.patch.object(Gf2Matrix, "transpose", _no_transpose):
        assert full.column_space_contains(b)
        assert full.solve(b) == want


@given(any_matrices, st.data())
@settings(max_examples=200, deadline=None)
def test_row_space_contains_matches_reference(mat, data):
    mat = _fresh(mat)
    combo = mat.transpose().mul_bits(_bits(data, mat.n_rows))
    member = BitChain(mat.n_cols, combo)
    assert mat.row_space_contains(member)
    assert elimination_reference.row_space_contains(mat, member)
    c = BitChain(mat.n_cols, _bits(data, mat.n_cols))
    want = elimination_reference.row_space_contains(mat, c)
    assert want == elimination_reference.in_row_space(mat, c)
    assert mat.row_space_contains(c) == want
    assert mat.reduce_mod_rows(c).is_zero() == want


@given(any_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_caches_stay_out_of_the_value(mat, data):
    cold = _fresh(mat)
    warm = _fresh(mat)
    b = BitChain(mat.n_rows, _bits(data, mat.n_rows))
    x = _bits(data, mat.n_cols)

    def answers(m):
        return (
            m.rank(),
            m.solve(b),
            m.column_space_contains(b),
            m.mul_bits(x),
            m.kernel_basis(),
            m.transpose(),
        )

    # The first call fills the transpose, the elimination record and the
    # transpose of its left-null block.
    first = answers(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert {warm, cold} == {cold}
    assert warm.transpose() is first[-1]
    assert answers(warm) == first
    assert first == answers(cold)


def test_dropped_matrices_leave_no_cycles():
    # Matrices are freed by reference counting alone: neither the cached
    # transpose nor the elimination record, whose left-null block caches
    # a transpose of its own, may point back at its owner.
    gc.collect()
    gc.disable()
    try:
        for seed in range(300):
            n = 1 + seed % 9
            rows = [((seed * 2654435761 + 97 * i) >> 3) % (1 << n) for i in range(n + 2)]
            mat = Gf2Matrix(rows, n)
            mat.transpose().rank()
            mat.solve(BitChain(mat.n_rows, seed % (1 << mat.n_rows)))
            mat.kernel_basis()
            mat.row_space_contains(BitChain(n, seed % (1 << n)))
            # n + 2 rows in n columns: the left-null block is never empty.
            mat.column_space_contains(BitChain(mat.n_rows, (seed * 7) % (1 << mat.n_rows)))
            mat.mul_bits(seed % (1 << n))
            del mat
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_racing_threads_fill_equal_caches():
    # Threads sharing one matrix may race to fill its caches; every racer
    # must read the same answers as the per-query reference.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            n = 24
            rows = [((seed + 3) * 2654435761 * (i + 1)) % (1 << n) for i in range(30)]
            b = BitChain(len(rows), (seed * 40503) % (1 << len(rows)))
            mat = Gf2Matrix(rows, n)
            want = (
                elimination_reference.rank(mat),
                elimination_reference.kernel_basis(mat),
                elimination_reference.solve(mat, b),
                elimination_reference.column_space_contains(mat, b),
                elimination_reference.rank(mat.transpose()),
            )
            got = []

            def work():
                got.append(
                    (
                        mat.rank(),
                        mat.kernel_basis(),
                        mat.solve(b),
                        mat.column_space_contains(b),
                        mat.transpose().rank(),
                    )
                )

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert got == [want] * len(threads)
    finally:
        sys.setswitchinterval(switch)
