import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.base import min_distance
from fibercode.bundle import PlainBase, build_bundle, cycle_base
from fibercode.complexes import ChainComplex
from fibercode.gf2 import BitChain, Gf2Matrix, to_alist
from fibercode.homotopy import (
    ChainMap,
    HomotopyEquivalence,
    collapse_cell,
    combine_cells,
    load_equivalence,
    save_equivalence,
    transpose_equivalence,
    weight_reduce_bundle,
    weight_reduce_classical,
)

import reduction_reference


def _path_complex(edges: int) -> ChainComplex:
    """A path with the given number of edges: betti (1, 0)."""
    cols = [[i, i + 1] for i in range(edges)]
    return ChainComplex(
        (edges + 1, edges),
        (Gf2Matrix.from_col_support(cols, edges + 1),),
        (
            tuple(f"p{i}" for i in range(edges + 1)),
            tuple(f"e{i}" for i in range(edges)),
        ),
    )


def _random_classical(seed: int, n_checks=(2, 5), n_bits=(3, 6)) -> ChainComplex:
    """Random 1-complex with every bit checked and every check inhabited."""
    rng = random.Random(seed)
    m = rng.randint(*n_checks)
    n = rng.randint(*n_bits)
    while True:
        cols = [
            sorted(rng.sample(range(m), rng.randint(1, min(3, m))))
            for _ in range(n)
        ]
        seen = {c for col in cols for c in col}
        if len(seen) == m:
            return ChainComplex((m, n), (Gf2Matrix.from_col_support(cols, m),))


class TestChainMap:
    def test_identity_is_chain_map_with_unit_lipschitz(self):
        cx = _path_complex(3)
        one = ChainMap.identity(cx)
        assert one.lipschitz() == (1, 1)
        assert one.transpose_lipschitz() == (1, 1)

    def test_rejects_non_chain_map(self):
        cx = _path_complex(2)
        maps = (Gf2Matrix.zeros(3, 3), Gf2Matrix.identity(2))
        with pytest.raises(ValueError, match="not a chain map"):
            ChainMap(cx, cx, maps)

    def test_rejects_wrong_shape(self):
        cx = _path_complex(2)
        with pytest.raises(ValueError, match="shape"):
            ChainMap(cx, cx, (Gf2Matrix.identity(2), Gf2Matrix.identity(2)))

    def test_composition_applies_right_map_first(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        back_and_forth = equiv.g @ equiv.f
        assert back_and_forth.source is cx and back_and_forth.target is cx
        # Forward then back is not the identity on the path (the homotopy
        # witnesses the difference), but is the identity on the merge.
        forth_and_back = equiv.f @ equiv.g
        for j, mat in enumerate(forth_and_back.maps):
            assert mat == Gf2Matrix.identity(merged.dims[j])

    def test_apply_moves_chains(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        image = equiv.g.apply(1, BitChain(1, 0b1))
        assert sorted(image.iter_support()) == [0, 1]

    def test_lipschitz_counts_column_and_row_weights(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        assert equiv.g.lipschitz() == (1, 2)
        assert equiv.f.transpose_lipschitz() == (2, 1)


class TestEquivalenceVerification:
    def test_identity_equivalence_verifies(self):
        cx = _path_complex(4)
        equiv = HomotopyEquivalence.identity(cx)
        assert equiv.verify()
        report = equiv.lipschitz_report()
        assert report["f"] == (1, 1)
        assert report["g_transpose"] == (1, 1)

    def test_corrupted_homotopy_fails_verification(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        assert equiv.verify()
        h0 = equiv.h_source[0]
        corrupted = Gf2Matrix(
            [h0.rows[0] ^ 0b1] + list(h0.rows[1:]), h0.n_cols
        )
        broken = HomotopyEquivalence(
            equiv.f, equiv.g, (corrupted, equiv.h_source[1]), equiv.h_target
        )
        assert not broken.verify()

    def test_zero_maps_cannot_be_an_equivalence_of_a_real_code(self):
        cx = _path_complex(2)
        zero = ChainMap(
            cx, cx, (Gf2Matrix.zeros(3, 3), Gf2Matrix.zeros(2, 2))
        )
        equiv = HomotopyEquivalence(
            zero,
            zero,
            (Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(0, 2)),
            (Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(0, 2)),
        )
        # gf + I = I needs h d + d h = I; a path has homology, so no
        # homotopy can contract it and this particular h certainly fails.
        assert not equiv.verify()

    def test_homotopy_shape_mismatch_rejected(self):
        cx = _path_complex(2)
        one = ChainMap.identity(cx)
        with pytest.raises(ValueError, match="homotopy"):
            HomotopyEquivalence(
                one,
                one,
                (Gf2Matrix.zeros(3, 3), Gf2Matrix.zeros(0, 2)),
                (Gf2Matrix.zeros(2, 3), Gf2Matrix.zeros(0, 2)),
            )


class TestCombine:
    def test_two_edge_path_merges_to_single_edge(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        assert merged.dims == (2, 1)
        assert merged.boundary(1).col_support(0) == (0, 1)
        assert merged.labels == (("p0", "p2"), ("e0",))
        assert equiv.verify()

    def test_hand_computed_maps(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        # Forward: e0 -> merged edge, e1 -> 0, middle point -> far endpoint.
        assert equiv.f.maps[1].col_support(0) == (0,)
        assert equiv.f.maps[1].col_support(1) == ()
        assert equiv.f.maps[0].col_support(1) == (1,)
        # Reverse opens the merged edge back up to both halves.
        assert equiv.g.maps[1].col_support(0) == (0, 1)
        # The homotopy pushes the removed point along the removed edge.
        assert equiv.h_source[0].col_support(1) == (1,)
        assert equiv.h_source[0].col_support(0) == ()
        for mat in equiv.h_target:
            assert mat.is_zero()

    def test_betti_preserved(self):
        cx = cycle_base(4).as_complex()
        merged, equiv = combine_cells(cx, 2)
        assert merged.betti(0) == cx.betti(0)
        assert merged.betti(1) == cx.betti(1)
        assert equiv.verify()

    def test_rejects_wrong_degree_vertices(self):
        star = ChainComplex(
            (4, 3),
            (Gf2Matrix.from_col_support([[0, 1], [0, 2], [0, 3]], 4),),
        )
        with pytest.raises(ValueError, match="coboundary"):
            combine_cells(star, 0)  # hub has three edges
        with pytest.raises(ValueError, match="coboundary"):
            combine_cells(star, 1)  # leaf has one
        with pytest.raises(ValueError, match="out of range"):
            combine_cells(star, 9)


class TestCollapse:
    def test_edge_collapse_merges_endpoints(self):
        cx = _path_complex(2)
        merged, equiv = collapse_cell(cx, 0)
        assert merged.dims == (2, 1)
        assert merged.labels == (("p0", "p2"), ("e1",))
        assert merged.boundary(1).col_support(0) == (0, 1)
        assert equiv.verify()

    def test_hand_computed_maps(self):
        cx = _path_complex(2)
        merged, equiv = collapse_cell(cx, 0)
        # Both endpoints of the collapsed edge land on the merged point.
        assert equiv.f.maps[0].col_support(0) == (0,)
        assert equiv.f.maps[0].col_support(1) == (0,)
        assert equiv.f.maps[1].col_support(0) == ()
        # The reverse map picks the lower endpoint and reroutes the
        # surviving edge through the collapsed one.
        assert equiv.g.maps[0].col_support(0) == (0,)
        assert equiv.g.maps[1].col_support(0) == (0, 1)
        assert equiv.h_source[0].col_support(1) == (0,)

    def test_cycle_collapse_keeps_loop(self):
        cx = cycle_base(3).as_complex()
        merged, equiv = collapse_cell(cx, 1)
        assert merged.betti(0) == 1
        assert merged.betti(1) == 1
        assert equiv.verify()

    def test_rejects_degenerate_edges(self):
        loop = ChainComplex((1, 1), (Gf2Matrix.zeros(1, 1),))
        with pytest.raises(ValueError, match="boundary"):
            collapse_cell(loop, 0)


class TestComposeAndTranspose:
    def test_combine_then_collapse_round_trip(self):
        cx = _path_complex(3)
        mid, eq1 = combine_cells(cx, 1)
        end, eq2 = collapse_cell(mid, 1)
        total = eq1.compose(eq2)
        assert total.verify()
        assert total.f.source is cx and total.f.target is end
        assert end.betti(0) == cx.betti(0) == 1
        # Exactness on the small side survives composition.
        for j, mat in enumerate((total.f @ total.g).maps):
            assert mat == Gf2Matrix.identity(end.dims[j])

    def test_compose_requires_matching_endpoints(self):
        cx = _path_complex(3)
        _, eq1 = combine_cells(cx, 1)
        with pytest.raises(ValueError, match="endpoints"):
            eq1.compose(eq1)

    def test_transpose_swaps_roles_and_verifies(self):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        flipped = transpose_equivalence(equiv)
        assert flipped.verify()
        assert flipped.f.source.dims == tuple(reversed(cx.dims))
        again = transpose_equivalence(flipped, source=cx, target=merged)
        assert again.verify()
        assert again.f.maps == equiv.f.maps
        assert again.g.maps == equiv.g.maps
        assert again.h_source == equiv.h_source
        # Supplied complexes must be the transposes: the result inherits
        # the verified record, which a foreign complex would void.
        with pytest.raises(ValueError, match="transposed"):
            transpose_equivalence(flipped, source=merged, target=merged)


class TestRandomRewrites:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_any_legal_rewrite_gives_verified_equivalence(self, seed):
        cx = _random_classical(seed)
        rng = random.Random(seed + 1)
        d1 = cx.boundary(1)
        combinable = [
            v for v in range(cx.dims[0]) if len(d1.row_support(v)) == 2
        ]
        collapsible = [
            e for e in range(cx.dims[1]) if len(d1.col_support(e)) == 2
        ]
        moves = [("combine", v) for v in combinable] + [
            ("collapse", e) for e in collapsible
        ]
        if not moves:
            return
        kind, cell = rng.choice(moves)
        rewritten, equiv = (
            combine_cells(cx, cell) if kind == "combine" else collapse_cell(cx, cell)
        )
        assert equiv.verify()
        assert rewritten.betti(0) == cx.betti(0)
        assert rewritten.betti(1) == cx.betti(1)


class TestClassicalReduction:
    def test_single_bit_three_checks(self):
        cx = ChainComplex(
            (3, 1), (Gf2Matrix.from_col_support([[0, 1, 2]], 3),)
        )
        reduced, equiv = weight_reduce_classical(cx)
        assert reduced.dims == (5, 3)
        assert equiv.verify()
        assert reduced.labels[1] == ("b0.c0", "b0.c1", "b0.c2")
        assert reduced.labels[0] == ("c0.b0", "c1.b0", "c2.b0", "ac0.1", "ac0.2")

    def test_cell_counts_and_degrees(self):
        code = cycle_base(5)
        cx = code.as_complex()
        edges = sum(len(row) for row in code.adjacency)
        reduced, equiv = weight_reduce_classical(code)
        assert reduced.dims == (2 * edges - cx.dims[1], 2 * edges - cx.dims[0])
        d1 = reduced.boundary(1)
        col_degs = {len(d1.col_support(j)) for j in range(reduced.dims[1])}
        row_degs = {len(d1.row_support(i)) for i in range(reduced.dims[0])}
        assert col_degs <= {2, 3}
        assert row_degs <= {2, 3}

    def test_equivalence_lands_back_on_original(self):
        cx = _random_classical(7)
        reduced, equiv = weight_reduce_classical(cx)
        assert equiv.f.source is reduced
        assert equiv.f.target is cx
        assert equiv.verify()
        for j in range(2):
            assert equiv.f.maps[j] @ equiv.g.maps[j] == Gf2Matrix.identity(
                cx.dims[j]
            )
            assert equiv.h_target[j].is_zero()

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_random_codes_reduce_and_verify(self, seed):
        cx = _random_classical(seed)
        reduced, equiv = weight_reduce_classical(cx)
        assert equiv.verify()
        assert reduced.betti(0) == cx.betti(0)
        assert reduced.betti(1) == cx.betti(1)
        d1 = reduced.boundary(1)
        assert d1.max_col_weight() <= 3
        assert d1.max_row_weight() <= 3

    def test_rejects_unchecked_bits_and_empty_checks(self):
        dangling_bit = ChainComplex(
            (1, 2), (Gf2Matrix.from_col_support([[0], []], 1),)
        )
        with pytest.raises(ValueError, match="every bit"):
            weight_reduce_classical(dangling_bit)
        empty_check = ChainComplex(
            (2, 1), (Gf2Matrix.from_col_support([[0]], 2),)
        )
        with pytest.raises(ValueError, match="every bit"):
            weight_reduce_classical(empty_check)

    def test_distance_transport_bound_is_sharp_enough(self):
        # The repetition code on a 5-cycle: distance 5 before reduction.
        code = cycle_base(5)
        reduced, equiv = weight_reduce_classical(code)
        d_orig, method = min_distance(code.matrix())
        assert method == "exact"
        reduced_mat = reduced.boundary(1)
        d_red, method = min_distance(reduced_mat)
        assert method == "exact"
        k1 = equiv.f.lipschitz()[1]
        # A reduced codeword maps to a nonzero original codeword at most
        # k1 times heavier, so d_reduced >= d_original / k1.
        assert d_red * k1 >= d_orig
        assert d_red >= 5  # copies only subdivide; distance cannot drop


class TestBundleReduction:
    def test_twisted_cycle_bundle(self):
        bundle = build_bundle(cycle_base(3), 4, {(0, 0): 1, (1, 0): 2})
        reduced, equiv = weight_reduce_bundle(bundle)
        assert equiv.verify()
        assert equiv.f.source is reduced.complex
        assert equiv.f.target is bundle.complex
        assert reduced.complex.betti(1) == bundle.complex.betti(1)
        for j in range(3):
            assert equiv.f.maps[j] @ equiv.g.maps[j] == Gf2Matrix.identity(
                bundle.complex.dims[j]
            )
            assert equiv.h_target[j].is_zero()

    def test_reduced_stabilizers_are_bounded(self):
        bundle = build_bundle(cycle_base(4), 3, {(1, 1): 2, (3, 2): 1})
        reduced, _ = weight_reduce_bundle(bundle)
        css = reduced.css_code()
        css.validate()
        assert css.h_x.max_row_weight() <= 6
        assert css.h_z.max_row_weight() <= 6

    def test_untwisted_torus_reduces(self):
        bundle = build_bundle(cycle_base(3), 2)
        reduced, equiv = weight_reduce_bundle(bundle)
        assert equiv.verify()
        assert reduced.ell == bundle.ell
        assert reduced.complex.betti(1) == bundle.complex.betti(1) == 2

    def test_reduced_twists_sit_on_copy_edges(self):
        bundle = build_bundle(cycle_base(3), 5, {(2, 2): 3})
        reduced, _ = weight_reduce_bundle(bundle)
        live = {t for t in reduced.twist_of.values() if t % 5}
        assert live == {3}
        labels = reduced.base_complex.labels
        for (b, a), t in reduced.twist_of.items():
            if t % 5:
                assert labels[1][b] == "b2.c2"
                assert labels[0][a] == "c2.b2"

    def test_fiber_ell_carries_over(self):
        twists = {(0, 0): 3, (1, 1): 6}
        bundle = build_bundle(cycle_base(3), 9, twists)
        bundle = type(bundle)(
            base_code=bundle.base_code,
            m_fiber=bundle.m_fiber,
            twists=bundle.twists,
            complex=bundle.complex,
            ell=3,
        )
        reduced, equiv = weight_reduce_bundle(bundle)
        assert reduced.ell == 3
        assert equiv.verify()


class TestPlainBase:
    def test_round_trip_through_complex(self):
        cx = cycle_base(4).as_complex()
        plain = PlainBase.from_complex(cx)
        assert plain.as_complex() == cx
        assert plain.n == 4 and plain.m == 4

    def test_bundles_agree_with_partitioned_base(self):
        code = cycle_base(3)
        twists = {(0, 0): 1, (2, 2): 2}
        direct = build_bundle(code, 3, twists)
        via_plain = build_bundle(
            PlainBase.from_complex(code.as_complex()), 3, twists
        )
        assert direct.complex == via_plain.complex

    def test_validation(self):
        with pytest.raises(ValueError, match="adjacency row per check"):
            PlainBase(n=2, m=2, adjacency=((0,),))
        with pytest.raises(ValueError, match="out of range"):
            PlainBase(n=2, m=1, adjacency=((0, 5),))
        with pytest.raises(ValueError, match="sorted"):
            PlainBase(n=2, m=1, adjacency=((1, 0),))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cx = _random_classical(11)
        reduced, equiv = weight_reduce_classical(cx)
        save_equivalence(equiv, tmp_path / "eq")
        loaded = load_equivalence(tmp_path / "eq")
        assert loaded.verify()
        assert loaded.f.maps == equiv.f.maps
        assert loaded.g.maps == equiv.g.maps
        assert loaded.h_source == equiv.h_source
        assert loaded.f.source.dims == reduced.dims

    def test_tampering_is_caught(self, tmp_path):
        cx = _path_complex(2)
        merged, equiv = combine_cells(cx, 1)
        save_equivalence(equiv, tmp_path / "eq")
        target = tmp_path / "eq" / "h_source0.alist"
        zero = Gf2Matrix.zeros(
            equiv.h_source[0].n_rows, equiv.h_source[0].n_cols
        )
        target.write_text(to_alist(zero))
        with pytest.raises(ValueError):
            load_equivalence(tmp_path / "eq")

    @pytest.mark.parametrize(
        "case", ["list", "no_files", "no_tag", "scalar_dims", "escaping_name"]
    )
    def test_malformed_manifest_raises_value_error(self, tmp_path, case):
        cx = _path_complex(2)
        _, equiv = combine_cells(cx, 1)
        directory = tmp_path / "run" / "eq"
        path = save_equivalence(equiv, directory)
        manifest = json.loads(path.read_text())
        if case == "list":
            manifest = [manifest]
        elif case == "no_files":
            del manifest["files"]
        elif case == "no_tag":
            del manifest["files"]["h_target"]
        elif case == "scalar_dims":
            manifest["source_dims"] = 5
        else:
            # A valid matrix outside the directory must still be refused.
            (tmp_path / "f0.alist").write_text((directory / "f0.alist").read_text())
            manifest["files"]["f"][0] = "../../f0.alist"
        # Written as save_equivalence formats it, so only the fault differs.
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ValueError):
            load_equivalence(directory)

    def test_only_the_written_bytes_load(self, tmp_path):
        cx = _path_complex(2)
        _, equiv = combine_cells(cx, 1)
        directory = tmp_path / "eq"
        path = save_equivalence(equiv, directory)
        text = path.read_text()
        assert load_equivalence(directory) == equiv
        f0 = directory / "f0.alist"
        alist = f0.read_bytes()
        for name, bad in (
            ("manifest.json", json.dumps(json.loads(text), indent=1)),
            ("manifest.json", text.replace("\n", "\r\n")),
            ("f0.alist", alist.decode().replace("\n", "\r\n")),
        ):
            (directory / name).write_bytes(bad.encode())
            with pytest.raises(ValueError):
                load_equivalence(directory)
            path.write_text(text)
            f0.write_bytes(alist)
        assert load_equivalence(directory) == equiv


def _assert_same_equivalence(got, want):
    assert got.f.source == want.f.source
    assert got.f.target == want.f.target
    assert got.f.maps == want.f.maps
    assert got.g.maps == want.g.maps
    assert got.h_source == want.h_source
    assert got.h_target == want.h_target


@st.composite
def _small_bases(draw) -> ChainComplex:
    """Tanner graphs with up to 5 checks; checks left uncovered get a
    degree-1 bit of their own, so isolated edges, degree-1 bits and
    several components all occur."""
    m = draw(st.integers(1, 5))
    cols = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    cols = [sorted(col) for col in cols]
    covered = {c for col in cols for c in col}
    cols += [[c] for c in range(m) if c not in covered]
    return ChainComplex((m, len(cols)), (Gf2Matrix.from_col_support(cols, m),))


@st.composite
def _small_bundles(draw):
    base = PlainBase.from_complex(draw(_small_bases()))
    mf = draw(st.integers(1, 9))
    edges = [(b, a) for a, row in enumerate(base.adjacency) for b in row]
    twists = draw(
        st.lists(st.integers(0, mf - 1), min_size=len(edges), max_size=len(edges))
    )
    return build_bundle(base, mf, dict(zip(edges, twists)))


def _base(m: int, cols: list[list[int]]) -> PlainBase:
    return PlainBase.from_complex(
        ChainComplex((m, len(cols)), (Gf2Matrix.from_col_support(cols, m),))
    )


class TestClosedFormMatchesReference:
    """The closed-form reduction equals the composite of verified
    elementary rewrites in tests/reduction_reference.py, matrix for
    matrix."""

    def _check_bundle(self, bundle):
        reduced, equiv = weight_reduce_bundle(bundle)
        want_reduced, want = reduction_reference.weight_reduce_bundle(bundle)
        assert reduced == want_reduced
        _assert_same_equivalence(equiv, want)

    @pytest.mark.parametrize(
        "bundle",
        [
            build_bundle(cycle_base(4), 5, {(0, 0): 1, (2, 1): 3}),
            # isolated edge
            build_bundle(_base(1, [[0]]), 3, {(0, 0): 2}),
            # two components, each rooted at a degree-1 bit whose check
            # has two bits: both anchor turns are nonzero
            build_bundle(
                _base(3, [[0], [0, 1], [1], [2], [2]]),
                4,
                {(0, 0): 3, (1, 0): 1, (1, 1): 2, (2, 1): 1, (3, 2): 1},
            ),
            build_bundle(cycle_base(3), 5),  # zero twists
            build_bundle(cycle_base(3), 1),  # one-cell fiber
        ],
        ids=["toy", "isolated-edge", "anchored-components", "untwisted", "mf1"],
    )
    def test_named_bundles(self, bundle):
        self._check_bundle(bundle)

    @given(_small_bundles())
    @settings(max_examples=40, deadline=None)
    def test_random_bundles(self, bundle):
        self._check_bundle(bundle)

    @given(_small_bases())
    @settings(max_examples=40, deadline=None)
    def test_random_classical(self, cx):
        reduced, equiv = weight_reduce_classical(cx)
        want_reduced, want = reduction_reference.weight_reduce_classical(cx)
        assert reduced == want_reduced
        _assert_same_equivalence(equiv, want)

    def test_each_reduction_verifies_once(self, monkeypatch):
        calls = []
        verify = HomotopyEquivalence.verify

        def counting(equiv):
            calls.append(equiv)
            return verify(equiv)

        monkeypatch.setattr(HomotopyEquivalence, "verify", counting)
        weight_reduce_classical(cycle_base(4))
        assert len(calls) == 1
        weight_reduce_bundle(build_bundle(cycle_base(4), 3, {(1, 1): 2}))
        assert len(calls) == 2
