from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.base import PartitionedBaseCode, gen_base
from fibercode.bundle import (
    PlainBase,
    build_bundle,
    build_fiber_bundle_code,
    cohomology_lift,
    cohomology_lift_basis,
    cycle_base,
    fiber_boundary,
    fiber_integration_maps,
    gauge_transform,
    homology_lift,
    homology_lift_basis,
    projection_maps,
    slide_normalize,
    verify_h1_iso,
)
from fibercode.complexes import coset_min_weight_exact
from fibercode.gf2 import BitChain
from fibercode.twists import TwistGraph, gen_twist_graph


def _two_var_base() -> PartitionedBaseCode:
    return cycle_base(2)


def _desk_base(n: int = 16, seed: int = 0) -> PartitionedBaseCode:
    code, cert = gen_base(n, delta=5, k_types=6, seed=seed)
    assert cert.passed
    return code


@st.composite
def _small_bundles(draw):
    length = draw(st.integers(min_value=2, max_value=4))
    mf = draw(st.integers(min_value=2, max_value=6))
    code = cycle_base(length)
    twists = {}
    for a, row in enumerate(code.adjacency):
        for b in row:
            twists[(b, a)] = draw(st.integers(min_value=0, max_value=mf - 1))
    return build_bundle(code, mf, twists)


class TestBuild:
    def test_torus_dimensions_and_betti(self):
        bundle = build_bundle(cycle_base(3), 4)
        assert bundle.complex.dims == (12, 24, 12)
        # Both fundamental directions survive upstairs; the base circle
        # contributes only one, since its zeroth homology is nonzero.
        assert bundle.complex.betti(1) == 2
        assert bundle.base_complex.betti(1) == 1

    def test_torus_css_distances(self):
        bundle = build_bundle(cycle_base(3), 4)
        css = bundle.css_code()
        css.validate()
        assert css.k_logical() == 2
        assert coset_min_weight_exact(bundle.complex, 1, "homology") == 3
        assert coset_min_weight_exact(bundle.complex, 1, "cohomology") == 3

    def test_twist_keys_validated(self):
        code = cycle_base(3)
        with pytest.raises(ValueError):
            build_bundle(code, 4, {(2, 0): 1})  # var 2 is not in check 0
        with pytest.raises(ValueError):
            build_bundle(code, 4, {(0, 0): 4})  # twist outside the fiber

    @pytest.mark.parametrize(
        "row", [(1, 1), (1, 0), (0, 2), (-1, 0)], ids=str
    )
    def test_base_adjacency_validated(self, row):
        """Each adjacency entry is a base 1-cell: strictly ascending and
        in range, whether or not the base's constructor ran."""
        with pytest.raises(ValueError):
            PlainBase(n=2, m=1, adjacency=(row,))
        with pytest.raises(ValueError):
            build_bundle(SimpleNamespace(n=2, m=1, adjacency=(row,)), 3)
        build_bundle(SimpleNamespace(n=2, m=1, adjacency=((0, 1),)), 3)

    def test_cell_layout_round_trip(self):
        bundle = build_bundle(cycle_base(3), 5)
        assert bundle.cell1_info(bundle.h_cell(2, 3)) == ("h", 2, 3)
        assert bundle.cell1_info(bundle.v_cell(1, 4)) == ("v", 1, 4)
        labels = bundle.complex.labels
        assert labels[1][bundle.h_cell(2, 3)] == "h2.3"
        assert labels[1][bundle.v_cell(1, 4)] == "v1.4"
        assert labels[0][bundle.c0_cell(2, 1)] == "c2.1"
        assert labels[2][bundle.c2_cell(0, 2)] == "q0.2"

    @given(_small_bundles())
    @settings(max_examples=25, deadline=None)
    def test_projection_and_integration_intertwine(self, bundle):
        p0, p1 = projection_maps(bundle)
        k1, k2 = fiber_integration_maps(bundle)
        d_base = bundle.base_complex.boundary(1)
        assert p0 @ bundle.complex.boundary(1) == d_base @ p1
        assert all(r == 0 for r in (p1 @ bundle.complex.boundary(2)).rows)
        assert k1 @ bundle.complex.boundary(2) == d_base @ k2

    def test_paper_construction_fiber_size(self):
        code = _desk_base()
        graph = gen_twist_graph(3, 6, seed=1)
        bundle = build_fiber_bundle_code(code, graph)
        assert bundle.m_fiber == 9
        assert bundle.ell == 3
        assert all(t % 3 == 0 for _, t in bundle.twists)


class TestH1Iso:
    def test_certified_base_gives_isomorphism(self):
        code = _desk_base()
        bundle = build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))
        report = verify_h1_iso(bundle)
        assert report.isomorphism_holds
        assert report.b1_base == report.b1_bundle == code.n - code.m
        css = bundle.css_code()
        assert css.k_logical() == report.b1_base

    def test_torus_fails_on_base_homology(self):
        report = verify_h1_iso(build_bundle(cycle_base(3), 4))
        assert not report.base_zeroth_homology_trivial
        assert not report.isomorphism_holds
        assert report.b1_base == 1 and report.b1_bundle == 2
        assert report.fiber_boundaries_even
        assert report.fiber_even_chains_bound
        assert report.twists_fix_fiber_cycles

    def test_report_dict_mirrors_fields(self):
        report = verify_h1_iso(build_bundle(cycle_base(2), 3))
        d = report.as_dict()
        assert d["isomorphism_holds"] == report.isomorphism_holds
        assert d["b1_bundle"] == report.b1_bundle


class TestLifts:
    def test_cohomology_lift_is_fiber_saturation(self):
        bundle = build_bundle(cycle_base(3), 4)
        z = BitChain.from_support(3, [1])
        lift = cohomology_lift(bundle, z)
        assert set(lift.iter_support()) == {bundle.h_cell(1, u) for u in range(4)}
        assert bundle.complex.is_nontrivial_cocycle(1, lift)

    def test_homology_lift_untwisted_needs_no_caps(self):
        bundle = build_bundle(cycle_base(4), 5)
        c = BitChain.from_support(4, [0, 1, 2, 3])
        lift = homology_lift(bundle, c)
        assert set(lift.iter_support()) == {bundle.h_cell(b, 0) for b in range(4)}
        assert bundle.complex.is_nontrivial_cycle(1, lift)

    def test_homology_lift_caps_follow_short_arc(self):
        bundle = build_bundle(_two_var_base(), 5, {(1, 0): 2})
        lift = homology_lift(bundle, BitChain.from_support(2, [0, 1]))
        assert set(lift.iter_support()) == {
            bundle.h_cell(0, 0),
            bundle.h_cell(1, 0),
            bundle.v_cell(0, 0),
            bundle.v_cell(0, 1),
        }
        assert bundle.complex.is_nontrivial_cycle(1, lift)

    def test_homology_lift_arc_tie_keeps_upward_side(self):
        # Mismatches sit at 0 and 2 on a length-4 fiber: both arcs weigh
        # two; the one leaving position 0 upward wins.
        bundle = build_bundle(_two_var_base(), 4, {(1, 0): 2})
        lift = homology_lift(bundle, BitChain.from_support(2, [0, 1]))
        verticals = {i for i in lift.iter_support() if i >= 8}
        assert verticals == {bundle.v_cell(0, 0), bundle.v_cell(0, 1)}

    def test_lift_projects_back_down(self):
        code = _desk_base()
        bundle = build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))
        _, p1 = projection_maps(bundle)
        for c in bundle.base_complex.homology_basis(1):
            lift = homology_lift(bundle, c)
            assert bundle.complex.is_nontrivial_cycle(1, lift)
            assert BitChain(code.n, p1.mul_bits(lift.bits)) == c

    def test_lift_bases_have_full_rank(self):
        code = _desk_base()
        bundle = build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))
        hom = homology_lift_basis(bundle)
        coh = cohomology_lift_basis(bundle)
        assert len(hom) == len(coh) == code.n - code.m
        for z in coh:
            assert bundle.complex.is_nontrivial_cocycle(1, z)

    def test_lift_rejects_non_cycles(self):
        bundle = build_bundle(cycle_base(3), 4)
        with pytest.raises(ValueError):
            homology_lift(bundle, BitChain.from_support(3, [0]))


class TestGauge:
    @given(_small_bundles(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_gauge_permutations_intertwine(self, bundle, data):
        mf = bundle.m_fiber
        rho_v = [
            data.draw(st.integers(0, mf - 1)) for _ in range(bundle.n_vars)
        ]
        rho_c = [
            data.draw(st.integers(0, mf - 1)) for _ in range(bundle.n_checks)
        ]
        regauged, (u0, u1, u2) = gauge_transform(bundle, rho_v, rho_c)
        assert u0 @ bundle.complex.boundary(1) == regauged.complex.boundary(1) @ u1
        assert u1 @ bundle.complex.boundary(2) == regauged.complex.boundary(2) @ u2
        for a, row in enumerate(bundle.base_code.adjacency):
            for b in row:
                t = bundle.twist_of.get((b, a), 0)
                assert (
                    regauged.twist_of.get((b, a), 0)
                    == (t + rho_c[a] - rho_v[b]) % mf
                )

    def test_gauge_rotates_edges_left_implicit(self):
        # Edges omitted from the twist dict still pick up the gauge shift.
        bundle = build_bundle(cycle_base(3), 4, {(0, 0): 1})
        regauged, (u0, u1, u2) = gauge_transform(bundle, [0, 0, 0], [3, 0, 0])
        assert regauged.twist_of.get((0, 0), 0) == 0
        assert regauged.twist_of.get((1, 0), 0) == 3
        assert u0 @ bundle.complex.boundary(1) == regauged.complex.boundary(1) @ u1
        assert u1 @ bundle.complex.boundary(2) == regauged.complex.boundary(2) @ u2

    def test_gauge_round_trip_restores_twists(self):
        bundle = build_bundle(cycle_base(3), 6, {(0, 0): 2, (1, 1): 4})
        rho_v, rho_c = [1, 3, 5], [2, 0, 4]
        regauged, _ = gauge_transform(bundle, rho_v, rho_c)
        back, _ = gauge_transform(
            regauged, [-r for r in rho_v], [-r for r in rho_c]
        )
        assert back.twists == bundle.twists

    def test_gauge_can_clear_the_modulus_tag(self):
        code = _desk_base()
        bundle = build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))
        regauged, _ = gauge_transform(
            bundle, [1] + [0] * (code.n - 1), [0] * code.m
        )
        assert regauged.ell is None


class TestSliding:
    def test_translates_displaced_cycle_home(self):
        bundle = build_bundle(cycle_base(3), 6)
        shifted = BitChain.from_support(
            36, [bundle.h_cell(b, 2) for b in range(3)]
        )
        result = slide_normalize(bundle, shifted, modulus=3)
        assert result.chain == BitChain.from_support(
            36, [bundle.h_cell(b, 0) for b in range(3)]
        )
        assert result.steps == 2
        moved = shifted ^ bundle.complex.boundary(2).mul_chain(result.two_chain)
        assert moved == result.chain

    def test_strings_pull_toward_their_caps(self):
        # Bulge the capped lift with a 2-cell that meets it in a single
        # vertical string edge; sliding must pull the bulge back in.
        bundle = build_bundle(_two_var_base(), 6, {(1, 0): 3})
        lift = homology_lift(bundle, BitChain.from_support(2, [0, 1]))
        d2 = bundle.complex.boundary(2)
        displaced = lift ^ d2.mul_chain(
            BitChain.from_support(12, [bundle.c2_cell(0, 1)])
        )
        assert displaced.weight() == lift.weight() + 2
        result = slide_normalize(bundle, displaced, modulus=3)
        assert result.chain.weight() <= lift.weight()
        for i in result.chain.iter_support():
            kind, _, pos = bundle.cell1_info(i)
            if kind == "h":
                assert pos % 3 == 0

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_never_heavier_and_stays_homologous(self, data):
        code = _desk_base()
        bundle = build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))
        basis = bundle.base_complex.homology_basis(1)
        c = basis[data.draw(st.integers(0, len(basis) - 1))]
        r = homology_lift(bundle, c)
        n2 = bundle.complex.dims[2]
        bump = BitChain.from_support(
            n2,
            data.draw(
                st.lists(st.integers(0, n2 - 1), max_size=4, unique=True)
            ),
        )
        r = r ^ bundle.complex.boundary(2).mul_chain(bump)
        result = slide_normalize(bundle, r)
        assert result.chain.weight() <= r.weight()
        rebuilt = r ^ bundle.complex.boundary(2).mul_chain(result.two_chain)
        assert rebuilt == result.chain
        for i in result.chain.iter_support():
            kind, _, pos = bundle.cell1_info(i)
            if kind == "h":
                assert pos % 3 == 0

    def test_rejects_open_chains_and_bad_moduli(self):
        bundle = build_bundle(cycle_base(3), 6, {(0, 0): 1})
        with pytest.raises(ValueError):
            slide_normalize(bundle, BitChain(36), modulus=None)
        with pytest.raises(ValueError):
            slide_normalize(bundle, BitChain(36), modulus=3)
        good = build_bundle(cycle_base(3), 6)
        with pytest.raises(ValueError):
            slide_normalize(
                good,
                BitChain.from_support(36, [good.h_cell(0, 1)]),
                modulus=3,
            )


class TestFiberBoundary:
    def test_small_cycle_matrix(self):
        fb = fiber_boundary(3)
        # Row i holds the 0-cell's incident edges: i and i - 1.
        assert list(fb.rows) == [0b101, 0b011, 0b110]
        assert fb.rank() == 2
        assert [v.bits for v in fb.kernel_basis()] == [0b111]
