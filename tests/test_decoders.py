"""Decoder behaviour pinned on small hand-checked bundles.

The toy bundles are circle fibers over a four-cycle base, small enough
that corrections, syndromes, witnesses, and step counts were worked out
by hand before being frozen here.  A medium twisted instance exercises
the same paths at realistic degrees.
"""

import random
from unittest import mock

import decoder_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibercode import decoders
from fibercode.base import gen_base
from fibercode.bundle import (
    PlainBase,
    build_bundle,
    build_fiber_bundle_code,
    cycle_base,
    fiber_integration_maps,
    projection_maps,
)
from fibercode.decoders import (
    Amendment,
    DecodeResult,
    DecodeSuccess,
    _exact_optimum,
    _fiber_parities,
    _interval_completion,
    amendment_chain,
    decode_brute_force,
    decode_erasure_x,
    decode_via_homotopy,
    decode_x,
    decode_z,
    fixable_test,
    flip_solve_coboundary,
    with_coset_verdict,
)
from fibercode.gf2 import BitChain, Gf2Matrix
from fibercode.homotopy import (
    ChainMap,
    HomotopyEquivalence,
    reverse_equivalence,
    transpose_equivalence,
    weight_reduce_classical,
)
from fibercode.twists import gen_twist_graph


@pytest.fixture(scope="module")
def toy():
    """Four-cycle base, fiber length 5, two nonzero twists."""
    return build_bundle(cycle_base(4), 5, {(0, 0): 1, (2, 1): 3})


@pytest.fixture(scope="module")
def toy_plain():
    """Four-cycle base, fiber length 5, no twists (a plain torus)."""
    return build_bundle(cycle_base(4), 5)


@pytest.fixture(scope="module")
def desk():
    """Certified medium instance: 16-bit base, nine-cell fiber."""
    code, _ = gen_base(16, 5, 6, seed=0)
    return build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))


@pytest.fixture(scope="module")
def n24():
    """Certified 24-bit base over the same twist graph as ``desk``."""
    code, _ = gen_base(24, 6, 6, seed=0)
    return build_fiber_bundle_code(code, gen_twist_graph(3, 6, seed=1))


def split_chain(bundle, a):
    """Near check ``a``, in aligned coordinates, half of the base 1-cells
    hold the low m_F // 2 fiber slots and as many hold the next m_F // 2.

    No fiber and no slot is over half full, yet flipping one half's
    fibers lines every occupied cell up in the same slots, so the best
    rewrite vacates far more cells than the chain does.
    """
    mf, half = bundle.m_fiber, bundle.m_fiber // 2
    bits_of_a = bundle.base_code.adjacency[a]
    pairs = len(bits_of_a) // 2
    cells = []
    for i, b in enumerate(bits_of_a[: 2 * pairs]):
        tw = bundle.twist_of.get((b, a), 0)
        start = 0 if i < pairs else half
        cells += [
            bundle.h_cell(b, (j - tw) % mf) for j in range(start, start + half)
        ]
    return BitChain.from_support(bundle.complex.dims[1], cells)


def syndrome_x(bundle, error):
    return bundle.complex.boundary(2).transpose().mul_chain(error)


def syndrome_z(bundle, error):
    return bundle.complex.boundary(1).mul_chain(error)


class TestFlipSolveCoboundary:
    def test_solves_two_variable_target(self):
        adjacency = cycle_base(4).adjacency
        target = BitChain.from_support(4, [1, 2])
        solution, toggles = flip_solve_coboundary(adjacency, 4, target)
        assert solution == BitChain.from_support(4, [1])
        assert toggles == 1

    def test_stalls_on_single_variable_target(self):
        adjacency = cycle_base(4).adjacency
        target = BitChain.from_support(4, [0])
        solution, toggles = flip_solve_coboundary(adjacency, 4, target)
        assert solution is None
        assert toggles == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            flip_solve_coboundary(((0,), (1,)), 3, BitChain(2, 0))


class TestIntervalCompletion:
    def test_hand_example(self):
        # Width 5, pattern on slots 1 and 3: the lighter solution
        # occupies slots 2 and 3.
        assert _interval_completion(5, 0b01010) == 0b01100

    def test_rejects_odd_parity(self):
        with pytest.raises(ValueError):
            _interval_completion(4, 0b0001)

    @given(width=st.integers(2, 12), raw=st.integers(0, 2**12 - 1))
    @settings(max_examples=200)
    def test_matches_pattern_and_is_light(self, width, raw):
        pattern = raw & ((1 << width) - 1)
        if int.bit_count(pattern) % 2:
            pattern ^= 1
        chi = _interval_completion(width, pattern)
        for i in range(width):
            step = ((chi >> i) ^ (chi >> ((i + 1) % width))) & 1
            assert step == (pattern >> i) & 1
        weight = int.bit_count(chi)
        assert 2 * weight <= width
        if 2 * weight == width:
            assert not chi & 1


class TestDecodeX:
    def test_zero_syndrome(self, toy):
        res = decode_x(toy, BitChain(20, 0))
        assert res.success is DecodeSuccess.MATCHED
        assert res.correction == BitChain(40, 0)
        assert res.steps == 0

    def test_rejects_bad_syndrome_length(self, toy):
        with pytest.raises(ValueError):
            decode_x(toy, BitChain(19, 0))

    def test_rejects_unreachable_syndrome(self, toy):
        # A single violated 2-cell has odd overlap with the all-ones
        # 2-cycle, so no qubit chain produces it.
        with pytest.raises(ValueError):
            decode_x(toy, BitChain(20, 1))

    def test_every_single_horizontal_error_recovered_exactly(self, toy):
        for b in range(toy.n_vars):
            for u in range(toy.m_fiber):
                truth = BitChain.from_support(40, [toy.h_cell(b, u)])
                res = decode_x(toy, syndrome_x(toy, truth))
                assert res.correction == truth
                assert res.success is DecodeSuccess.MATCHED
                assert res.notes["flip_toggles"] == 0
                assert res.notes["amendments"] == 0
                verdict = with_coset_verdict(
                    toy.complex, 1, res, truth, cohomology=True
                )
                assert verdict.success is DecodeSuccess.VERIFIED
                assert verdict.notes["coset_correct"] is True

    def test_every_single_vertical_error_recovered_exactly(self, toy):
        for a in range(toy.n_checks):
            for i in range(toy.m_fiber):
                truth = BitChain.from_support(40, [toy.v_cell(a, i)])
                res = decode_x(toy, syndrome_x(toy, truth))
                assert res.correction == truth
                assert res.success is DecodeSuccess.MATCHED
                assert res.notes["flip_toggles"] == 1
                expected_amendments = 0 if i == 0 else 1
                assert res.notes["amendments"] == expected_amendments
                assert res.steps == 1 + expected_amendments
                verdict = with_coset_verdict(
                    toy.complex, 1, res, truth, cohomology=True
                )
                assert verdict.success is DecodeSuccess.VERIFIED

    def test_fiber_integration_of_syndromes(self, toy):
        _, k2 = fiber_integration_maps(toy)
        for a in range(toy.n_checks):
            truth = BitChain.from_support(40, [toy.v_cell(a, 2)])
            pushed = k2.mul_chain(syndrome_x(toy, truth))
            assert pushed == BitChain.from_support(
                4, toy.base_code.adjacency[a]
            )
        horizontal = BitChain.from_support(40, [toy.h_cell(1, 3)])
        assert k2.mul_chain(syndrome_x(toy, horizontal)) == BitChain(4, 0)

    def test_fiber_parities_match_the_maps(self, toy):
        _, k2 = fiber_integration_maps(toy)
        p0, _ = projection_maps(toy)
        rng = random.Random(3)
        for _ in range(200):
            bits = rng.getrandbits(20)
            assert _fiber_parities(bits, 4, 5).bits == k2.mul_bits(bits)
            assert _fiber_parities(bits, 4, 5).bits == p0.mul_bits(bits)

    def test_adjacent_vertical_pair_stalls_base_flip(self, toy):
        truth = BitChain.from_support(
            40, [toy.v_cell(0, 1), toy.v_cell(1, 3)]
        )
        res = decode_x(toy, syndrome_x(toy, truth))
        assert res.success is DecodeSuccess.FAILED
        assert res.notes["stage"] == "base-flip-stall"
        assert res.correction == BitChain(40, 0)
        assert res.steps == 0

    def test_weight_two_syndrome_match_both_modes(self, toy):
        rng = random.Random(99)
        d2t = toy.complex.boundary(2).transpose()
        for _ in range(40):
            cells = rng.sample(range(40), 2)
            truth = BitChain.from_support(40, cells)
            s = syndrome_x(toy, truth)
            for mode in ("exact", "alternating"):
                res = decode_x(toy, s, mode=mode)
                if res.success is DecodeSuccess.FAILED:
                    assert res.notes["stage"] == "base-flip-stall"
                    assert res.correction == BitChain(40, 0)
                else:
                    assert res.success is DecodeSuccess.MATCHED
                    assert d2t.mul_chain(res.correction) == s
                    assert res.notes["amendments"] <= 40
                    assert res.notes["mode"] == mode

    def test_deterministic(self, toy):
        truth = BitChain.from_support(40, [toy.v_cell(2, 4), toy.h_cell(0, 1)])
        s = syndrome_x(toy, truth)
        assert decode_x(toy, s) == decode_x(toy, s)


class TestFixableTest:
    def test_full_horizontal_fiber_is_flipped_away(self, toy):
        b = 1
        e = BitChain.from_support(
            40, [toy.h_cell(b, u) for u in range(toy.m_fiber)]
        )
        for a in toy.var_checks[b]:
            for mode in ("exact", "alternating"):
                amendment = fixable_test(toy, e, a, mode)
                assert amendment == Amendment((b,), (), 5)
            chain = amendment_chain(toy, a, fixable_test(toy, e, a))
            assert chain == e  # applying it clears the chain

    def test_clean_chains_are_not_fixable(self, toy):
        zero = BitChain(40, 0)
        single = BitChain.from_support(40, [toy.h_cell(2, 3)])
        for a in range(toy.n_checks):
            for mode in ("exact", "alternating"):
                assert fixable_test(toy, zero, a, mode) is None
                assert fixable_test(toy, single, a, mode) is None

    def test_amendments_are_syndrome_neutral(self, toy):
        rng = random.Random(17)
        for _ in range(25):
            a = rng.randrange(toy.n_checks)
            bits_of_a = toy.base_code.adjacency[a]
            base_cells = tuple(
                b for b in bits_of_a if rng.random() < 0.5
            )
            fiber_cells = tuple(
                j for j in range(toy.m_fiber) if rng.random() < 0.5
            )
            chain = amendment_chain(
                toy, a, Amendment(base_cells, fiber_cells, 0)
            )
            assert syndrome_x(toy, chain) == BitChain(20, 0)

    def test_rejects_foreign_base_cell(self, toy):
        with pytest.raises(ValueError):
            amendment_chain(toy, 0, Amendment((2,), (), 0))

    def test_rejects_bad_inputs(self, toy, desk):
        with pytest.raises(ValueError):
            fixable_test(toy, BitChain(39, 0), 0)
        with pytest.raises(ValueError):
            fixable_test(toy, BitChain(40, 0), 0, "bogus")
        single = syndrome_x(desk, BitChain.from_support(252, [7]))
        # Stage 1 stalls on this one, so no fixable test runs.
        stall = syndrome_x(
            toy, BitChain.from_support(40, [toy.v_cell(0, 1), toy.v_cell(1, 3)])
        )
        for ratio in (1.5, 1.2, 0, -1, float("nan")):
            for a in range(toy.n_checks):
                with pytest.raises(ValueError):
                    fixable_test(toy, BitChain(40, 0), a, ratio=ratio)
            with pytest.raises(ValueError):
                decode_x(desk, single, ratio=ratio)
            with pytest.raises(ValueError):
                decode_x(toy, stall, ratio=ratio)

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 2 / 3, 0.8, 0.85, 1, 1.0])
    def test_ratios_match_reference(self, desk, ratio):
        """Random light chains, and one split chain per check, which only
        the ratio condition can make fixable."""
        n_qubits = desk.complex.dims[1]
        rng = random.Random(f"ratio-{ratio}")
        chains = [
            BitChain.from_support(
                n_qubits, rng.sample(range(n_qubits), rng.randrange(1, 12))
            )
            for _ in range(20)
        ] + [split_chain(desk, a) for a in range(desk.n_checks)]
        for e in chains:
            for a in range(desk.n_checks):
                assert fixable_test(desk, e, a, ratio=ratio) == (
                    decoder_reference.fixable_test(desk, e, a, ratio=ratio)
                )

    @pytest.mark.parametrize("instance", ["desk", "n24"])
    def test_matches_reference_on_both_paths(self, request, instance):
        """Every check of random chains, light and dense, in both modes.

        Light chains are settled by the satisfaction bound before any
        optimizer runs; dense ones reach the optimum. Both paths must be
        taken, and every answer must equal the reference's.
        """
        bundle = request.getfixturevalue(instance)
        n_qubits = bundle.complex.dims[1]
        tests = 0

        @given(
            st.sampled_from(["exact", "alternating"]),
            st.one_of(
                st.sampled_from([0.5, 0.8, 1.0]),
                st.floats(0, 1, exclude_min=True),
            ),
            st.integers(0, n_qubits // 2),
            st.randoms(use_true_random=False),
        )
        @settings(max_examples=40, deadline=None)
        def check(mode, ratio, weight, rng):
            nonlocal tests
            e = BitChain.from_support(
                n_qubits, rng.sample(range(n_qubits), weight)
            )
            tests += bundle.n_checks
            for a in range(bundle.n_checks):
                assert fixable_test(bundle, e, a, mode, ratio=ratio) == (
                    decoder_reference.fixable_test(
                        bundle, e, a, mode, ratio=ratio
                    )
                )

        with mock.patch.object(
            decoders, "_exact_optimum", wraps=decoders._exact_optimum
        ) as exact, mock.patch.object(
            decoders,
            "_alternating_optimum",
            wraps=decoders._alternating_optimum,
        ) as alternating:
            check()
        optimum = exact.call_count + alternating.call_count
        assert 0 < optimum < tests

    def test_exact_mode_refuses_high_degree(self):
        base = PlainBase(n=17, m=1, adjacency=(tuple(range(17)),))
        bundle = build_bundle(base, 3)
        e = BitChain(bundle.complex.dims[1], 0)
        with pytest.raises(ValueError):
            fixable_test(bundle, e, 0, "exact")
        assert fixable_test(bundle, e, 0, "alternating") is None


@st.composite
def occupancy_rows(draw):
    """Rows of a deg x m_F occupancy, often all-zero or all-one."""
    deg = draw(st.integers(1, 12))
    mf = draw(st.integers(1, 30))
    full = (1 << mf) - 1
    row = st.one_of(st.sampled_from([0, full]), st.integers(0, full))
    return draw(st.lists(row, min_size=deg, max_size=deg)), mf


@given(occupancy_rows())
@settings(max_examples=300, deadline=None)
@example(([0] * 12, 7))
@example(([127] * 12, 7))
@example(([0, 127] * 6, 7))
@example(([0, 127], 7))
@example(([1], 1))
def test_exact_optimum_matches_reference(case):
    """The Gray-table product against the incremental Gray walk.

    Uniform and half-flipped rows make many masks tie, so the first
    maximum in Gray order must be the one both keep.
    """
    rows, mf = case
    occupancy = np.array(
        [[(r >> j) & 1 for j in range(mf)] for r in rows], dtype=np.uint8
    )
    assert _exact_optimum(occupancy) == decoder_reference._exact_optimum(
        rows, len(rows), mf
    )


class TestDecodeXMatchesReference:
    """Whole ``decode_x`` runs with the reference ``fixable_test`` patched in.

    Every weight-1 X error, seeded weight-2 and weight-3 errors, and
    fewer denser ones of weights 4 to 8, in both modes; each
    ``DecodeResult`` (correction, success, steps and notes) must be
    equal.
    """

    @pytest.mark.parametrize("mode", ["exact", "alternating"])
    @pytest.mark.parametrize("instance", ["desk", "n24"])
    def test_results_equal(self, request, monkeypatch, instance, mode):
        bundle = request.getfixturevalue(instance)
        n_qubits = bundle.complex.dims[1]
        rng = random.Random(f"{instance}-{mode}")
        supports = [[cell] for cell in range(n_qubits)] + [
            rng.sample(range(n_qubits), weight)
            for weight in (2, 3, 4, 5, 6, 7, 8)
            for _ in range(15 if weight < 4 else 3)
        ]
        syndromes = [
            syndrome_x(bundle, BitChain.from_support(n_qubits, support))
            for support in supports
        ]
        fast = [decode_x(bundle, s, mode=mode) for s in syndromes]
        assert any(r.notes.get("amendments") for r in fast)
        monkeypatch.setattr(
            decoders, "fixable_test", decoder_reference.fixable_test
        )
        assert [decode_x(bundle, s, mode=mode) for s in syndromes] == fast


class TestDecodeErasureX:
    def test_empty_erasure(self, toy_plain):
        res = decode_erasure_x(toy_plain, [], BitChain(20, 0))
        assert res.success is DecodeSuccess.MATCHED
        assert res.steps == 0
        leftover = syndrome_x(
            toy_plain, BitChain.from_support(40, [toy_plain.h_cell(0, 0)])
        )
        res = decode_erasure_x(toy_plain, [], leftover)
        assert res.success is DecodeSuccess.FAILED
        assert res.notes["remaining_syndrome"] == 2

    def test_interval_is_peeled_exactly(self, toy_plain):
        erased = [toy_plain.h_cell(0, u) for u in range(4)]
        truth = BitChain.from_support(40, [toy_plain.h_cell(0, 2)])
        res = decode_erasure_x(toy_plain, erased, syndrome_x(toy_plain, truth))
        assert res.success is DecodeSuccess.MATCHED
        assert res.correction == truth
        assert res.notes == {
            "removals": 4,
            "pushes": 0,
            "remaining_syndrome": 0,
        }
        assert res.steps == 4

    def test_blocked_vertical_is_pushed_across_a_star(self, toy_plain):
        erased = [
            toy_plain.v_cell(0, 1),
            toy_plain.v_cell(0, 2),
            toy_plain.h_cell(0, 2),
            toy_plain.h_cell(1, 2),
        ]
        truth = BitChain.from_support(40, [toy_plain.v_cell(0, 1)])
        res = decode_erasure_x(toy_plain, erased, syndrome_x(toy_plain, truth))
        assert res.success is DecodeSuccess.MATCHED
        assert res.notes["pushes"] == 1
        assert res.notes["removals"] == 3
        assert res.correction == BitChain.from_support(
            40,
            [
                toy_plain.h_cell(0, 2),
                toy_plain.h_cell(1, 2),
                toy_plain.v_cell(0, 2),
            ],
        )
        verdict = with_coset_verdict(
            toy_plain.complex, 1, res, truth, cohomology=True
        )
        assert verdict.success is DecodeSuccess.VERIFIED

    def test_full_fiber_stalls(self, toy_plain):
        erased = [toy_plain.h_cell(0, u) for u in range(5)]
        res = decode_erasure_x(toy_plain, erased, BitChain(20, 0))
        assert res.success is DecodeSuccess.FAILED
        assert res.notes["stage"] == "stalled"
        assert res.notes["remaining"] == 5

    def test_rejects_out_of_range_cells(self, toy_plain):
        with pytest.raises(ValueError):
            decode_erasure_x(toy_plain, [40], BitChain(20, 0))
        with pytest.raises(ValueError):
            decode_erasure_x(toy_plain, [-1], BitChain(20, 0))

    def test_random_erasures_decode_within_the_coset(self, toy_plain):
        rng = random.Random(7)
        d2t = toy_plain.complex.boundary(2).transpose()
        matched = 0
        for _ in range(60):
            erased = rng.sample(range(40), rng.randint(1, 6))
            support = [c for c in erased if rng.random() < 0.5]
            truth = BitChain.from_support(40, support)
            s = syndrome_x(toy_plain, truth)
            res = decode_erasure_x(toy_plain, erased, s)
            if res.success is DecodeSuccess.MATCHED:
                matched += 1
                assert d2t.mul_chain(res.correction) == s
                verdict = with_coset_verdict(
                    toy_plain.complex, 1, res, truth, cohomology=True
                )
                assert verdict.success is DecodeSuccess.VERIFIED
            else:
                assert res.notes["stage"] in {"stalled", "progress-guard"}
        assert matched > 30  # most small erasures are decodable

    def test_deterministic(self, toy_plain):
        erased = [0, 1, 5, 21, 22]
        truth = BitChain.from_support(40, [1, 21])
        s = syndrome_x(toy_plain, truth)
        assert decode_erasure_x(toy_plain, erased, s) == decode_erasure_x(
            toy_plain, erased, s
        )


class TestDecodeZ:
    def test_requires_budget_on_hand_built_bundles(self, toy):
        with pytest.raises(ValueError):
            decode_z(toy, BitChain(20, 0))

    def test_rejects_bad_syndromes(self, toy):
        with pytest.raises(ValueError):
            decode_z(toy, BitChain(19, 0), r_max=2)
        with pytest.raises(ValueError):
            decode_z(toy, BitChain(20, 1), r_max=2)  # odd parity

    def test_zero_syndrome(self, toy):
        res = decode_z(toy, BitChain(20, 0), r_max=2)
        assert res.success is DecodeSuccess.MATCHED
        assert res.correction == BitChain(40, 0)
        assert res.steps == 0
        assert res.notes["experimental"] is True
        assert res.notes["final_r"] == 0

    def test_single_vertical_error_via_string_move(self, toy):
        for a in range(toy.n_checks):
            for i in range(toy.m_fiber):
                truth = BitChain.from_support(40, [toy.v_cell(a, i)])
                res = decode_z(toy, syndrome_z(toy, truth), r_max=2)
                assert res.correction == truth
                assert res.notes["moves"] == 1
                assert res.notes["final_r"] == 1
                assert res.steps == 1
                verdict = with_coset_verdict(toy.complex, 1, res, truth)
                assert verdict.success is DecodeSuccess.VERIFIED

    def test_single_vertical_error_via_pure_completion(self, toy):
        truth = BitChain.from_support(40, [toy.v_cell(1, 3)])
        res = decode_z(toy, syndrome_z(toy, truth), r_max=0)
        assert res.correction == truth
        assert res.notes["moves"] == 0
        assert res.steps == 0
        assert res.notes["final_r"] == 0

    def test_single_horizontal_error_via_cell_move(self, toy):
        for b in range(toy.n_vars):
            for u in range(toy.m_fiber):
                truth = BitChain.from_support(40, [toy.h_cell(b, u)])
                res = decode_z(toy, syndrome_z(toy, truth), r_max=2)
                assert res.correction == truth
                assert res.notes["moves"] == 1
                assert res.notes["final_r"] == 0
                verdict = with_coset_verdict(toy.complex, 1, res, truth)
                assert verdict.success is DecodeSuccess.VERIFIED

    def test_random_low_weight_reproduces_syndrome(self, toy):
        rng = random.Random(5)
        d1 = toy.complex.boundary(1)
        for _ in range(40):
            cells = rng.sample(range(40), rng.randint(1, 3))
            truth = BitChain.from_support(40, cells)
            s = syndrome_z(toy, truth)
            res = decode_z(toy, s, r_max=2)
            assert res.notes["experimental"] is True
            if res.success is DecodeSuccess.MATCHED:
                assert d1.mul_chain(res.correction) == s
            else:
                assert "stage" in res.notes

    def test_deterministic(self, toy):
        truth = BitChain.from_support(40, [toy.v_cell(0, 2), toy.h_cell(3, 1)])
        s = syndrome_z(toy, truth)
        assert decode_z(toy, s, r_max=2) == decode_z(toy, s, r_max=2)


@st.composite
def z_decoding_cases(draw):
    """A small bundle, a Z error on it and a string budget.

    Variables may meet no check (degree 0), twists are often zero, and
    fibers run from 1 to 9 cells.
    """
    m = draw(st.integers(1, 4))
    cols = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), max_size=3, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    adjacency = tuple(
        tuple(b for b, col in enumerate(cols) if a in col) for a in range(m)
    )
    mf = draw(st.integers(1, 9))
    edges = [(b, a) for a, row in enumerate(adjacency) for b in row]
    twists = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(0, mf - 1)),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    bundle = build_bundle(
        PlainBase(n=len(cols), m=m, adjacency=adjacency),
        mf,
        dict(zip(edges, twists)),
    )
    n_qubits = bundle.complex.dims[1]
    support = draw(
        st.lists(st.integers(0, n_qubits - 1), max_size=8, unique=True)
    )
    return bundle, support, draw(st.integers(0, 4))


class TestDecodeZMatchesReference:
    """``decode_z`` against the per-cell scan in tests/decoder_reference.py.

    Each ``DecodeResult`` (correction, success, steps and notes) must be
    equal, so the moves, tie-breaks and final budget agree too.
    """

    @pytest.mark.parametrize("instance", ["toy", "desk", "n24"])
    def test_results_equal(self, request, instance):
        bundle = request.getfixturevalue(instance)
        n_qubits = bundle.complex.dims[1]
        rng = random.Random(f"z-{instance}")
        supports = [[cell] for cell in range(n_qubits)] + [
            rng.sample(range(n_qubits), weight)
            for weight in range(2, 7)
            for _ in range(8)
        ]
        syndromes = [
            syndrome_z(bundle, BitChain.from_support(n_qubits, support))
            for support in supports
        ]
        for r_max in range(5):
            fast = [decode_z(bundle, s, r_max) for s in syndromes]
            assert fast == [
                decoder_reference.decode_z(bundle, s, r_max) for s in syndromes
            ]
        assert any(r.notes["moves"] > 1 for r in fast)

    @given(z_decoding_cases())
    @settings(max_examples=300, deadline=None)
    def test_results_equal_on_small_bundles(self, case):
        bundle, support, r_max = case
        error = BitChain.from_support(bundle.complex.dims[1], support)
        s = syndrome_z(bundle, error)
        assert decode_z(bundle, s, r_max) == decoder_reference.decode_z(
            bundle, s, r_max
        )


class TestDecodeZTablesPerBundle:
    """``decode_z`` reads its Tanner-edge tables from the bundle it is
    given, so alternating between bundles mixes no tables."""

    def test_interleaved_bundles_match_reference(self, desk):
        torus = build_bundle(cycle_base(3), 3, {(0, 0): 1})
        rng = random.Random("z-interleaved")
        runs = []
        for bundle in (desk, torus):
            n_qubits = bundle.complex.dims[1]
            supports = [[cell] for cell in range(n_qubits)] + [
                rng.sample(range(n_qubits), weight)
                for weight in range(2, 5)
                for _ in range(6)
            ]
            runs.append(
                [
                    (bundle, syndrome_z(bundle, BitChain.from_support(n_qubits, s)), r)
                    for s in supports
                    for r in (1, 3)
                ]
            )
        interleaved = [case for pair in zip(*runs) for case in pair]
        assert {id(case[0]) for case in interleaved} == {id(desk), id(torus)}
        fast = [decode_z(bundle, s, r) for bundle, s, r in interleaved]
        assert fast == [
            decoder_reference.decode_z(bundle, s, r) for bundle, s, r in interleaved
        ]
        for bundle in (desk, torus):
            tables = bundle.edge_legs
            assert bundle.edge_legs is tables
            for table in tables:
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 0
        assert desk.edge_legs[0].shape != torus.edge_legs[0].shape


class TestDecodeViaHomotopy:
    def test_identity_transport_matches_inner_cohomology(self, toy):
        equiv = HomotopyEquivalence.identity(toy.complex)
        truth = BitChain.from_support(40, [toy.v_cell(1, 2)])
        s = syndrome_x(toy, truth)
        via = decode_via_homotopy(
            equiv,
            lambda pushed: decode_x(toy, pushed),
            s,
            error_degree=1,
            cohomology=True,
        )
        direct = decode_x(toy, s)
        assert via.correction == direct.correction
        assert via.steps == direct.steps
        assert via.success is DecodeSuccess.MATCHED
        assert via.notes["inner_success"] == "syndrome-matched-only"

    def test_identity_transport_matches_inner_homology(self, toy):
        equiv = HomotopyEquivalence.identity(toy.complex)
        truth = BitChain.from_support(40, [toy.h_cell(2, 4)])
        s = syndrome_z(toy, truth)
        via = decode_via_homotopy(
            equiv, lambda pushed: decode_z(toy, pushed, r_max=2), s
        )
        direct = decode_z(toy, s, r_max=2)
        assert via.correction == direct.correction
        assert via.steps == direct.steps

    def test_exact_inner_recovers_circle_errors(self):
        cx = cycle_base(5).as_complex()
        equiv = HomotopyEquivalence.identity(cx)
        d1 = cx.boundary(1)
        for i in range(5):
            truth = BitChain.from_support(5, [i])
            res = decode_via_homotopy(
                equiv, lambda s: decode_brute_force(d1, s), d1.mul_chain(truth)
            )
            assert res.correction == truth
            verdict = with_coset_verdict(cx, 1, res, truth)
            assert verdict.success is DecodeSuccess.VERIFIED

    def test_transport_through_weight_reduction(self):
        code, _ = gen_base(16, 5, 6, seed=0)
        reduced_cx, equiv = weight_reduce_classical(code)
        rev = reverse_equivalence(equiv)  # original -> reduced
        original = rev.f.source
        d1 = original.boundary(1)
        reduced_d1 = reduced_cx.boundary(1)
        for i in range(original.dims[1]):
            truth = BitChain.from_support(original.dims[1], [i])
            s = d1.mul_chain(truth)
            res = decode_via_homotopy(
                rev, lambda t: decode_brute_force(reduced_d1, t), s
            )
            assert res.success is DecodeSuccess.MATCHED
            assert d1.mul_chain(res.correction) == s
            verdict = with_coset_verdict(original, 1, res, truth)
            # With no 2-cells, coset-correct means exact recovery: the
            # inner exact decoder must land in the right kernel class.
            assert verdict.success is DecodeSuccess.VERIFIED

    def test_rejects_unverified_equivalence(self):
        cx = cycle_base(5).as_complex()
        good = HomotopyEquivalence.identity(cx)
        zero = ChainMap(
            cx, cx, tuple(Gf2Matrix.zeros(d, d) for d in cx.dims)
        )
        bad = HomotopyEquivalence(
            good.f, zero, good.h_source, good.h_target
        )
        with pytest.raises(ValueError):
            decode_via_homotopy(
                bad, lambda s: decode_brute_force(cx.boundary(1), s),
                BitChain(5, 0),
            )
        # Reversed or transposed, a never-verified equivalence inherits no
        # record, so it is still verified and still refused.
        with pytest.raises(ValueError):
            decode_via_homotopy(
                reverse_equivalence(bad),
                lambda s: decode_brute_force(cx.boundary(1), s),
                BitChain(5, 0),
            )
        with pytest.raises(ValueError):
            decode_via_homotopy(
                transpose_equivalence(bad),
                lambda s: decode_brute_force(cx.boundary(1).transpose(), s),
                BitChain(5, 0),
            )

    def test_verified_record_is_inherited_and_cannot_be_forged(self, monkeypatch):
        cx = cycle_base(5).as_complex()
        d1 = cx.boundary(1)
        calls = []
        verify = HomotopyEquivalence.verify

        def counting(equiv):
            calls.append(equiv)
            return verify(equiv)

        monkeypatch.setattr(HomotopyEquivalence, "verify", counting)
        good = HomotopyEquivalence.identity(cx)
        with pytest.raises(TypeError):
            HomotopyEquivalence(
                good.f, good.g, good.h_source, good.h_target, _verified=True
            )
        decode = lambda e, **kw: decode_via_homotopy(  # noqa: E731
            e, lambda s: decode_brute_force(d1, s), BitChain(5, 0), **kw
        )
        decode(good)
        assert calls == [good]
        decode(good)
        decode(reverse_equivalence(good))
        decode_via_homotopy(
            good,
            lambda s: decode_brute_force(d1.transpose(), s),
            BitChain(5, 0),
            error_degree=0,
            cohomology=True,
        )
        assert len(calls) == 1
        # An equal equivalence built afresh has no record of its own.
        fresh = HomotopyEquivalence(good.f, good.g, good.h_source, good.h_target)
        assert fresh == good and hash(fresh) == hash(good)
        decode(fresh)
        assert len(calls) == 2 and calls[-1] is fresh

    def test_failed_inner_propagates(self, toy):
        equiv = HomotopyEquivalence.identity(toy.complex)

        def inner(pushed):
            return DecodeResult(
                BitChain(40, 0), DecodeSuccess.FAILED, 7, {"stage": "inner"}
            )

        res = decode_via_homotopy(
            equiv, inner, BitChain(20, 0), cohomology=True
        )
        assert res.success is DecodeSuccess.FAILED
        assert res.steps == 7
        assert res.correction == BitChain(40, 0)
        assert res.notes["inner_success"] == "failed"
        assert res.notes["inner_steps"] == 7

    def test_degree_and_length_validation(self, toy):
        equiv = HomotopyEquivalence.identity(toy.complex)
        inner = lambda s: DecodeResult(  # noqa: E731 - never reached
            BitChain(0, 0), DecodeSuccess.MATCHED, 0
        )
        with pytest.raises(ValueError):
            decode_via_homotopy(equiv, inner, BitChain(20, 0), error_degree=0)
        with pytest.raises(ValueError):
            decode_via_homotopy(equiv, inner, BitChain(20, 0), error_degree=3)
        with pytest.raises(ValueError):
            decode_via_homotopy(
                equiv, inner, BitChain(20, 0), error_degree=2, cohomology=True
            )
        with pytest.raises(ValueError):
            decode_via_homotopy(equiv, inner, BitChain(19, 0))


class TestWithCosetVerdict:
    def test_exact_recovery_is_verified(self):
        cx = cycle_base(5).as_complex()
        truth = BitChain.from_support(5, [0])
        res = DecodeResult(truth, DecodeSuccess.MATCHED, 1)
        out = with_coset_verdict(cx, 1, res, truth)
        assert out.success is DecodeSuccess.VERIFIED
        assert out.notes["coset_correct"] is True

    def test_logical_offset_stays_matched(self):
        cx = cycle_base(5).as_complex()
        truth = BitChain.from_support(5, [0])
        logical = BitChain(5, (1 << 5) - 1)  # the full cycle
        res = DecodeResult(truth ^ logical, DecodeSuccess.MATCHED, 1)
        out = with_coset_verdict(cx, 1, res, truth)
        assert out.success is DecodeSuccess.MATCHED
        assert out.notes["coset_correct"] is False

    def test_coboundary_offset_is_verified(self, toy):
        truth = BitChain.from_support(40, [toy.h_cell(0, 0)])
        star = BitChain(40, toy.complex.boundary(1).row(toy.c0_cell(2, 1)))
        res = DecodeResult(truth ^ star, DecodeSuccess.MATCHED, 1)
        out = with_coset_verdict(toy.complex, 1, res, truth, cohomology=True)
        assert out.success is DecodeSuccess.VERIFIED

    def test_nontrivial_cocycle_offset_stays_matched(self, toy):
        truth = BitChain.from_support(40, [toy.h_cell(0, 0)])
        fiber = BitChain.from_support(
            40, [toy.h_cell(2, u) for u in range(toy.m_fiber)]
        )
        assert syndrome_x(toy, fiber) == BitChain(20, 0)
        res = DecodeResult(truth ^ fiber, DecodeSuccess.MATCHED, 1)
        out = with_coset_verdict(toy.complex, 1, res, truth, cohomology=True)
        assert out.success is DecodeSuccess.MATCHED
        assert out.notes["coset_correct"] is False

    def test_failed_results_pass_through(self):
        cx = cycle_base(5).as_complex()
        res = DecodeResult(BitChain(5, 0), DecodeSuccess.FAILED, 0)
        assert with_coset_verdict(cx, 1, res, BitChain(5, 1)) is res


class TestDecodeBruteForce:
    def test_finds_the_minimum(self):
        matrix = Gf2Matrix.from_row_support([(0, 1), (1, 2)], 3)
        res = decode_brute_force(matrix, BitChain(2, 0b11))
        assert res.correction == BitChain.from_support(3, [1])
        assert res.success is DecodeSuccess.MATCHED
        assert res.steps == 2
        assert res.notes["kernel_dim"] == 1

    def test_unsolvable_fails(self):
        matrix = cycle_base(5).matrix()
        res = decode_brute_force(matrix, BitChain(5, 1))
        assert res.success is DecodeSuccess.FAILED
        assert res.notes["stage"] == "unsolvable"
        assert res.steps == 0

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            decode_brute_force(Gf2Matrix.zeros(1, 30), BitChain(1, 0))


class TestMediumInstance:
    def test_x_decoding_corrects_single_errors(self, desk):
        n_qubits = desk.complex.dims[1]
        samples = [
            desk.v_cell(0, 4),
            desk.v_cell(7, 0),
            desk.h_cell(0, 0),
            desk.h_cell(11, 5),
        ]
        for cell in samples:
            truth = BitChain.from_support(n_qubits, [cell])
            res = decode_x(desk, syndrome_x(desk, truth))
            assert res.success is DecodeSuccess.MATCHED
            verdict = with_coset_verdict(
                desk.complex, 1, res, truth, cohomology=True
            )
            assert verdict.success is DecodeSuccess.VERIFIED

    def test_x_weight_one_exhaustive_coset_correct(self, desk):
        """Every single-cell error must land in the right coset.

        Regression guard for the amendment order: picking the first
        fixable check by index let a marginal neighbor rewrite fire
        before the true check's flip-free full clear, injecting
        whole-fiber flips that shifted mid-fiber vertical errors into a
        wrong coset.  Steepest descent takes the full clear first.
        """
        cx = desk.complex
        n_qubits = cx.dims[1]
        for cell in range(n_qubits):
            truth = BitChain.from_support(n_qubits, [cell])
            res = decode_x(desk, syndrome_x(desk, truth))
            verdict = with_coset_verdict(cx, 1, res, truth, cohomology=True)
            assert verdict.success is DecodeSuccess.VERIFIED, cell

    def test_z_decoding_uses_recorded_fiber_parameter(self, desk):
        n_qubits = desk.complex.dims[1]
        for cell in (desk.v_cell(3, 2), desk.h_cell(5, 1)):
            truth = BitChain.from_support(n_qubits, [cell])
            res = decode_z(desk, syndrome_z(desk, truth))
            assert res.success is DecodeSuccess.MATCHED
            assert res.notes["final_r"] == 0
            verdict = with_coset_verdict(desk.complex, 1, res, truth)
            assert verdict.success is DecodeSuccess.VERIFIED

    def test_erasure_decoding_small_random_sets(self, desk):
        rng = random.Random(41)
        n_qubits = desk.complex.dims[1]
        for _ in range(10):
            erased = rng.sample(range(n_qubits), 8)
            support = [c for c in erased if rng.random() < 0.5]
            truth = BitChain.from_support(n_qubits, support)
            s = syndrome_x(desk, truth)
            res = decode_erasure_x(desk, erased, s)
            assert res.success is DecodeSuccess.MATCHED
            verdict = with_coset_verdict(
                desk.complex, 1, res, truth, cohomology=True
            )
            assert verdict.success is DecodeSuccess.VERIFIED
