import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.base import PartitionedBaseCode
from fibercode.gf2 import BitChain
from fibercode.twists import (
    CERTIFY_EXPANDER_ATTEMPTS,
    MAX_ELL,
    ExpanderCertificationError,
    TwistGraph,
    assign_twists,
    certify_expander,
    check_violation_probability,
    gen_twist_graph,
    kappa_closed_form,
    kappa_dense,
    parse_twist_graph,
    sample_violation_rate,
    serialize_twist_graph,
    tail_twists_per_check,
    twist_code_matrix,
)


def _toy_code() -> PartitionedBaseCode:
    # 4 bits, 2 checks of distinct types: 0 reads {0,1,2}, 1 reads {1,3}.
    return PartitionedBaseCode(
        n=4,
        delta=2,
        k_types=2,
        seed=0,
        adjacency=((0, 1, 2), (1, 3)),
        heads=((0, 2), (3,)),
        tails=((1,), (1,)),
    )


class TestKappa:
    def test_three_classes_always_half(self):
        # Every shift in {1, 2} contributes cos(2 pi / 3) = -1/2 at j = 1, 2.
        for shifts in itertools.product((1, 2), repeat=3):
            assert kappa_closed_form(3, shifts) == pytest.approx(0.5)

    def test_two_classes_never_expand(self):
        assert kappa_closed_form(2, (1, 1, 1)) == pytest.approx(1.0)

    def test_four_classes_hand_values(self):
        # j=2 hits cos(pi) = -1 for the odd shift, +1 for shift 2.
        assert kappa_closed_form(4, (1,)) == pytest.approx(1.0)
        assert kappa_closed_form(4, (1, 2)) == pytest.approx(0.5)

    @given(
        ell=st.integers(min_value=2, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigensolve(self, ell, data):
        k = data.draw(st.integers(min_value=1, max_value=6))
        shifts = tuple(
            data.draw(st.integers(min_value=1, max_value=ell - 1))
            for _ in range(k)
        )
        closed = kappa_closed_form(ell, shifts)
        assert abs(closed - kappa_dense(ell, shifts)) < 1e-9
        assert 0.0 <= closed <= 1.0 + 1e-12


class TestGeneration:
    def test_gen_is_reproducible(self):
        a = gen_twist_graph(9, 4, seed=7)
        b = gen_twist_graph(9, 4, seed=7)
        assert a == b
        assert all(1 <= s < 9 for s in a.shifts)

    def test_shift_range_enforced(self):
        with pytest.raises(ValueError):
            TwistGraph(ell=5, shifts=(0,))
        with pytest.raises(ValueError):
            TwistGraph(ell=5, shifts=(5,))
        with pytest.raises(ValueError):  # kappa needs at least one type
            TwistGraph(ell=5, shifts=())

    def test_ell_bounded(self):
        assert TwistGraph(ell=MAX_ELL, shifts=(1,)).ell == MAX_ELL == 1024
        with pytest.raises(ValueError, match="2 to 1024"):
            TwistGraph(ell=MAX_ELL + 1, shifts=(1,))
        with pytest.raises(ValueError, match="2 to 1024"):
            gen_twist_graph(10**12, 2, seed=0)

    def test_certify_three_classes_first_try(self):
        graph = certify_expander(3, 5, kappa_target=0.5, seed=0)
        assert graph.kappa() == pytest.approx(0.5)

    def test_certify_exhaustion_reports_best(self):
        # Two fiber classes pin kappa at 1, so any target below that fails.
        with pytest.raises(ExpanderCertificationError) as info:
            certify_expander(2, 3, kappa_target=0.9, seed=0)
        assert info.value.attempts == CERTIFY_EXPANDER_ATTEMPTS == 100
        assert info.value.best_kappa == pytest.approx(1.0)
        assert info.value.best.ell == 2

    def test_odd_class_count_flag(self):
        assert TwistGraph(ell=5, shifts=(1,)).ell_is_odd
        assert not TwistGraph(ell=4, shifts=(1,)).ell_is_odd


class TestAssignment:
    def test_tails_rotate_heads_do_not(self):
        code = _toy_code()
        graph = TwistGraph(ell=3, shifts=(1, 2))
        assignment = assign_twists(code, graph)
        twists = assignment.as_dict()
        # Every Tanner edge appears exactly once.
        assert set(twists) == {(0, 0), (1, 0), (2, 0), (1, 1), (3, 1)}
        assert twists[(0, 0)] == 0 and twists[(2, 0)] == 0
        assert twists[(1, 0)] == 3  # tail of the type-0 check: ell * 1
        assert twists[(1, 1)] == 6  # tail of the type-1 check: ell * 2
        assert twists[(3, 1)] == 0
        assert assignment.m_fiber == 9

    def test_type_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assign_twists(_toy_code(), TwistGraph(ell=3, shifts=(1,)))

    def test_sidecar_tail_column(self):
        code = _toy_code()
        graph = TwistGraph(ell=3, shifts=(2, 1))
        assert tail_twists_per_check(code, graph) == [6, 3]


class TestTwistCode:
    def test_matrix_layout_by_hand(self):
        code = _toy_code()
        graph = TwistGraph(ell=2, shifts=(1, 1))
        mat = twist_code_matrix(code, graph)
        assert (mat.n_rows, mat.n_cols) == (4, 8)
        # Row (u=0, a=0): tail {1} in block 0, heads {0, 2} in block 1.
        assert mat.rows[0] == (1 << 1) | (1 << 4) | (1 << 6)
        # Row (u=0, a=1): tail {1} in block 0, head {3} in block 1.
        assert mat.rows[1] == (1 << 1) | (1 << 7)
        # Row (u=1, a=0): tail {1} in block 1, heads {0, 2} in block 0.
        assert mat.rows[2] == (1 << 5) | (1 << 0) | (1 << 2)
        assert mat.rows[3] == (1 << 5) | (1 << 3)

    def test_violations_match_direct_parity(self):
        code = _toy_code()
        graph = TwistGraph(ell=3, shifts=(1, 2))
        mat = twist_code_matrix(code, graph)
        word = BitChain.from_support(12, [0, 5, 6, 11])
        direct = 0
        for u in range(3):
            for a in range(code.m):
                v = (u + graph.shifts[code.type_of(a)]) % 3
                par = sum(word.get(u * 4 + i) for i in code.tails[a])
                par += sum(word.get(v * 4 + j) for j in code.heads[a])
                direct += par % 2
        assert mat.mul_bits(word.bits).bit_count() == direct


def _brute_force_violation_probability(
    n: int, delta: int, y: BitChain, z: BitChain
) -> float:
    """Enumerate membership and coin patterns over the union support."""
    support = sorted(set(y.iter_support()) | set(z.iter_support()))
    p_in = delta / n
    total = 0.0
    for member in itertools.product((0, 1), repeat=len(support)):
        chosen = [i for i, m in zip(support, member) if m]
        p_member = math.prod(
            p_in if m else 1 - p_in for m in member
        )
        for coins in itertools.product((0, 1), repeat=len(chosen)):
            parity = 0
            for i, tail in zip(chosen, coins):
                parity ^= y.get(i) if tail else z.get(i)
            if parity:
                total += p_member * 0.5 ** len(chosen)
    return total


class TestViolationProbability:
    @given(
        n=st.integers(min_value=6, max_value=14),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_enumeration(self, n, data):
        delta = data.draw(st.integers(min_value=1, max_value=n // 2))
        y_support = data.draw(
            st.lists(st.integers(0, n - 1), max_size=5, unique=True)
        )
        z_support = data.draw(
            st.lists(st.integers(0, n - 1), max_size=5, unique=True)
        )
        y = BitChain.from_support(n, y_support)
        z = BitChain.from_support(n, z_support)
        exact = check_violation_probability(n, delta, y, z)
        brute = _brute_force_violation_probability(n, delta, y, z)
        assert exact == pytest.approx(brute, abs=1e-12)

    def test_disjoint_pair_frozen_value(self):
        y = BitChain.from_support(16, [0, 1])
        z = BitChain.from_support(16, [5])
        # 1/2 - 1/2 (1 - 4/16)^3 with no shared positions.
        assert check_violation_probability(16, 4, y, z) == pytest.approx(
            0.5 - 0.5 * 0.75**3
        )

    def test_zero_words_never_violate(self):
        zero = BitChain(10)
        assert check_violation_probability(10, 3, zero, zero) == 0.0
        assert sample_violation_rate(10, 3, zero, zero, 1000, seed=1) == 0.0

    def test_sampler_tracks_closed_form(self):
        n, delta = 24, 5
        y = BitChain.from_support(n, [0, 3, 7, 11])
        z = BitChain.from_support(n, [3, 9, 11, 20])
        p = check_violation_probability(n, delta, y, z)
        samples = 60_000
        rate = sample_violation_rate(n, delta, y, z, samples, seed=11)
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(rate - p) < 3.5 * sigma


class TestSerialization:
    def test_round_trip(self):
        graph = gen_twist_graph(11, 5, seed=3)
        assert parse_twist_graph(serialize_twist_graph(graph)).shifts == graph.shifts

    def test_stale_kappa_rejected(self):
        graph = TwistGraph(ell=7, shifts=(2, 3))
        line = serialize_twist_graph(graph).split()
        line[-1] = "0.123456789012"
        with pytest.raises(ValueError):
            parse_twist_graph(" ".join(line))

    @pytest.mark.parametrize("kappa", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_kappa_rejected(self, kappa):
        graph = TwistGraph(ell=7, shifts=(2, 3))
        line = serialize_twist_graph(graph).split()
        line[-1] = kappa
        with pytest.raises(ValueError):
            parse_twist_graph(" ".join(line))

    def test_field_count_checked(self):
        with pytest.raises(ValueError):
            parse_twist_graph("7 3 2 3 0.5\n")
