import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.base import (
    GEN_BASE_ATTEMPTS,
    CertificateParams,
    PartitionedBaseCode,
    certify_base,
    counique_neighbors,
    export_base_sidecar,
    gen_base,
    min_distance,
    parse_base_sidecar,
)
from fibercode.gf2 import Gf2Matrix


def _brute_force_distance(mat: Gf2Matrix) -> int:
    """Independent oracle: scan all nonzero words for the lightest codeword."""
    best = mat.n_cols + 1
    for word in range(1, 1 << mat.n_cols):
        if mat.mul_bits(word) == 0:
            best = min(best, word.bit_count())
    return best


def _toy_code() -> PartitionedBaseCode:
    return PartitionedBaseCode(
        n=4,
        delta=2,
        k_types=3,
        seed=0,
        adjacency=((0, 1), (1, 2), (2, 3)),
        heads=((0,), (2,), ()),
        tails=((1,), (1,), (2, 3)),
    )


def test_gen_base_preconditions():
    with pytest.raises(ValueError):
        gen_base(18, 6, 2, 0)  # n not divisible by 4
    with pytest.raises(ValueError):
        gen_base(16, 6, 5, 0)  # 5 does not divide 12 checks
    with pytest.raises(ValueError):
        gen_base(16, 1, 4, 0)  # density too small


def test_gen_base_deterministic():
    a, cert_a = gen_base(16, 6, 4, seed=7)
    b, cert_b = gen_base(16, 6, 4, seed=7)
    assert a == b
    assert cert_a == cert_b


def test_gen_base_shape_and_partition():
    code, cert = gen_base(16, 6, 4, seed=3)
    assert code.m == 12
    assert all(code.adjacency[a] for a in range(code.m))
    for a in range(code.m):
        assert tuple(sorted(code.heads[a] + code.tails[a])) == code.adjacency[a]
    # Types are consecutive blocks of m / k_types checks.
    assert [code.type_of(a) for a in range(code.m)] == [
        a // 3 for a in range(12)
    ]
    assert list(code.checks_of_type(1)) == [3, 4, 5]


@pytest.mark.parametrize("n,delta", [(16, 6), (16, 8), (24, 6), (32, 8)])
def test_gen_base_certifies_at_desk_scale(n, delta):
    code, cert = gen_base(n, delta, 6, seed=n * 100 + delta)
    assert cert.passed
    assert cert.attempts <= 200
    assert cert.full_rank
    assert cert.min_dist_method == "exact"


def test_certificate_echoes_thresholds():
    _, cert = gen_base(16, 6, 4, seed=1)
    d = cert.as_dict()
    assert d["thresholds"]["expansion_ratio"] == pytest.approx(0.45)
    assert d["thresholds"]["check_deg_window"] == [
        pytest.approx(1 / 3),
        pytest.approx(5 / 3),
    ]


def test_paper_scale_thresholds_fail_small_blocks():
    # The asymptotic windows are unattainable at n = 16; the generator must
    # exhaust its attempts and say so rather than pretend.
    code, cert = gen_base(16, 6, 4, seed=0, params=CertificateParams.paper_scale())
    assert not cert.passed
    assert cert.attempts == GEN_BASE_ATTEMPTS == 200


@pytest.mark.parametrize("n,dist", [(48, 10), (64, 17)])
def test_gen_base_walks_past_the_paper_block_length(n, dist):
    # Block lengths past any small budget, kernels within the walk: a
    # random search reports 12 and 18 here, upper bounds that prove nothing.
    _, cert = gen_base(n, 8, 4, seed=1, params=CertificateParams.desk_scale())
    assert (cert.min_dist_estimate, cert.min_dist_method) == (dist, "exact")


def test_min_distance_known_matrix():
    mat = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert min_distance(mat) == (3, "exact")
    eye = Gf2Matrix.identity(3)
    assert min_distance(eye) == (4, "exact")  # no codewords at all


def test_min_distance_unknown_past_the_walk_limit():
    # Three checks on 30 bits, bit i in check i % 3: the kernel has
    # dimension 27, past the walk, so no distance is claimed. The true
    # distance, 2, is below any threshold an upper bound could pass.
    adjacency = tuple(tuple(range(a, 30, 3)) for a in range(3))
    code = PartitionedBaseCode(
        n=30,
        delta=10,
        k_types=3,
        seed=0,
        adjacency=adjacency,
        heads=adjacency,
        tails=((), (), ()),
    )
    assert min_distance(code.matrix()) == (None, "unknown")
    cert = certify_base(code, CertificateParams.desk_scale())
    assert cert.min_dist_estimate is None
    assert cert.min_dist_method == "unknown"
    assert not cert.min_dist_ok
    assert not cert.passed
    structural = certify_base(code, CertificateParams.structural_only())
    assert structural.min_dist_ok
    assert structural.passed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_min_distance_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 8)
    rows = [rng.getrandbits(n) for _ in range(m)]
    mat = Gf2Matrix(rows, n)
    dist, method = min_distance(mat)
    assert method == "exact"
    assert dist == _brute_force_distance(mat)


def test_counique_neighbors():
    code = _toy_code()
    counique, owner = counique_neighbors(code, {0})
    assert counique == {0, 1}
    assert owner == 0  # 2 counique of 2 neighbors, above the .8 fraction
    counique, owner = counique_neighbors(code, {0, 1})
    assert counique == {0, 2}
    assert owner is None  # each check has half counique, not > 80%


def test_expansion_reflected_in_certificate():
    code = _toy_code()
    cert = certify_base(code, CertificateParams.structural_only())
    # Worst ratio over singletons and pairs: checks have degree 2 and
    # delta = 2, overlapping pairs give |N(S)| = 3 over delta * 2 = 4.
    assert cert.expansion_worst_ratio == pytest.approx(0.75)


def test_rank_deficient_base_fails_every_scale():
    # Two equal checks: rank 1 of 2. Full rank is required at every scale.
    code = PartitionedBaseCode(
        n=4,
        delta=2,
        k_types=1,
        seed=0,
        adjacency=((0, 1), (0, 1)),
        heads=((0,), (0,)),
        tails=((1,), (1,)),
    )
    cert = certify_base(code, CertificateParams.structural_only())
    assert not cert.full_rank
    assert cert.degree_ok and cert.expansion_ok and cert.min_dist_ok
    assert not cert.passed


def test_as_complex():
    code = _toy_code()
    cx = code.as_complex()
    cx.validate()
    assert cx.dims == (3, 4)
    assert cx.label(1, 2) == "b2"


def test_sidecar_roundtrip_plain():
    code, _ = gen_base(16, 6, 4, seed=5)
    text = export_base_sidecar(code)
    back, twists = parse_base_sidecar(text)
    assert back == code
    assert twists is None


def test_sidecar_roundtrip_with_twists():
    code, _ = gen_base(16, 8, 6, seed=9)
    tail_twists = [3 * (a % 2 + 1) for a in range(code.m)]
    text = export_base_sidecar(code, tail_twists)
    back, twists = parse_base_sidecar(text)
    assert back == code
    assert twists == tuple(tail_twists)


def test_sidecar_rejects_mixed_twist_lines():
    code, _ = gen_base(16, 6, 4, seed=5)
    text = export_base_sidecar(code, [0] * code.m)
    lines = text.splitlines()
    lines[2] = ";".join(lines[2].split(";")[:3])  # drop one twist field
    with pytest.raises(ValueError):
        parse_base_sidecar("\n".join(lines) + "\n")


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_sidecar_rejects_truncation(keep):
    code, _ = gen_base(16, 6, 4, seed=5)
    lines = export_base_sidecar(code).splitlines(keepends=True)
    with pytest.raises(ValueError):
        parse_base_sidecar("".join(lines[:keep]))


@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_sidecar_rejects_variable_out_of_range(index):
    text = f"fibercode-base v1\nn 2 m 1 delta 2 k_types 1 seed 0\n0; 0; {index}\n"
    with pytest.raises(ValueError):
        parse_base_sidecar(text)
    parse_base_sidecar(text.replace(f"; {index}", "; 1"))


def test_heads_tails_validation():
    with pytest.raises(ValueError):
        PartitionedBaseCode(
            n=3,
            delta=2,
            k_types=1,
            seed=0,
            adjacency=((0, 1),),
            heads=((0,),),
            tails=((2,),),  # 2 is not in the declared neighborhood
        )


@pytest.mark.parametrize(
    "heads, tails", [((1,), (1,)), ((1, 1), ()), ((), (0, 0))]
)
def test_constructor_refuses_a_repeated_variable(heads, tails):
    """A repeat would be a double Tanner edge that the matrix cancels."""
    with pytest.raises(ValueError):
        PartitionedBaseCode(
            n=2,
            delta=2,
            k_types=1,
            seed=0,
            adjacency=(tuple(sorted(heads + tails)),),
            heads=(heads,),
            tails=(tails,),
        )


def test_sidecar_refuses_a_repeated_variable():
    text = "fibercode-base v1\nn 2 m 1 delta 2 k_types 1 seed 0\n0; 1; 1\n"
    with pytest.raises(ValueError):
        parse_base_sidecar(text)
    parse_base_sidecar(text.replace("0; 1; 1", "0; 0; 1"))
