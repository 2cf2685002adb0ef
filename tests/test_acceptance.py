"""Acceptance gate: twelve binary criteria at pinned tolerances.

Each criterion runs as one test that finishes by printing a single
``[criterion NN] name: PASS/FAIL`` line (shown with ``pytest -s``, and
in the failure report otherwise) and asserting the same condition, so
the suite is green exactly when every criterion holds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Any

import pytest

from fibercode.base import CertificateParams, gen_base
from fibercode.bundle import (
    build_bundle,
    build_fiber_bundle_code,
    cycle_base,
    verify_h1_iso,
)
from fibercode.cli import build_instance, load_config
from fibercode.cli import main as cli_main
from fibercode.complexes import coset_min_weight_exact, transpose_complex
from fibercode.decoders import (
    DecodeSuccess,
    decode_brute_force,
    decode_erasure_x,
    decode_via_homotopy,
    decode_x,
    with_coset_verdict,
)
from fibercode.gf2 import BitChain, Gf2Matrix
from fibercode.homotopy import (
    reverse_equivalence,
    weight_reduce_bundle,
    weight_reduce_classical,
)
from fibercode.twists import (
    certify_expander,
    check_violation_probability,
    gen_twist_graph,
    kappa_dense,
    sample_violation_rate,
)

from reduction_reference import collapse_cell, combine_cells


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def syndrome_x(bundle, error: BitChain) -> BitChain:
    return bundle.complex.boundary(2).transpose().mul_chain(error)


def exact_kernel_distance(mat: Gf2Matrix) -> int:
    """Minimum weight of a nonzero kernel vector, by full enumeration."""
    basis = mat.kernel_basis()
    assert 0 < len(basis) <= 16, "kernel too large for exact enumeration"
    best = None
    for mask in range(1, 1 << len(basis)):
        bits = 0
        for i, vec in enumerate(basis):
            if (mask >> i) & 1:
                bits ^= vec.bits
        weight = bits.bit_count()
        if best is None or weight < best:
            best = weight
    return best


@dataclass
class Certified:
    n: int
    delta: int
    code: Any
    certificate: Any
    graph: Any
    bundle: Any


@pytest.fixture(scope="module")
def certified() -> dict[str, Certified]:
    """Three certified random-family instances of increasing size."""
    out: dict[str, Certified] = {}
    for label, (n, delta, k_types, ell, base_seed, graph_seed) in {
        "n16": (16, 5, 6, 3, 0, 1),
        "n24": (24, 6, 6, 3, 0, 1),
    }.items():
        code, cert = gen_base(n, delta, k_types, base_seed)
        assert cert.passed, f"{label} base must certify"
        graph = certify_expander(ell, k_types, 0.5, seed=graph_seed)
        bundle = build_fiber_bundle_code(code, graph)
        out[label] = Certified(n, delta, code, cert, graph, bundle)
    flagship = build_instance(load_config(None))
    out["n32"] = Certified(
        32,
        8,
        flagship.code,
        flagship.certificate,
        flagship.graph,
        flagship.bundle,
    )
    return out


@pytest.fixture(scope="module")
def toric_family() -> dict[tuple[int, int], Any]:
    return {
        (length, fiber): build_bundle(cycle_base(length), fiber)
        for length in (3, 4, 5)
        for fiber in (3, 4, 5)
    }


@pytest.fixture(scope="module")
def classical_reductions() -> list[tuple[Any, Any, Any]]:
    """(base code, reduced complex, equivalence) across fifty seeds."""
    rows = []
    for seed in range(50):
        code, _ = gen_base(16, 5, 6, seed)
        reduced, equiv = weight_reduce_classical(code)
        rows.append((code, reduced, equiv))
    return rows


@pytest.fixture(scope="module")
def bundle_reductions(certified) -> dict[str, tuple[Any, Any, Any]]:
    """(original bundle, reduced bundle, equivalence) per instance."""
    toy = build_bundle(cycle_base(4), 5, {(0, 0): 1, (2, 1): 3})
    out = {"toy": (toy, *weight_reduce_bundle(toy))}
    for label in ("n16", "n24"):
        bundle = certified[label].bundle
        out[label] = (bundle, *weight_reduce_bundle(bundle))
    return out


def test_criterion_01_css_validity():
    started = time.perf_counter()
    params = CertificateParams.structural_only()
    count = 0
    for n in (16, 24, 32):
        for delta in (6, 8):
            for ell in (3, 5):
                for seed in range(9):
                    code, _ = gen_base(n, delta, 6, seed, params=params)
                    graph = gen_twist_graph(ell, 6, seed=seed + 1)
                    bundle = build_fiber_bundle_code(code, graph)
                    bundle.complex.validate()  # d1 d2 = 0 or raises
                    bundle.css_code().validate()  # hx hz^T = 0 or raises
                    count += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "css validity over random instances",
        count >= 100 and elapsed < 60,
        f"{count} instances, {elapsed:.1f}s",
    )


def test_criterion_02_logical_count(certified):
    full_rank = 0
    ok = True
    for label, inst in certified.items():
        if not (inst.certificate.passed and inst.certificate.full_rank):
            continue
        full_rank += 1
        k = inst.bundle.css_code().k_logical()
        ok = ok and k == inst.n // 4
    report(
        2,
        "k = n/4 on full-rank-certified instances",
        ok and full_rank >= 1,
        f"{full_rank} full-rank instances",
    )


def test_criterion_03_toric_oracle(toric_family):
    started = time.perf_counter()
    ok = True
    for (length, fiber), bundle in toric_family.items():
        expect = min(length, fiber)
        cx = bundle.complex
        ok = ok and bundle.css_code().k_logical() == 2
        for mode in ("cohomology", "homology"):
            try:
                d = coset_min_weight_exact(
                    cx, 1, mode, budget=cx.dims[1], max_weight=expect
                )
            except RuntimeError:
                d = None  # nothing at or below the expected distance
            ok = ok and d == expect
    elapsed = time.perf_counter() - started
    report(
        3,
        "toric k=2 and exact distances min(L, L')",
        ok and elapsed < 120,
        f"9 products, {elapsed:.1f}s",
    )


def test_criterion_04_duality_and_h1_identification(certified, toric_family):
    twisted_toy = build_bundle(cycle_base(4), 5, {(0, 0): 1, (2, 1): 3})
    every = (
        [inst.bundle for inst in certified.values()]
        + list(toric_family.values())
        + [twisted_toy]
    )
    duality = all(
        b.complex.betti(1) == transpose_complex(b.complex).betti(1)
        for b in every
    )
    iso_ok = True
    for inst in certified.values():
        rep = verify_h1_iso(inst.bundle)
        iso_ok = iso_ok and all(
            (
                rep.base_is_graph,
                rep.fiber_boundaries_even,
                rep.fiber_even_chains_bound,
                rep.base_zeroth_homology_trivial,
                rep.twists_fix_fiber_cycles,
            )
        )
        iso_ok = iso_ok and rep.isomorphism_holds
    torus = verify_h1_iso(toric_family[(3, 3)])
    torus_ok = (
        not torus.base_zeroth_homology_trivial
        and not torus.isomorphism_holds
    )
    report(
        4,
        "degree-1 duality and identification conditions",
        duality and iso_ok and torus_ok,
        f"{len(every)} instances; torus condition (iv) correctly fails",
    )


def test_criterion_05_violation_monte_carlo():
    started = time.perf_counter()
    n, delta, samples = 32, 8, 100_000
    rng = random.Random(20260817)
    worst = 0.0
    for _ in range(20):
        while True:
            wy, wz = rng.randint(0, 5), rng.randint(0, 5)
            if wy + wz:
                break
        y = BitChain.from_support(n, rng.sample(range(n), wy))
        z = BitChain.from_support(n, rng.sample(range(n), wz))
        p = check_violation_probability(n, delta, y, z)
        empirical = sample_violation_rate(
            n, delta, y, z, samples, rng.randrange(1 << 32)
        )
        z_score = (empirical - p) / sqrt(p * (1 - p) / samples)
        worst = max(worst, abs(z_score))
    elapsed = time.perf_counter() - started
    report(
        5,
        "violation frequency within 3 standard errors",
        worst <= 3.0 and elapsed < 60,
        f"20 pairs x {samples} samples, max |z| = {worst:.2f}, {elapsed:.1f}s",
    )


def test_criterion_06_erasure_decoding(certified):
    started = time.perf_counter()
    inst = certified["n16"]
    bundle = inst.bundle
    cx = bundle.complex
    n_qubits = cx.dims[1]
    bound = 10  # configured |D| bound for this instance
    correct = 0
    c_observed = 0.0
    for trial in range(500):
        rng = random.Random(trial)
        size = rng.randint(2, bound)
        erased = sorted(rng.sample(range(n_qubits), size))
        support = [c for c in erased if rng.random() < 0.5]
        truth = BitChain.from_support(n_qubits, support)
        res = decode_erasure_x(bundle, erased, syndrome_x(bundle, truth))
        verdict = with_coset_verdict(cx, 1, res, truth, cohomology=True)
        correct += bool(verdict.notes.get("coset_correct"))
        c_observed = max(c_observed, res.steps / (size * inst.delta))
    elapsed = time.perf_counter() - started
    report(
        6,
        "erasure coset oracle and linear work bound",
        correct == 500 and elapsed < 300,
        f"{correct}/500 coset-correct, ops <= c|D|Delta with c = "
        f"{c_observed:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_x_decoder_weight_one(certified):
    exhaustive_ok = True
    total = 0
    for label in ("n16", "n24"):
        bundle = certified[label].bundle
        cx = bundle.complex
        n_qubits = cx.dims[1]
        for cell in range(n_qubits):
            truth = BitChain.from_support(n_qubits, [cell])
            res = decode_x(bundle, syndrome_x(bundle, truth))
            verdict = with_coset_verdict(cx, 1, res, truth, cohomology=True)
            exhaustive_ok = (
                exhaustive_ok
                and verdict.success is DecodeSuccess.VERIFIED
            )
            total += 1
    # Higher weights: reported as observed success curves, never gated
    # (the guaranteed regime is empty at this scale).
    bundle = certified["n16"].bundle
    cx = bundle.complex
    n_qubits = cx.dims[1]
    curve = []
    for weight in (2, 3):
        hits = 0
        for trial in range(40):
            rng = random.Random(1000 * weight + trial)
            truth = BitChain.from_support(
                n_qubits, rng.sample(range(n_qubits), weight)
            )
            res = decode_x(bundle, syndrome_x(bundle, truth))
            verdict = with_coset_verdict(cx, 1, res, truth, cohomology=True)
            hits += bool(verdict.notes.get("coset_correct"))
        curve.append(f"w{weight}: {hits}/40")
    report(
        7,
        "exhaustive weight-1 X decoding coset-correct",
        exhaustive_ok,
        f"{total}/{total} single-cell errors; curves {', '.join(curve)}",
    )


def test_criterion_08_homotopy_verification(
    classical_reductions, bundle_reductions
):
    identities_ok = all(
        equiv.verify() for _, _, equiv in classical_reductions
    )
    identities_ok = identities_ok and all(
        equiv.verify() for _, _, equiv in bundle_reductions.values()
    )
    ring = cycle_base(6).as_complex()
    for vertex in (0, 3):
        _, equiv = combine_cells(ring, vertex)
        identities_ok = identities_ok and equiv.verify()
    for edge in (0, 4):
        _, equiv = collapse_cell(ring, edge)
        identities_ok = identities_ok and equiv.verify()

    betti_ok = all(
        code.as_complex().betti(j) == reduced.betti(j)
        for code, reduced, _ in classical_reductions[:10]
        for j in (0, 1)
    )
    betti_ok = betti_ok and all(
        orig.complex.betti(1) == reduced.complex.betti(1)
        for orig, reduced, _ in bundle_reductions.values()
    )

    # Lipschitz distance transport on an exactly solvable pair: the
    # degree-1 homology distance is the lightest nonzero kernel vector.
    _, reduced, equiv = classical_reductions[0]
    original = equiv.f.target
    d_original = exact_kernel_distance(original.boundary(1))
    d_reduced = exact_kernel_distance(reduced.boundary(1))
    k_f = equiv.f.lipschitz()[1]  # reduced -> original
    k_g = equiv.g.lipschitz()[1]  # original -> reduced
    transport_ok = (
        k_f * d_reduced >= d_original and k_g * d_original >= d_reduced
    )
    report(
        8,
        "homotopy identities, betti, Lipschitz transport",
        identities_ok and betti_ok and transport_ok,
        f"{len(classical_reductions)} classical + "
        f"{len(bundle_reductions)} bundle equivalences; "
        f"d_orig={d_original}, d_red={d_reduced}, K_f={k_f}, K_g={k_g}",
    )


def test_criterion_09_weight_reduction_outcome(
    certified, classical_reductions, bundle_reductions
):
    # Splitting never raises a cell's degree, so a degree-1 original
    # bit or check keeps one degree-1 image; the exact {2,3} guarantee
    # therefore applies to codes whose degrees all start at 2 or more,
    # and the cap of 3 applies to every code.
    def reduced_degrees(reduced) -> set[int]:
        mat = reduced.boundary(1)
        flipped = mat.transpose()
        return {mat.row(i).bit_count() for i in range(mat.n_rows)} | {
            flipped.row(j).bit_count() for j in range(mat.n_cols)
        }

    def min_original_degree(code) -> int:
        var_deg = [0] * code.n
        check_deg = []
        for a in range(code.m):
            check_deg.append(len(code.adjacency[a]))
            for j in code.adjacency[a]:
                var_deg[j] += 1
        return min(min(var_deg), min(check_deg))

    cap_ok = True
    exact_ok = True
    exact_count = 0
    flagship_code = certified["n32"].code
    flagship_reduced, _ = weight_reduce_classical(flagship_code)
    pool = [(code, reduced) for code, reduced, _ in classical_reductions]
    pool.append((flagship_code, flagship_reduced))
    for code, reduced in pool:
        degrees = reduced_degrees(reduced)
        cap_ok = cap_ok and max(degrees) <= 3
        if min_original_degree(code) >= 2:
            exact_count += 1
            exact_ok = exact_ok and degrees <= {2, 3}
    stabilizers_ok = True
    k_ok = True
    worst = 0
    for orig, reduced, _ in bundle_reductions.values():
        reduced_css = reduced.css_code()
        worst = max(worst, reduced_css.max_stabilizer_weight())
        stabilizers_ok = (
            stabilizers_ok and reduced_css.max_stabilizer_weight() <= 6
        )
        k_ok = k_ok and (
            orig.css_code().k_logical() == reduced_css.k_logical()
        )
    report(
        9,
        "reduced degrees in {2,3}, stabilizers <= 6, k preserved",
        cap_ok and exact_ok and exact_count >= 5 and stabilizers_ok and k_ok,
        f"{len(pool)} classical codes capped at 3, {exact_count} with all "
        f"original degrees >= 2 land exactly in {{2,3}}; max reduced "
        f"stabilizer weight {worst}",
    )


def test_criterion_10_decode_through_homotopy(classical_reductions):
    _, reduced, equiv = classical_reductions[0]
    transport = reverse_equivalence(equiv)  # original -> reduced
    original = transport.f.source
    d1 = original.boundary(1)
    reduced_d1 = reduced.boundary(1)
    n_bits = original.dims[1]
    hits = 0
    for i in range(n_bits):
        truth = BitChain.from_support(n_bits, [i])
        res = decode_via_homotopy(
            transport,
            lambda s: decode_brute_force(reduced_d1, s),
            d1.mul_chain(truth),
        )
        verdict = with_coset_verdict(original, 1, res, truth)
        hits += verdict.success is DecodeSuccess.VERIFIED
    report(
        10,
        "weight-1 transport through the reduced code",
        hits == n_bits,
        f"{hits}/{n_bits} errors decoded coset-correctly",
    )


def test_criterion_11_spectral_certification():
    graph = certify_expander(101, 60, 0.5, seed=2026)
    attempts = graph.seed - 2026 + 1
    certified_ok = graph.kappa() <= 0.5 and 1 <= attempts <= 100
    worst_gap = 0.0
    for seed in range(10):
        probe = gen_twist_graph(51, 8, seed=seed)
        worst_gap = max(
            worst_gap, abs(probe.kappa() - kappa_dense(probe.ell, probe.shifts))
        )
    report(
        11,
        "expander certification and eigensolver cross-check",
        certified_ok and worst_gap <= 1e-9,
        f"attempt {attempts}, kappa = {graph.kappa():.4f}, "
        f"max cross-check gap {worst_gap:.1e}",
    )


def test_criterion_12_build_determinism(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(
        '{"preset": "desk", "out_dir": "%s"}' % out, encoding="utf-8"
    )
    assert cli_main(["--config", str(config), "build"]) == 0
    first = {
        p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
    }
    assert cli_main(["--config", str(config), "build"]) == 0
    second = {
        p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
    }
    report(
        12,
        "repeated builds are byte-identical",
        first == second and len(first) >= 8,
        f"{len(first)} artifact files compared",
    )
