"""Reproducible command-line workbench for fiber-bundle CSS codes.

Subcommands
-----------
``build``
    Construct and certify an instance from a config, write base, twist
    graph, bundle, and CSS artifacts plus a JSON report.
``distance``
    Exact code distances for small instances, search/analytic upper
    bounds otherwise; twist sweep for the twisted-torus preset.
``bench-decoders``
    Seeded sweeps of the three decoders over error weights and erasure
    sizes; per-trial CSV plus success-rate summary, success judged by
    the coset oracle.
``twistcode-mc``
    Monte Carlo checks of the interleaved-code violation model: exact
    closed form versus empirical frequency, and violation-to-weight
    ratios of random low-weight words.
``weight-reduce``
    Weight-reduce the base and the bundle, verify the homotopy
    equivalences, serialize them, and benchmark decoding through them.
``verify``
    Recheck certificates, CSS validity, duality, and artifact
    integrity.

Every run is determined byte-exactly by (config, master seed): stage
and trial seeds are derived by hashing, artifact files contain no wall
clock values, and timing is printed to stdout only.  Exit codes:
0 = all hard checks passed, 1 = soft-check deviations only, 2 = hard
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from fibercode.base import (
    BaseCertificate,
    CertificateParams,
    PartitionedBaseCode,
    export_base_sidecar,
    gen_base,
)
from fibercode.bundle import (
    Bundle,
    build_bundle,
    build_fiber_bundle_code,
    cycle_base,
    verify_h1_iso,
)
from fibercode.complexes import (
    ChainComplex,
    CssCode,
    coset_min_weight_exact,
    serialize_complex,
    transpose_complex,
)
from fibercode.decoders import (
    EXACT_MAX_DEGREE,
    DecodeSuccess,
    decode_brute_force,
    decode_erasure_x,
    decode_via_homotopy,
    decode_x,
    decode_z,
    with_coset_verdict,
)
from fibercode.gf2 import BitChain, Gf2Matrix, to_alist
from fibercode.homotopy import (
    load_equivalence,
    reverse_equivalence,
    save_equivalence,
    weight_reduce_bundle,
    weight_reduce_classical,
)
from fibercode.twists import (
    MAX_ELL,
    ExpanderCertificationError,
    TwistGraph,
    certify_expander,
    check_violation_probability,
    kappa_dense,
    sample_violation_rate,
    serialize_twist_graph,
    twist_code_matrix,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "build_instance",
    "cmd_build",
    "cmd_distance",
    "cmd_bench_decoders",
    "cmd_twistcode_mc",
    "cmd_weight_reduce",
    "cmd_verify",
    "main",
]

EXIT_OK = 0
EXIT_SOFT = 1
EXIT_HARD = 2

_CERT_SCALES: dict[str, Callable[[], CertificateParams]] = {
    "desk": CertificateParams.desk_scale,
    "paper": CertificateParams.paper_scale,
    "structural": CertificateParams.structural_only,
}

_PRESETS: dict[str, dict[str, Any]] = {
    # Product of two small circles: the classic exactly-solvable case.
    "toric": {
        "family": "cycle",
        "cycle_length": 3,
        "fiber_length": 3,
        "twist": 0,
        "r_max": 1,
    },
    # Same product with one twisted edge; `distance` sweeps the twist.
    "twisted-torus": {
        "family": "cycle",
        "cycle_length": 3,
        "fiber_length": 3,
        "twist": 1,
        "r_max": 1,
    },
    # The flagship generated instance: 1400 qubits.
    "paper": {
        "family": "random",
        "n": 32,
        "delta": 8,
        "k_types": 4,
        "ell": 5,
    },
    # Small certified instance; fast enough for every subcommand.
    "desk": {
        "family": "random",
        "n": 16,
        "delta": 5,
        "k_types": 6,
        "ell": 3,
    },
    "custom": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; one value object drives a run."""

    preset: str = "paper"
    family: str = "random"  # "random" (generated base) or "cycle"
    # generated-base family
    n: int = 32
    delta: int = 8
    k_types: int = 4
    ell: int = 5
    kappa_target: float = 0.5
    certificate_scale: str = "desk"
    # cycle family
    cycle_length: int = 3
    fiber_length: int = 3
    twist: int = 0
    # decoder settings
    decoder_mode: str = "exact"
    fixable_ratio: float = 0.8
    r_max: int | None = None
    # distance settings
    distance_budget: int = 26
    distance_search_trials: int = 200
    # benchmark settings
    x_weights: tuple[int, ...] = (1, 2, 3)
    z_weights: tuple[int, ...] = (1, 2, 3)
    erasure_sizes: tuple[int, ...] = (2, 4, 6, 8)
    trials_per_point: int = 40
    # Monte Carlo settings
    mc_samples: int = 100_000
    mc_pairs: int = 20
    mc_words: int = 50
    mc_word_weight: int = 6
    # run plumbing
    master_seed: int = 2026
    out_dir: str = "out"
    threads: int = 1

    def validate(self) -> None:
        if self.preset not in _PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.family not in ("random", "cycle"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "random":
            if self.n % 4:
                raise ValueError("block length must be divisible by 4")
            m = (3 * self.n) // 4
            if self.k_types < 1 or m % self.k_types:
                raise ValueError(
                    f"{self.k_types} types do not evenly split {m} checks"
                )
            if not 2 <= self.delta <= self.n:
                raise ValueError("density parameter must be in [2, n]")
            if not 2 <= self.ell <= MAX_ELL:
                raise ValueError(f"fiber parameter must be in [2, {MAX_ELL}]")
            if not 0 < self.kappa_target < 1:
                raise ValueError("expansion target must be in (0, 1)")
            if self.mc_word_weight > self.n * self.ell:
                raise ValueError(
                    f"mc_word_weight exceeds the {self.n * self.ell} "
                    "twist-code bits"
                )
        else:
            if self.cycle_length < 2 or self.fiber_length < 2:
                raise ValueError("cycle and fiber lengths must be at least 2")
            if not 0 <= self.twist < self.fiber_length:
                raise ValueError("twist must lie inside the fiber")
            if self.r_max is None:
                raise ValueError(
                    "cycle-family configs must set the string budget r_max"
                )
        if self.certificate_scale not in _CERT_SCALES:
            raise ValueError(
                f"unknown certificate scale {self.certificate_scale!r}"
            )
        if self.decoder_mode not in ("exact", "alternating"):
            raise ValueError(f"unknown decoder mode {self.decoder_mode!r}")
        if not 0 < self.fixable_ratio <= 1:
            raise ValueError("fixable ratio must be in (0, 1]")
        if self.r_max is not None and self.r_max < 0:
            raise ValueError("string budget must be nonnegative")
        if self.distance_budget < 1 or self.distance_search_trials < 0:
            raise ValueError("distance budgets must be positive")
        for name in ("x_weights", "z_weights", "erasure_sizes"):
            values = getattr(self, name)
            if not values or any(w < 1 for w in values):
                raise ValueError(f"{name} must be a nonempty positive list")
        for name in (
            "trials_per_point",
            "mc_samples",
            "mc_pairs",
            "mc_words",
            "mc_word_weight",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        # Trials run in one thread; the field stays only because every
        # report echoes the config.
        if self.threads != 1:
            raise ValueError("threads must be 1")

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON values each ExperimentConfig field annotation accepts.
_ACCEPTS: dict[str, Callable[[Any], bool]] = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "int | None": lambda v: v is None or _is_int(v),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}


def load_config(
    path: str | None,
    *,
    seed: int | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    """Resolve preset defaults, file values, and flag overrides, in order."""
    data: dict[str, Any] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    annotations = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(data) - set(annotations)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        expected = annotations[key]
        if not _ACCEPTS[expected](value):
            raise ValueError(f"{key} must be {expected}, got {value!r}")
        if isinstance(value, list):
            data[key] = tuple(value)
    preset = data.get("preset", "paper")
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    merged: dict[str, Any] = {"preset": preset}
    merged.update(_PRESETS[preset])
    merged.update(data)
    if seed is not None:
        merged["master_seed"] = seed
    if out is not None:
        merged["out_dir"] = out
    config = ExperimentConfig(**merged)
    config.validate()
    return config


def derive_seed(master: int, *tags: object) -> int:
    """Stable per-stage / per-trial seed from the master seed and tags."""
    material = json.dumps([master, *tags], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") & (
        (1 << 63) - 1
    )


# -- instance construction ----------------------------------------------------


class BuildFailure(Exception):
    """Generation or certification failed; carries what was seen."""

    def __init__(self, message: str, details: dict[str, Any]):
        super().__init__(message)
        self.details = details


@dataclass
class BuiltInstance:
    config: ExperimentConfig
    code: PartitionedBaseCode
    certificate: BaseCertificate | None
    graph: TwistGraph | None
    bundle: Bundle
    css: CssCode
    seeds: dict[str, int]


def build_instance(config: ExperimentConfig) -> BuiltInstance:
    """Deterministically construct the configured instance in memory."""
    if config.family == "cycle":
        code = cycle_base(config.cycle_length)
        twists = {(0, 0): config.twist} if config.twist else {}
        bundle = build_bundle(code, config.fiber_length, twists)
        built = BuiltInstance(
            config, code, None, None, bundle, bundle.css_code(), {}
        )
        return built
    seeds = {
        "base": derive_seed(config.master_seed, "base"),
        "graph": derive_seed(config.master_seed, "graph"),
    }
    params = _CERT_SCALES[config.certificate_scale]()
    code, cert = gen_base(
        config.n, config.delta, config.k_types, seeds["base"], params=params
    )
    if not cert.passed:
        raise BuildFailure(
            "no base certified within the attempt cap",
            {"best_certificate": cert.as_dict(), "seed": seeds["base"]},
        )
    try:
        graph = certify_expander(
            config.ell,
            config.k_types,
            config.kappa_target,
            seed=seeds["graph"],
        )
    except ExpanderCertificationError as exc:
        raise BuildFailure(
            str(exc),
            {
                "best_kappa": exc.best_kappa,
                "attempts": exc.attempts,
                "shifts": list(exc.best.shifts),
                "seed": seeds["graph"],
            },
        ) from exc
    bundle = build_fiber_bundle_code(code, graph)
    return BuiltInstance(
        config, code, cert, graph, bundle, bundle.css_code(), seeds
    )


# -- report plumbing ----------------------------------------------------------


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _weight_histogram(mat: Gf2Matrix) -> dict[str, int]:
    hist = Counter(r.bit_count() for r in mat.rows)
    return {str(w): hist[w] for w in sorted(hist)}


def _expander_report(
    graph: TwistGraph | None, kappa_target: float
) -> dict[str, Any] | None:
    if graph is None:
        return None
    kappa = graph.kappa()
    dense = kappa_dense(graph.ell, graph.shifts)
    return {
        "ell": graph.ell,
        "shifts": list(graph.shifts),
        "seed": graph.seed,
        "kappa": kappa,
        "kappa_target": kappa_target,
        "kappa_dense_crosscheck": dense,
        "crosscheck_gap": abs(kappa - dense),
    }


def _code_report(built: BuiltInstance) -> dict[str, Any]:
    css = built.css
    return {
        "dims": list(built.bundle.complex.dims),
        "m_fiber": built.bundle.m_fiber,
        "n_qubits": css.n_qubits,
        "k_logical": css.k_logical(),
        "max_stabilizer_weight": css.max_stabilizer_weight(),
        "stabilizer_weight_histogram": {
            "x_checks": _weight_histogram(css.h_x),
            "z_checks": _weight_histogram(css.h_z),
        },
    }


def _build_artifacts(built: BuiltInstance) -> dict[str, str]:
    """The deterministic artifact files a build writes, name -> content."""
    bundle = built.bundle
    artifacts = {
        "base.alist": to_alist(built.code.matrix()),
        "base.sidecar": export_base_sidecar(built.code),
        "bundle.json": _dump_json(
            {
                "family": built.config.family,
                "m_fiber": bundle.m_fiber,
                "twists": [list(t) for t in bundle.twists],
            }
        ),
        "bundle_complex.txt": serialize_complex(bundle.complex),
        "css_hx.alist": to_alist(built.css.h_x),
        "css_hz.alist": to_alist(built.css.h_z),
    }
    if built.graph is not None:
        artifacts["twist_graph.txt"] = serialize_twist_graph(built.graph)
    return artifacts


def _relaxed_constants(config: ExperimentConfig) -> dict[str, Any]:
    """Every knob that softens a guarantee, echoed so no report hides one."""
    return {
        "certificate_scale": config.certificate_scale,
        "kappa_target": config.kappa_target,
        "fixable_ratio": config.fixable_ratio,
        "r_max": config.r_max,
    }


def _require_built(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    if not (out / "report.json").exists():
        raise BuildFailure(
            f"no build report under {out}; run the build subcommand first",
            {},
        )
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_build(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    try:
        built = build_instance(config)
    except BuildFailure as exc:
        print(f"build failed: {exc}")
        if exc.details:
            print(_dump_json(exc.details), end="")
        return EXIT_HARD
    out = Path(config.out_dir)
    artifacts = _build_artifacts(built)
    for name, text in artifacts.items():
        _write(out / name, text)
    report = {
        "config": config.as_dict(),
        "seeds": built.seeds,
        "certificates": {
            "base": built.certificate.as_dict()
            if built.certificate
            else None,
            "expander": _expander_report(built.graph, config.kappa_target),
        },
        "code": _code_report(built),
        "h1_isomorphism": verify_h1_iso(built.bundle).as_dict(),
        "relaxed_constants": _relaxed_constants(config),
        "artifacts": sorted(artifacts),
    }
    _write(out / "config.json", _dump_json(config.as_dict()))
    _write(out / "report.json", _dump_json(report))
    elapsed = time.perf_counter() - started
    code = report["code"]
    print(
        f"built {config.preset} instance: N={code['n_qubits']} "
        f"k={code['k_logical']} max_stabilizer={code['max_stabilizer_weight']}"
    )
    print(f"artifacts in {out} ({elapsed:.2f}s)")
    return EXIT_OK


def _search_min_weight(
    cx: ChainComplex,
    j: int,
    mode: str,
    trials: int,
    seed: int,
) -> int | None:
    """Seeded upper bound on the nontrivial (co)cycle minimum weight."""
    if mode == "cohomology":
        basis = cx.cohomology_basis(j)
        trivializer = cx.boundary(j).transpose()
        offset_dim = cx.dims[j - 1] if j > 0 else 0
    else:
        basis = cx.homology_basis(j)
        trivializer = cx.boundary(j + 1)
        offset_dim = cx.dims[j + 1] if j < cx.top_degree else 0
    if not basis:
        return None
    rng = random.Random(seed)
    best = min(v.weight() for v in basis)
    for _ in range(trials):
        mask = rng.randrange(1, 1 << len(basis))
        combo = 0
        for i, v in enumerate(basis):
            if (mask >> i) & 1:
                combo ^= v.bits
        offset = 0
        if offset_dim:
            for _ in range(rng.randint(0, 4)):
                offset ^= 1 << rng.randrange(offset_dim)
        best = min(best, int.bit_count(combo ^ trivializer.mul_bits(offset)))
    return best


def _distance_section(
    bundle: Bundle, config: ExperimentConfig, label: str
) -> dict[str, Any]:
    cx = bundle.complex
    n_qubits = cx.dims[1]
    section: dict[str, Any] = {
        "instance": label,
        "n_qubits": n_qubits,
        "k_logical": bundle.css_code().k_logical(),
        "d_x_upper_analytic": bundle.m_fiber,
    }
    if n_qubits <= config.distance_budget:
        section["exact"] = True
        section["d_x"] = coset_min_weight_exact(
            cx, 1, "cohomology", budget=config.distance_budget
        )
        section["d_z"] = coset_min_weight_exact(
            cx, 1, "homology", budget=config.distance_budget
        )
    else:
        seed = derive_seed(config.master_seed, "distance", label)
        section["exact"] = False
        section["search_seed"] = seed
        section["search_trials"] = config.distance_search_trials
        d_x = _search_min_weight(
            cx, 1, "cohomology", config.distance_search_trials, seed
        )
        section["d_x_upper"] = (
            None if d_x is None else min(d_x, bundle.m_fiber)
        )
        section["d_z_upper"] = _search_min_weight(
            cx, 1, "homology", config.distance_search_trials, seed + 1
        )
    return section


def cmd_distance(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    try:
        out = _require_built(config)
        built = build_instance(config)
    except BuildFailure as exc:
        print(f"distance failed: {exc}")
        return EXIT_HARD
    report: dict[str, Any] = {
        "config": config.as_dict(),
        "main": _distance_section(built.bundle, config, config.preset),
    }
    if config.preset == "twisted-torus":
        sweep = []
        best = None
        for t in range(config.fiber_length):
            twisted = build_bundle(
                built.code,
                config.fiber_length,
                {(0, 0): t} if t else {},
            )
            section = _distance_section(twisted, config, f"twist={t}")
            section["twist"] = t
            sweep.append(section)
            if section.get("exact"):
                dist = min(section["d_x"], section["d_z"])
                if best is None or dist > best["distance"]:
                    best = {"twist": t, "distance": dist}
        report["twist_sweep"] = sweep
        report["best_over_twists"] = best
    _write(out / "report_distance.json", _dump_json(report))
    main = report["main"]
    if main.get("exact"):
        print(f"exact distances: d_x={main['d_x']} d_z={main['d_z']}")
    else:
        print(
            f"upper bounds: d_x<={main['d_x_upper']} "
            f"d_z<={main['d_z_upper']} (analytic d_x<={main['d_x_upper_analytic']})"
        )
    if "best_over_twists" in report and report["best_over_twists"]:
        best = report["best_over_twists"]
        print(
            f"twist sweep best: twist={best['twist']} "
            f"distance={best['distance']}"
        )
    print(
        f"report_distance.json in {out} "
        f"({time.perf_counter() - started:.2f}s)"
    )
    return EXIT_OK


_TRIAL_COLUMNS = (
    "error_model",
    "point",
    "trial",
    "seed",
    "error_weight",
    "erased_count",
    "decoder",
    "steps",
    "success",
    "coset_correct",
    "detail",
)


# (error model, seed tag, config field holding its points), in job order.
_BENCH_MODELS = (
    ("x-bitflip", "x", "x_weights"),
    ("z-bitflip", "z", "z_weights"),
    ("erasure", "erasure", "erasure_sizes"),
)


def _bench_jobs(
    built: BuiltInstance,
) -> list[tuple[str, int, int, int]]:
    config = built.config
    seed = config.master_seed
    return [
        (model, point, trial, derive_seed(seed, "bench", tag, point, trial))
        for model, tag, points in _BENCH_MODELS
        for point in getattr(config, points)
        for trial in range(config.trials_per_point)
    ]


def _run_bench_trial(
    built: BuiltInstance, job: tuple[str, int, int, int]
) -> dict[str, Any]:
    model, point, trial, seed = job
    config = built.config
    bundle = built.bundle
    cx = bundle.complex
    n_qubits = cx.dims[1]
    rng = random.Random(seed)
    erased: list[int] = []
    if model == "erasure":
        erased = sorted(rng.sample(range(n_qubits), point))
        support = [c for c in erased if rng.random() < 0.5]
    else:
        support = rng.sample(range(n_qubits), point)
    truth = BitChain.from_support(n_qubits, support)
    if model == "z-bitflip":
        syndrome = cx.boundary(1).mul_chain(truth)
        result = decode_z(bundle, syndrome, r_max=config.r_max)
        decoder = "z-greedy-string"
        cohomology = False
    else:
        syndrome = cx.boundary(2).transpose().mul_chain(truth)
        if model == "erasure":
            result = decode_erasure_x(bundle, erased, syndrome)
            decoder = "erasure-peeling"
        else:
            result = decode_x(
                bundle,
                syndrome,
                mode=config.decoder_mode,
                ratio=config.fixable_ratio,
            )
            decoder = "x-greedy-fiber"
        cohomology = True
    verdict = with_coset_verdict(cx, 1, result, truth, cohomology=cohomology)
    return {
        "error_model": model,
        "point": point,
        "trial": trial,
        "seed": seed,
        "error_weight": truth.weight(),
        "erased_count": len(erased),
        "decoder": decoder,
        "steps": verdict.steps,
        "success": verdict.success.value,
        "coset_correct": verdict.notes.get("coset_correct", False),
        "detail": verdict.notes.get("stage", ""),
    }


def _write_csv(
    path: Path, columns: Sequence[str], rows: Iterable[dict[str, Any]]
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=list(columns), lineterminator="\n"
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_bench_decoders(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    try:
        out = _require_built(config)
        built = build_instance(config)
    except BuildFailure as exc:
        print(f"bench failed: {exc}")
        return EXIT_HARD
    n_qubits = built.css.n_qubits
    for _, _, name in _BENCH_MODELS:
        if max(getattr(config, name)) > n_qubits:
            print(f"bad config: {name} exceed the {n_qubits} qubits")
            return EXIT_HARD
    max_deg = max(map(len, built.bundle.base_code.adjacency))
    if config.decoder_mode == "exact" and max_deg > EXACT_MAX_DEGREE:
        print(
            f"bad config: decoder_mode exact needs base check degrees <= "
            f"{EXACT_MAX_DEGREE}, the base has {max_deg}"
        )
        return EXIT_HARD
    rows = [_run_bench_trial(built, job) for job in _bench_jobs(built)]
    rows.sort(key=lambda r: (r["error_model"], r["point"], r["trial"]))
    _write_csv(out / "bench_trials.csv", _TRIAL_COLUMNS, rows)

    summary_rows = []
    points = sorted({(r["error_model"], r["point"]) for r in rows})
    for model, point in points:
        bucket = [
            r for r in rows if r["error_model"] == model and r["point"] == point
        ]
        verified = sum(1 for r in bucket if r["coset_correct"])
        matched = sum(
            1 for r in bucket if r["success"] != DecodeSuccess.FAILED.value
        )
        summary_rows.append(
            {
                "error_model": model,
                "point": point,
                "trials": len(bucket),
                "syndrome_matched": matched,
                "coset_correct": verified,
                "success_rate": f"{verified / len(bucket):.6f}",
                "experimental": model == "z-bitflip",
            }
        )
    _write_csv(
        out / "bench_summary.csv",
        (
            "error_model",
            "point",
            "trials",
            "syndrome_matched",
            "coset_correct",
            "success_rate",
            "experimental",
        ),
        summary_rows,
    )
    erasure_rows = [r for r in rows if r["error_model"] == "erasure"]
    if erasure_rows:
        c_observed = max(
            r["steps"] / (r["point"] * max_deg) for r in erasure_rows
        )
        print(f"erasure operations <= c*|D|*degree with c={c_observed:.3f}")
    for row in summary_rows:
        tag = " (experimental)" if row["experimental"] else ""
        print(
            f"{row['error_model']} point={row['point']}: "
            f"{row['coset_correct']}/{row['trials']} coset-correct{tag}"
        )
    print(
        f"bench_trials.csv and bench_summary.csv in {out} "
        f"({time.perf_counter() - started:.2f}s)"
    )
    return EXIT_OK


def _sample_word(rng: random.Random, length: int, weight: int) -> BitChain:
    return BitChain.from_support(length, rng.sample(range(length), weight))


def cmd_twistcode_mc(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    if config.family != "random":
        print("twistcode-mc needs a generated-base config (family=random)")
        return EXIT_HARD
    out = Path(config.out_dir)
    n, delta = config.n, config.delta
    master = config.master_seed

    pair_rows: list[dict[str, Any]] = []
    soft_ok = True
    # The first pair is the documented (|y|,|z|) = (1,0) case; the rest
    # are sampled light pairs.  A pair's closed form is exact, so the
    # empirical frequency must land within 3 standard errors.
    pair_specs: list[tuple[int, int]] = [(1, 0)]
    spec_rng = random.Random(derive_seed(master, "mc", "pairs"))
    while len(pair_specs) < config.mc_pairs:
        wy = spec_rng.randint(0, 4)
        wz = spec_rng.randint(0, 4)
        if wy + wz == 0:
            continue
        pair_specs.append((wy, wz))
    for index, (wy, wz) in enumerate(pair_specs):
        seed = derive_seed(master, "mc", "pair", index)
        rng = random.Random(seed)
        y = _sample_word(rng, n, wy)
        z = _sample_word(rng, n, wz)
        p = check_violation_probability(n, delta, y, z)
        empirical = sample_violation_rate(
            n, delta, y, z, config.mc_samples, seed
        )
        stderr = math.sqrt(p * (1 - p) / config.mc_samples)
        z_score = 0.0 if stderr == 0 else (empirical - p) / stderr
        pair_rows.append(
            {
                "y_weight": y.weight(),
                "z_weight": z.weight(),
                "overlap": (y & z).weight(),
                "closed_form": p,
                "empirical": empirical,
                "samples": config.mc_samples,
                "seed": seed,
                "z_score": z_score,
            }
        )
        if abs(z_score) > 3:
            soft_ok = False
    zero = BitChain(n, 0)
    zero_exact = (
        check_violation_probability(n, delta, zero, zero) == 0.0
        and sample_violation_rate(
            n, delta, zero, zero, 1000, derive_seed(master, "mc", "zero")
        )
        == 0.0
    )

    word_section: dict[str, Any]
    base_seed = derive_seed(master, "base")
    params = _CERT_SCALES[config.certificate_scale]()
    code, cert = gen_base(n, delta, config.k_types, base_seed, params=params)
    if not cert.passed:
        word_section = {"skipped": "no certified base"}
        ratios_ok = True
    else:
        try:
            graph = certify_expander(
                config.ell,
                config.k_types,
                config.kappa_target,
                seed=derive_seed(master, "graph"),
            )
        except ExpanderCertificationError as exc:
            graph = exc.best
        matrix = twist_code_matrix(code, graph)
        word_rng = random.Random(derive_seed(master, "mc", "words"))
        ratios = []
        for _ in range(config.mc_words):
            weight = word_rng.randint(1, config.mc_word_weight)
            word = _sample_word(word_rng, matrix.n_cols, weight)
            violations = int.bit_count(matrix.mul_bits(word.bits))
            ratios.append(violations / weight)
        ratios_ok = min(ratios) >= 0.004
        word_section = {
            "words": config.mc_words,
            "max_word_weight": config.mc_word_weight,
            "ratio_min": min(ratios),
            "ratio_mean": sum(ratios) / len(ratios),
            "ratio_max": max(ratios),
            "threshold": 0.004,
            "all_above_threshold": ratios_ok,
            "seed": derive_seed(master, "mc", "words"),
        }

    max_abs_z = max(abs(r["z_score"]) for r in pair_rows)
    report = {
        "config": config.as_dict(),
        "violation_pairs": pair_rows,
        "max_abs_z_score": max_abs_z,
        "pairs_within_3_sigma": soft_ok,
        "zero_pair_exact": zero_exact,
        "word_ratios": word_section,
    }
    _write(out / "report_mc.json", _dump_json(report))
    print(
        f"{len(pair_rows)} violation pairs, max |z| = {max_abs_z:.2f} "
        f"({'ok' if soft_ok else 'DEVIATION'})"
    )
    if "ratio_min" in word_section:
        print(
            f"word violation ratios >= {word_section['ratio_min']:.3f} "
            f"({'ok' if ratios_ok else 'DEVIATION'} vs 0.004)"
        )
    print(
        f"report_mc.json in {out} ({time.perf_counter() - started:.2f}s)"
    )
    if not zero_exact:
        return EXIT_HARD
    return EXIT_OK if (soft_ok and ratios_ok) else EXIT_SOFT


def _transport_bench(
    classical_equiv,
    reduced_cx: ChainComplex,
) -> tuple[list[dict[str, Any]], int]:
    """Weight-1 sweep decoding the original base through the reduced one."""
    rev = reverse_equivalence(classical_equiv)  # original -> reduced
    original = rev.f.source
    d1 = original.boundary(1)
    reduced_d1 = reduced_cx.boundary(1)
    rows = []
    verified = 0
    for i in range(original.dims[1]):
        truth = BitChain.from_support(original.dims[1], [i])
        res = decode_via_homotopy(
            rev,
            lambda s: decode_brute_force(reduced_d1, s),
            d1.mul_chain(truth),
        )
        verdict = with_coset_verdict(original, 1, res, truth)
        ok = verdict.notes.get("coset_correct", False)
        verified += bool(ok)
        rows.append(
            {
                "error_model": "classical-via-reduced",
                "point": 1,
                "trial": i,
                "seed": 0,
                "error_weight": 1,
                "erased_count": 0,
                "decoder": "brute-force-through-homotopy",
                "steps": verdict.steps,
                "success": verdict.success.value,
                "coset_correct": ok,
                "detail": "",
            }
        )
    return rows, verified


def cmd_weight_reduce(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    try:
        out = _require_built(config)
        built = build_instance(config)
    except BuildFailure as exc:
        print(f"weight-reduce failed: {exc}")
        return EXIT_HARD

    try:  # each reduction verifies its equivalence once, raising if not
        reduced_cx, classical_equiv = weight_reduce_classical(built.code)
        reduced_bundle, bundle_equiv = weight_reduce_bundle(built.bundle)
    except RuntimeError as exc:
        print(exc)
        return EXIT_HARD

    reduced_base_matrix = reduced_cx.boundary(1)
    reduced_css = reduced_bundle.css_code()
    base_degrees = sorted(
        {r.bit_count() for r in reduced_base_matrix.rows}
        | {c.bit_count() for c in reduced_base_matrix.transpose().rows}
    )
    save_equivalence(classical_equiv, out / "equivalence_classical")
    save_equivalence(bundle_equiv, out / "equivalence_bundle")
    _write(out / "reduced_base.alist", to_alist(reduced_base_matrix))
    _write(
        out / "reduced_bundle.json",
        _dump_json(
            {
                "family": config.family,
                "m_fiber": reduced_bundle.m_fiber,
                "twists": [list(t) for t in reduced_bundle.twists],
            }
        ),
    )
    _write(
        out / "reduced_bundle_complex.txt",
        serialize_complex(reduced_bundle.complex),
    )
    _write(out / "reduced_css_hx.alist", to_alist(reduced_css.h_x))
    _write(out / "reduced_css_hz.alist", to_alist(reduced_css.h_z))

    bench_rows, verified = _transport_bench(classical_equiv, reduced_cx)
    _write_csv(out / "reduction_bench.csv", _TRIAL_COLUMNS, bench_rows)

    k_logical = built.css.k_logical()
    report = {
        "config": config.as_dict(),
        "classical": {
            "verified": True,
            "original_dims": list(classical_equiv.f.target.dims),
            "reduced_dims": list(reduced_cx.dims),
            "reduced_degrees": base_degrees,
            "degrees_in_2_3": all(d in (2, 3) for d in base_degrees),
            "lipschitz": {
                k: list(v)
                for k, v in classical_equiv.lipschitz_report().items()
            },
        },
        "bundle": {
            "verified": True,
            "original_dims": list(built.bundle.complex.dims),
            "reduced_dims": list(reduced_bundle.complex.dims),
            # The verified equivalence makes H1 isomorphic, so k is kept.
            "k_logical_before": k_logical,
            "k_logical_after": k_logical,
            "k_preserved": True,
            "max_stabilizer_before": built.css.max_stabilizer_weight(),
            "max_stabilizer_after": reduced_css.max_stabilizer_weight(),
            "stabilizer_weight_histogram_before": {
                "x_checks": _weight_histogram(built.css.h_x),
                "z_checks": _weight_histogram(built.css.h_z),
            },
            "stabilizer_weight_histogram_after": {
                "x_checks": _weight_histogram(reduced_css.h_x),
                "z_checks": _weight_histogram(reduced_css.h_z),
            },
            "lipschitz": {
                k: list(v)
                for k, v in bundle_equiv.lipschitz_report().items()
            },
        },
        "transport_bench": {
            "trials": len(bench_rows),
            "coset_correct": verified,
        },
    }
    _write(out / "report_reduction.json", _dump_json(report))
    bundle_part = report["bundle"]
    print(
        f"classical degrees {base_degrees}; bundle max stabilizer "
        f"{bundle_part['max_stabilizer_before']} -> "
        f"{bundle_part['max_stabilizer_after']}; "
        f"k {bundle_part['k_logical_before']} -> "
        f"{bundle_part['k_logical_after']}"
    )
    print(
        f"transport bench: {verified}/{len(bench_rows)} weight-1 errors "
        "coset-correct through the reduced base"
    )
    print(
        f"reduction artifacts in {out} "
        f"({time.perf_counter() - started:.2f}s)"
    )
    return EXIT_OK


def cmd_verify(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    try:
        built = build_instance(config)
    except BuildFailure as exc:
        print(f"verify failed to construct the instance: {exc}")
        return EXIT_HARD

    try:
        built.bundle.complex.validate()
        check("boundary maps compose to zero", True)
    except ValueError:
        check("boundary maps compose to zero", False)
    try:
        built.css.validate()
        check("css orthogonality h_x h_z^T = 0", True)
    except ValueError:
        check("css orthogonality h_x h_z^T = 0", False)

    cx = built.bundle.complex
    check(
        "degree-1 betti equals dual degree-1 betti",
        cx.betti(1) == transpose_complex(cx).betti(cx.top_degree - 1),
    )
    if built.certificate is not None:
        check("base certificate passes", built.certificate.passed)
        check(
            "logical count k = n/4 on full-rank base",
            not built.certificate.full_rank
            or built.css.k_logical() == config.n // 4,
        )
    if built.graph is not None:
        kappa = built.graph.kappa()
        dense = kappa_dense(built.graph.ell, built.graph.shifts)
        check("expander kappa within target", kappa <= config.kappa_target)
        check(
            "kappa closed form matches dense eigensolver",
            abs(kappa - dense) <= 1e-9,
        )
        check(
            "projection identifies degree-1 cohomology",
            verify_h1_iso(built.bundle).isomorphism_holds,
        )

    out = Path(config.out_dir)
    if (out / "report.json").exists():
        artifacts = _build_artifacts(built)
        stale = [
            name
            for name, text in sorted(artifacts.items())
            if not (out / name).exists()
            or (out / name).read_text(encoding="utf-8") != text
        ]
        check(f"build artifacts match the config ({len(artifacts)} files)",
              not stale)
        if stale:
            print(f"      stale or missing: {', '.join(stale)}")
    else:
        print(f"note: no build artifacts under {out}; skipped integrity check")
    for name in ("equivalence_classical", "equivalence_bundle"):
        directory = out / name
        if directory.exists():
            try:
                load_equivalence(directory)  # verifies before it returns
                ok = True
            except (ValueError, OSError):
                ok = False
            check(f"saved {name.replace('_', ' ')} verifies", ok)

    failed = [name for name, ok in checks if not ok]
    _write(
        out / "report_verify.json",
        _dump_json(
            {
                "config": config.as_dict(),
                "checks": [
                    {"name": name, "passed": ok} for name, ok in checks
                ],
                "all_passed": not failed,
            }
        ),
    )
    print(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed "
        f"({time.perf_counter() - started:.2f}s)"
    )
    return EXIT_OK if not failed else EXIT_HARD


# -- entry point ----------------------------------------------------------------


_COMMANDS: dict[str, Callable[[ExperimentConfig], int]] = {
    "build": cmd_build,
    "distance": cmd_distance,
    "bench-decoders": cmd_bench_decoders,
    "twistcode-mc": cmd_twistcode_mc,
    "weight-reduce": cmd_weight_reduce,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fibercode",
        description="workbench for twisted circle-bundle CSS codes",
    )
    parser.add_argument(
        "--config", metavar="PATH", help="JSON experiment config"
    )
    parser.add_argument(
        "--seed", type=int, metavar="U64", help="override the master seed"
    )
    parser.add_argument(
        "--out", metavar="DIR", help="override the output directory"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, out=args.out)
    except (ValueError, OSError) as exc:
        print(f"bad config: {exc}")
        return EXIT_HARD
    return _COMMANDS[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
