"""End-to-end tests of the command-line workbench.

Every test drives the real entry point in-process via ``main(argv)``
against throwaway output directories, then inspects the artifact files
the way a user would.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from fibercode.cli import (
    EXIT_HARD,
    EXIT_OK,
    BuildFailure,
    ExperimentConfig,
    build_instance,
    derive_seed,
    load_config,
    main,
)
from fibercode.gf2 import Gf2Matrix, from_alist, to_alist
from fibercode.homotopy import (
    HomotopyEquivalence,
    load_equivalence,
    weight_reduce_bundle,
)


def write_config(path: Path, **values) -> Path:
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


def read_report(out: Path, name: str = "report.json") -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def toric(tmp_path_factory) -> tuple[Path, Path]:
    """Config path and output dir for a built toric instance."""
    out = tmp_path_factory.mktemp("toric_out")
    cfg = write_config(
        tmp_path_factory.mktemp("toric_cfg") / "config.json",
        preset="toric",
        out_dir=str(out),
        trials_per_point=4,
        erasure_sizes=[2, 4],
    )
    assert main(["--config", str(cfg), "build"]) == EXIT_OK
    return cfg, out


@pytest.fixture(scope="module")
def desk(tmp_path_factory) -> tuple[Path, Path]:
    """Config path and output dir for a built certified random instance."""
    out = tmp_path_factory.mktemp("desk_out")
    cfg = write_config(
        tmp_path_factory.mktemp("desk_cfg") / "config.json",
        preset="desk",
        out_dir=str(out),
        trials_per_point=4,
        x_weights=[1],
        z_weights=[1],
        erasure_sizes=[3, 6],
        mc_samples=4000,
        mc_pairs=5,
        mc_words=10,
    )
    assert main(["--config", str(cfg), "build"]) == EXIT_OK
    return cfg, out


class TestConfig:
    def test_defaults_to_flagship_preset(self):
        config = load_config(None)
        assert config.preset == "paper"
        assert config.family == "random"
        assert (config.n, config.delta, config.k_types, config.ell) == (
            32,
            8,
            4,
            5,
        )

    def test_preset_then_file_then_flags(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            preset="toric",
            trials_per_point=7,
            master_seed=11,
        )
        config = load_config(str(cfg), seed=99, out="elsewhere", threads=3)
        assert config.family == "cycle"  # from the preset
        assert config.trials_per_point == 7  # from the file
        assert config.master_seed == 99  # flag beats file
        assert config.out_dir == "elsewhere"
        assert config.threads == 3

    def test_sequence_values_become_tuples(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="desk", erasure_sizes=[2, 5]
        )
        config = load_config(str(cfg))
        assert config.erasure_sizes == (2, 5)
        assert isinstance(config.x_weights, tuple)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="toric", bogus=1)
        with pytest.raises(ValueError, match="bogus"):
            load_config(str(cfg))

    def test_unknown_preset_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="np-complete")
        with pytest.raises(ValueError, match="preset"):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 30},
            {"k_types": 5},
            {"delta": 1},
            {"ell": 1},
            {"ell": 1025},
            {"kappa_target": 1.5},
            {"certificate_scale": "cosmic"},
            {"decoder_mode": "psychic"},
            {"fixable_ratio": 0.0},
            {"trials_per_point": 0},
            {"x_weights": []},
            {"threads": 0},
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", preset="paper", **overrides)
        with pytest.raises(ValueError):
            load_config(str(cfg))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": "16"},
            {"x_weights": 5},
            {"x_weights": ["a"]},
            {"x_weights": [1.5]},
            {"fixable_ratio": "0.8"},
            {"r_max": "1"},
            {"master_seed": True},
            {"mc_samples": True},
            {"preset": ["desk"]},
            {"out_dir": None},
        ],
    )
    def test_wrongly_typed_values_exit_hard(
        self, tmp_path, capsys, overrides
    ):
        cfg = write_config(
            tmp_path / "c.json", **{"preset": "desk", **overrides}
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_HARD
        assert capsys.readouterr().out.startswith("bad config: ")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fixable_ratio": 1},
            {"kappa_target": 0.25},
            {"r_max": None},
            {"r_max": 2},
            {"x_weights": [2, 3]},
        ],
    )
    def test_well_typed_values_load(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", preset="desk", **overrides)
        config = load_config(str(cfg))
        for key, value in overrides.items():
            expected = tuple(value) if isinstance(value, list) else value
            assert getattr(config, key) == expected

    def test_cycle_family_requires_r_max(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="custom", family="cycle", r_max=None
        )
        with pytest.raises(ValueError, match="r_max"):
            load_config(str(cfg))

    def test_cycle_twist_must_fit_fiber(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="twisted-torus", twist=3
        )
        with pytest.raises(ValueError, match="twist"):
            load_config(str(cfg))

    def test_missing_file_exits_hard(self, tmp_path):
        assert (
            main(["--config", str(tmp_path / "absent.json"), "build"])
            == EXIT_HARD
        )

    def test_bad_config_exits_hard(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", n=30)
        assert main(["--config", str(cfg), "build"]) == EXIT_HARD


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "base") == derive_seed(5, "base")

    def test_distinct_across_tags_and_masters(self):
        seeds = {
            derive_seed(5, "base"),
            derive_seed(5, "graph"),
            derive_seed(6, "base"),
            derive_seed(5, "bench", "x", 1, 0),
            derive_seed(5, "bench", "x", 1, 1),
        }
        assert len(seeds) == 5

    def test_range(self):
        for trial in range(20):
            s = derive_seed(123, "bench", trial)
            assert 0 <= s < 1 << 63


class TestBuildInstance:
    def test_toric_instance(self):
        config = load_config(None).__class__(
            preset="toric",
            family="cycle",
            cycle_length=3,
            fiber_length=3,
            twist=0,
            r_max=1,
        )
        built = build_instance(config)
        assert built.css.n_qubits == 18
        assert built.css.k_logical() == 2
        assert built.certificate is None and built.graph is None

    def test_certified_instance(self):
        config = ExperimentConfig(
            preset="desk", family="random", n=16, delta=5, k_types=6, ell=3
        )
        built = build_instance(config)
        assert built.certificate is not None and built.certificate.passed
        assert built.graph is not None
        assert built.graph.kappa() <= config.kappa_target
        assert built.css.n_qubits == 16 * 9 + 12 * 9
        assert built.css.k_logical() == 4
        assert set(built.seeds) == {"base", "graph"}

    def test_same_config_same_instance(self):
        config = ExperimentConfig(
            preset="desk", family="random", n=16, delta=5, k_types=6, ell=3
        )
        a = build_instance(config)
        b = build_instance(config)
        assert a.code.adjacency == b.code.adjacency
        assert a.graph.shifts == b.graph.shifts

    def test_unattainable_expander_reports_best(self):
        config = ExperimentConfig(
            preset="custom",
            family="random",
            n=16,
            delta=5,
            k_types=6,
            ell=3,
            kappa_target=1e-9,
        )
        with pytest.raises(BuildFailure) as info:
            build_instance(config)
        assert "best_kappa" in info.value.details


class TestCmdBuild:
    def test_artifacts_and_report(self, toric):
        _, out = toric
        for name in (
            "config.json",
            "report.json",
            "base.alist",
            "base.sidecar",
            "bundle.json",
            "bundle_complex.txt",
            "css_hx.alist",
            "css_hz.alist",
        ):
            assert (out / name).exists(), name
        report = read_report(out)
        assert report["code"]["n_qubits"] == 18
        assert report["code"]["k_logical"] == 2
        assert report["certificates"]["base"] is None
        # The torus has disconnected base homology in degree zero, so
        # the projection criterion must correctly refuse the shortcut.
        assert report["h1_isomorphism"]["isomorphism_holds"] is False
        assert report["h1_isomorphism"]["b1_base"] == 1
        assert "relaxed_constants" in report

    def test_certified_report(self, desk):
        _, out = desk
        report = read_report(out)
        assert report["code"]["n_qubits"] == 252
        assert report["code"]["k_logical"] == 4
        assert report["certificates"]["base"]["passed"] is True
        expander = report["certificates"]["expander"]
        assert expander["kappa"] <= expander["kappa_target"]
        assert expander["crosscheck_gap"] <= 1e-9
        assert report["h1_isomorphism"]["isomorphism_holds"] is True
        assert (out / "twist_graph.txt").exists()

    def test_no_wall_clock_in_artifacts(self, toric, desk):
        for _, out in (toric, desk):
            for path in out.iterdir():
                if path.is_file():
                    text = path.read_text(encoding="utf-8")
                    assert "elapsed" not in text and "wall" not in text

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json", preset="desk", out_dir=str(out)
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        before = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        after = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert before == after

    def test_seed_flag_changes_the_instance(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            preset="desk",
            out_dir=str(tmp_path / "a"),
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        assert (
            main(
                [
                    "--config",
                    str(cfg),
                    "--seed",
                    "7",
                    "--out",
                    str(tmp_path / "b"),
                    "build",
                ]
            )
            == EXIT_OK
        )
        a = (tmp_path / "a" / "base.alist").read_bytes()
        b = (tmp_path / "b" / "base.alist").read_bytes()
        assert a != b


class TestCmdDistance:
    def test_exact_toric_distances(self, toric):
        cfg, out = toric
        assert main(["--config", str(cfg), "distance"]) == EXIT_OK
        report = read_report(out, "report_distance.json")
        main_part = report["main"]
        assert main_part["exact"] is True
        assert main_part["d_x"] == 3
        assert main_part["d_z"] == 3
        assert main_part["d_x_upper_analytic"] == 3

    def test_twist_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json", preset="twisted-torus", out_dir=str(out)
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        assert main(["--config", str(cfg), "distance"]) == EXIT_OK
        report = read_report(out, "report_distance.json")
        sweep = report["twist_sweep"]
        assert [entry["twist"] for entry in sweep] == [0, 1, 2]
        assert all(entry["exact"] for entry in sweep)
        best = report["best_over_twists"]
        assert best["distance"] == max(
            min(e["d_x"], e["d_z"]) for e in sweep
        )

    def test_search_bounds_on_large_instance(self, desk):
        cfg, out = desk
        assert main(["--config", str(cfg), "distance"]) == EXIT_OK
        report = read_report(out, "report_distance.json")
        main_part = report["main"]
        assert main_part["exact"] is False
        assert 1 <= main_part["d_x_upper"] <= 9  # analytic fiber cap
        assert main_part["d_z_upper"] >= 1

    def test_requires_build(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="toric", out_dir=str(tmp_path / "no")
        )
        assert main(["--config", str(cfg), "distance"]) == EXIT_HARD


class TestCmdBenchDecoders:
    def test_trials_and_summary(self, toric):
        cfg, out = toric
        assert main(["--config", str(cfg), "bench-decoders"]) == EXIT_OK
        trials = (out / "bench_trials.csv").read_text(encoding="utf-8")
        lines = trials.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["error_model", "point", "trial", "seed"]
        # 3 X weights + 3 Z weights + 2 erasure sizes, 4 trials each
        assert len(lines) - 1 == 8 * 4
        assert "\r" not in trials
        summary = (out / "bench_summary.csv").read_text(encoding="utf-8")
        rows = [line.split(",") for line in summary.strip().split("\n")[1:]]
        assert len(rows) == 8
        by_model = {(r[0], r[1]): r for r in rows}
        # weight-1 X decoding on the torus must be perfect
        assert by_model[("x-bitflip", "1")][4] == "4"
        # the conjectured decoder is flagged, success gates are not applied
        assert by_model[("z-bitflip", "1")][6] == "True"
        assert by_model[("x-bitflip", "1")][6] == "False"

    def test_deterministic_across_runs_and_threads(self, toric):
        cfg, out = toric
        assert main(["--config", str(cfg), "bench-decoders"]) == EXIT_OK
        first = (out / "bench_trials.csv").read_bytes()
        assert (
            main(["--config", str(cfg), "--threads", "4", "bench-decoders"])
            == EXIT_OK
        )
        assert (out / "bench_trials.csv").read_bytes() == first

    def test_certified_instance_weight_one_perfect(self, desk):
        cfg, out = desk
        assert main(["--config", str(cfg), "bench-decoders"]) == EXIT_OK
        summary = (out / "bench_summary.csv").read_text(encoding="utf-8")
        for line in summary.strip().split("\n")[1:]:
            fields = line.split(",")
            assert fields[4] == fields[2], line  # coset_correct == trials

    def test_requires_build(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="toric", out_dir=str(tmp_path / "no")
        )
        assert main(["--config", str(cfg), "bench-decoders"]) == EXIT_HARD

    @pytest.mark.parametrize(
        "name", ["x_weights", "z_weights", "erasure_sizes"]
    )
    def test_points_beyond_the_qubit_count_exit_hard(
        self, toric, tmp_path, capsys, name
    ):
        _, out = toric
        n_qubits = build_instance(load_config(str(toric[0]))).css.n_qubits
        cfg = write_config(
            tmp_path / "c.json",
            preset="toric",
            out_dir=str(out),
            **{name: [1, n_qubits + 1]},
        )
        assert main(["--config", str(cfg), "bench-decoders"]) == EXIT_HARD
        assert capsys.readouterr().out == (
            f"bad config: {name} exceed the {n_qubits} qubits\n"
        )


class TestCmdTwistcodeMc:
    def test_report_structure(self, desk):
        cfg, out = desk
        code = main(["--config", str(cfg), "twistcode-mc"])
        assert code in (EXIT_OK, 1)
        report = read_report(out, "report_mc.json")
        pairs = report["violation_pairs"]
        assert len(pairs) == 5
        assert (pairs[0]["y_weight"], pairs[0]["z_weight"]) == (1, 0)
        for row in pairs:
            assert 0 <= row["closed_form"] <= 1
            assert row["samples"] == 4000
        assert report["zero_pair_exact"] is True
        words = report["word_ratios"]
        assert words["words"] == 10
        assert words["ratio_min"] > 0
        assert report["max_abs_z_score"] == pytest.approx(
            max(abs(r["z_score"]) for r in pairs)
        )

    def test_cycle_family_rejected(self, toric):
        cfg, _ = toric
        assert main(["--config", str(cfg), "twistcode-mc"]) == EXIT_HARD

    @pytest.mark.parametrize(
        "overrides, bits",
        [
            ({"mc_word_weight": 49}, 16 * 3),
            ({"mc_word_weight": 100000}, 16 * 3),
            ({"ell": 4, "mc_word_weight": 65}, 16 * 4),
            ({"preset": "paper", "mc_word_weight": 161}, 32 * 5),
        ],
    )
    def test_word_weight_beyond_the_twist_code_exits_hard(
        self, tmp_path, capsys, overrides, bits
    ):
        cfg = write_config(
            tmp_path / "c.json",
            **{"preset": "desk", "mc_samples": 10, "mc_pairs": 1, **overrides},
        )
        argv = ["--config", str(cfg), "--out", str(tmp_path), "twistcode-mc"]
        assert main(argv) == EXIT_HARD
        assert capsys.readouterr().out == (
            f"bad config: mc_word_weight exceeds the {bits} twist-code bits\n"
        )

    def test_word_weight_up_to_the_twist_code_loads(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="desk", mc_word_weight=48
        )
        assert load_config(str(cfg)).mc_word_weight == 48


class TestCmdWeightReduce:
    def test_reduction_artifacts_and_report(self, desk):
        cfg, out = desk
        assert main(["--config", str(cfg), "weight-reduce"]) == EXIT_OK
        report = read_report(out, "report_reduction.json")
        classical = report["classical"]
        assert classical["verified"] is True
        assert classical["degrees_in_2_3"] is True
        assert set(classical["reduced_degrees"]) <= {2, 3}
        bundle = report["bundle"]
        assert bundle["verified"] is True
        assert bundle["k_preserved"] is True
        assert bundle["max_stabilizer_after"] <= 6
        assert (
            bundle["max_stabilizer_after"] <= bundle["max_stabilizer_before"]
        )
        bench = report["transport_bench"]
        assert bench["coset_correct"] == bench["trials"] == 16
        for name in (
            "reduced_base.alist",
            "reduced_bundle.json",
            "reduced_bundle_complex.txt",
            "reduced_css_hx.alist",
            "reduced_css_hz.alist",
            "reduction_bench.csv",
        ):
            assert (out / name).exists(), name

    def test_saved_equivalences_reload_and_verify(self, desk):
        _, out = desk
        for name in ("equivalence_classical", "equivalence_bundle"):
            assert load_equivalence(out / name).verify()

    def test_lipschitz_constants_reported(self, desk):
        _, out = desk
        report = read_report(out, "report_reduction.json")
        for section in ("classical", "bundle"):
            lip = report[section]["lipschitz"]
            assert set(lip) == {"f", "g", "f_transpose", "g_transpose"}
            assert all(c >= 1 for c in lip["f"])

    def test_k_after_matches_an_independent_rank(self, desk):
        # The command reads k after reduction from the verified
        # equivalence; here the reduced code's ranks recount it.
        cfg, out = desk
        assert main(["--config", str(cfg), "weight-reduce"]) == EXIT_OK
        built = build_instance(load_config(str(cfg)))
        reduced, _ = weight_reduce_bundle(built.bundle)
        report = read_report(out, "report_reduction.json")
        k_after = reduced.css_code().k_logical()
        assert report["bundle"]["k_logical_after"] == k_after
        assert report["bundle"]["k_logical_before"] == built.css.k_logical()

    @pytest.mark.parametrize(
        "failing, top_degree", [("classical", 1), ("bundle", 2)]
    )
    def test_failed_verification_exits_hard(
        self, desk, monkeypatch, capsys, failing, top_degree
    ):
        cfg, _ = desk
        monkeypatch.setattr(
            HomotopyEquivalence,
            "verify",
            lambda self: self.f.source.top_degree != top_degree,
        )
        assert main(["--config", str(cfg), "weight-reduce"]) == EXIT_HARD
        assert capsys.readouterr().out == (
            f"{failing} homotopy equivalence failed verification\n"
        )

    def test_each_equivalence_is_verified_once(self, desk, monkeypatch):
        cfg, _ = desk
        calls = []
        verify = HomotopyEquivalence.verify

        def counting(self):
            calls.append(self)
            return verify(self)

        monkeypatch.setattr(HomotopyEquivalence, "verify", counting)
        # The two reductions. The reversed classical equivalence that the
        # transport bench decodes through inherits the verified record.
        assert main(["--config", str(cfg), "weight-reduce"]) == EXIT_OK
        assert len(calls) == 2
        calls.clear()
        # One per saved equivalence, inside load_equivalence.
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        assert len(calls) == 2


class TestCmdVerify:
    def test_certified_instance_passes(self, desk):
        cfg, out = desk
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK
        report = read_report(out, "report_verify.json")
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert any("expander" in n for n in names)
        assert any("artifact" in n for n in names)

    def test_toric_passes(self, toric):
        cfg, _ = toric
        assert main(["--config", str(cfg), "verify"]) == EXIT_OK

    def test_tampered_artifact_fails(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json", preset="toric", out_dir=str(out)
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        (out / "css_hx.alist").write_text("9 9\n", encoding="utf-8")
        assert main(["--config", str(cfg), "verify"]) == EXIT_HARD
        report = read_report(out, "report_verify.json")
        assert report["all_passed"] is False

    def test_malformed_equivalence_manifest_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json", preset="toric", out_dir=str(out)
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
        (out / "equivalence_classical").mkdir()
        (out / "equivalence_classical" / "manifest.json").write_text(
            json.dumps({"source_dims": [2, 1], "target_dims": [2, 1]}),
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "verify"]) == EXIT_HARD
        assert "FAIL  saved equivalence classical verifies" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("name", ["classical", "bundle"])
    def test_flipped_equivalence_entry_fails(
        self, desk, tmp_path, capsys, name
    ):
        cfg, out = desk
        assert main(["--config", str(cfg), "weight-reduce"]) == EXIT_OK
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / f"equivalence_{name}" / "f1.alist"
        f1 = from_alist(path.read_text())
        flipped = Gf2Matrix((f1.row(0) ^ 1,) + f1.rows[1:], f1.n_cols)
        path.write_text(to_alist(flipped))
        capsys.readouterr()
        argv = ["--config", str(cfg), "--out", str(copy), "verify"]
        assert main(argv) == EXIT_HARD
        lines = capsys.readouterr().out.splitlines()
        assert f"FAIL  saved equivalence {name} verifies" in lines
        assert "10/11 checks passed" in lines[-1]


class TestMain:
    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_returns_int(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            preset="toric",
            out_dir=str(tmp_path / "out"),
        )
        assert main(["--config", str(cfg), "build"]) == EXIT_OK
