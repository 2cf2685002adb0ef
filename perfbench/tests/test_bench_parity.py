"""The decode-paper trial generator measures the trials bench-decoders runs."""

import csv
import itertools
import json

import workloads
from conftest import ROOT
from fibercode import cli


def test_trial_generator_reproduces_bench_decoders_rows(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"preset": "desk", "master_seed": 7, "out_dir": "out", "trials_per_point": 3}
    ))
    env = workloads.child_env(ROOT)
    for command in ("build", "bench-decoders"):
        proc = workloads.run_child(
            ["-m", "fibercode.cli", "--config", "config.json", command], tmp_path, env
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(tmp_path / "out" / "bench_trials.csv", newline="") as handle:
        cli_rows = list(csv.DictReader(handle))

    config = cli.load_config(str(config_path))
    built = cli.build_instance(config)
    jobs = itertools.islice(
        workloads.trial_jobs(config, config.master_seed), len(cli_rows)
    )
    rows = [
        {k: str(v) for k, v in workloads.run_trial(built, job).row.items()}
        for job in jobs
    ]
    rows.sort(key=lambda r: (r["error_model"], int(r["point"]), int(r["trial"])))
    assert len(cli_rows) == 10 * 3
    assert rows == cli_rows
