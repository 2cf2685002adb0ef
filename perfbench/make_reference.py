"""Regenerate the outputs that default-seed runs are compared against.

Run from the root of a checkout whose outputs are known to be right;
the files land in ``perfbench/reference/``::

    python3 perfbench/make_reference.py

* ``decode-paper_trials.csv``: ``bench-decoders`` rows of the paper
  instance (40 trials per point), written by the CLI itself.
* ``reduce-desk_outputs.json``: ``lipschitz_report()`` of the bundle
  and classical equivalences that a default-seed op builds, and its
  number of coset-correct transported corrections.
* ``cli-desk_bench_trials.csv`` and ``cli-desk_report.json``: the
  ``build`` and ``bench-decoders`` outputs of the default-seed
  ``cli-desk`` config.
"""

import json
import shutil
import sys
from pathlib import Path


def cli_outputs(root: Path, work: Path, workloads) -> Path:
    for command in ("build", "bench-decoders"):
        proc = workloads.run_child(
            ["-m", "fibercode.cli", "--config", "config.json", command],
            work,
            workloads.child_env(root),
        )
        if proc.returncode != 0:
            sys.exit(f"{command} failed in {work}:\n{proc.stdout}{proc.stderr}")
    return work / "out"


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    seed = workloads.DEFAULT_SEED
    reference = workloads.REFERENCE
    reference.mkdir(exist_ok=True)
    scratch = root / workloads.OUT_DIR / "reference"

    paper_work = scratch / "paper"
    paper = workloads.load_preset(paper_work / "config.json", "paper", workloads.PAPER_MASTER_SEED)
    out = cli_outputs(root, paper_work, workloads)
    shutil.copyfile(out / "bench_trials.csv", reference / "decode-paper_trials.csv")

    desk_work = scratch / "desk"
    desk = workloads.load_preset(desk_work / "config.json", "desk", seed)
    master = workloads.desk_master_seed(seed, desk)
    workloads.write_cli_config(desk_work / "config.json", master)
    out = cli_outputs(root, desk_work, workloads)
    for name in workloads.COMPARED_ARTIFACTS:
        shutil.copyfile(out / name, reference / f"cli-desk_{name}")

    reduce = workloads.ReduceDesk(root, seed, use_reference=False)
    reduce.setup()
    _, check = reduce.op(None)
    error = check()
    if error:
        sys.exit(f"reduce-desk op fails its own checks: {error}")
    report = reduce.last_outputs
    (reference / "reduce-desk_outputs.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"reference outputs written to {reference.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
