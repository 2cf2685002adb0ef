"""fibercode benchmark: one closed-loop workload per run, or all of them.

Run from the root of a fibercode checkout; the library is imported from
its ``src`` directory and the CLI is started as ``python -m
fibercode.cli`` with the same source on ``PYTHONPATH``::

    python3 perfbench/run.py --workload decode-paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

``--trace 0`` measures with no instrumentation and ends with one JSON
line holding the end-to-end metrics.  ``--trace 1`` wraps each layer's
entry points during set-up and during traced ops, which take half the
time; each traced op is repeated untraced to measure the tracing
overhead.  It writes the spans as JSON lines under ``.perfbench_out/``
and ends with the per-layer metrics.  Outputs
are checked op by op; an op that raises or fails its check counts in
``failed``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("decode-paper", "reduce-desk", "cli-desk")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, one child at a time")
    parser.add_argument(
        "--seed", type=int, default=2026,
        help="workload seed; the default, the CLI's default master seed, "
        "also compares outputs with perfbench/reference",
    )
    parser.add_argument("--seconds", type=float, default=25, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(root: Path) -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = root / "src"
    if not (src / "fibercode" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fibercode sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import fibercode

    if Path(fibercode.__file__).resolve().parent != (src / "fibercode").resolve():
        sys.exit(f"perfbench: fibercode was imported from {fibercode.__file__}, not {src}")


def time_op(workload, tracer, durations: list, errors: list, repeat: bool = False):
    """Run one op and record its duration; returns its check, or None
    when the op raised, which makes it a failed op."""
    start = perf_counter()
    try:
        elapsed, check = workload.op(tracer, repeat)
    except Exception as exc:
        durations.append(perf_counter() - start)
        errors.append(f"op raised {exc!r}")
        return None
    durations.append(elapsed)
    return check


def check_op(check, errors: list) -> None:
    """An op whose output check fails or raises is a failed op."""
    if check is None:
        return
    try:
        error = check()
    except Exception as exc:
        error = f"check raised {exc!r}"
    if error:
        errors.append(error)


def closed_loop(workload, seconds: float | None, count: int | None = None, yardstick=None):
    """One client: the next op starts when the previous one ends.

    Runs until the ops have taken ``seconds`` in total (at least one op)
    or, when ``count`` is given, exactly that many ops.  A yardstick is
    sampled between ops.  Returns op durations and the error messages
    of failed ops.
    """
    durations: list[float] = []
    errors: list[str] = []
    while True:
        if count is not None:
            if len(durations) >= count:
                break
        elif durations and sum(durations) >= seconds:
            break
        if yardstick is not None:
            yardstick.sample()
        check_op(time_op(workload, None, durations, errors), errors)
    return durations, errors


def traced_pairs(workload, tracer, seconds: float):
    """Each op runs traced, then once more untraced, until the traced ops
    have taken ``seconds``.  Pairing the two keeps host speed changes out
    of the overhead estimate.  Returns both duration lists and errors."""
    traced: list[float] = []
    plain: list[float] = []
    errors: list[str] = []
    while not traced or sum(traced) < seconds:
        tracer.op = len(traced)
        tracer.install()
        try:
            check = time_op(workload, tracer, traced, errors)
        finally:
            tracer.uninstall()
        check_op(check, errors)
        check_op(time_op(workload, None, plain, errors, repeat=True), errors)
    return traced, plain, errors


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def bare_import_seconds(root: Path, repeats: int = 3) -> float:
    """Median wall time of ``python -c "import fibercode.cli"``."""
    from workloads import child_env, run_child

    times = []
    for _ in range(repeats):
        start = perf_counter()
        run_child(["-c", "import fibercode.cli"], root, child_env(root))
        times.append(perf_counter() - start)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace, root: Path) -> int:
    import_library(root)
    import tracer as tracing
    import workloads
    from yardstick import Yardstick

    import_s = perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload](root, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    yardstick = Yardstick()
    setups = []
    for _ in range(SETUP_REPEATS):
        yardstick.sample()
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    if tracer is not None:
        tracer.uninstall()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if tracer is None:
        durations, errors = closed_loop(workload, args.seconds, yardstick=yardstick)
        yardstick.sample()
        attempted = n = len(durations)
        raw = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(durations) * 1000, "ms"),
            "ops_per_s": (n / sum(durations), "1/s"),
        }
        scale = yardstick.scale()
        metrics = {
            name: metric(value / scale if unit == "1/s" else value * scale, unit)
            for name, (value, unit) in raw.items()
        }
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={n})")
        print(f"host kernel {yardstick.median_ms():.4g} ms (n={len(yardstick.samples)}): the timed "
              f"metrics above are at reference host speed, raw x {scale:.4g}; all below are raw")
        for name, (value, unit) in raw.items():
            print(f"raw {name} = {value:.6g} {unit}")
        for name, value, unit, samples in workload.named_metrics(durations):
            print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    else:
        durations, plain, errors = traced_pairs(workload, tracer, args.seconds / 2)
        traced_n = len(durations)
        attempted = traced_n + len(plain)
        values = tracing.layer_metrics(tracer, traced_n)
        values["cli.import_s"] = bare_import_seconds(root)
        sizes = getattr(workload, "artifact_bytes", [])
        values["cli.artifact_bytes"] = statistics.median(sizes) if sizes else 0
        values["trace.overhead_share"] = sum(durations) / sum(plain) - 1
        metrics = {
            name: metric(values[name], unit)
            for name, unit in tracing.LAYER_UNITS.items()
        }
        out = root / workloads.OUT_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_jsonl(out)
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")
        print(f"spans of {traced_n} traced ops written to {out.relative_to(root)}")
    failed = len(errors)
    print(f"metric failed_ops_share = {failed / attempted:.6g} share (n={attempted})")
    for error in errors[:5]:
        print(f"failed op: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload as its own child, one at a time, output passed on."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
