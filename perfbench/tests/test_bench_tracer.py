"""Tracer spans, self times, probe installation and metric names."""

import json

import fibercode
import tracer as tracing
from conftest import ROOT
from fibercode import cli
from fibercode.gf2 import BitChain, Gf2Matrix


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    durations = {sid: end - start for _, start, end, sid, _, _ in tracer.spans}
    own = tracer.self_seconds()
    assert own[inner] == durations[inner]
    assert abs(own[outer] - (durations[outer] - durations[inner])) < 1e-12
    assert [s[4] for s in tracer.spans] == [outer, 0]


def test_probes_record_layer_spans_and_uninstall_cleanly(tmp_path):
    originals = (Gf2Matrix.__matmul__, Gf2Matrix.solve, cli.gen_base, fibercode.decode_x)
    mul_bits = Gf2Matrix.mul_bits
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Gf2Matrix.mul_bits is mul_bits
        tracer.op = 0
        eye = Gf2Matrix.identity(3)
        product = eye @ eye
        assert product.solve(BitChain.from_support(3, [1])) is not None
        assert cli.gen_base is not originals[2]
        assert fibercode.decode_x is not originals[3]
    finally:
        tracer.uninstall()
    assert (Gf2Matrix.__matmul__, Gf2Matrix.solve, cli.gen_base, fibercode.decode_x) == originals
    assert [s[0] for s in tracer.spans] == ["gf2.matmul", "gf2.solve"]

    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {tuple(sorted(r)) for r in records} == {
        ("end", "id", "name", "op", "parent", "start", "type")
    }
    metrics = tracing.layer_metrics(tracer, n_ops=1)
    assert metrics["gf2.matmul.calls_per_op"] == 1
    assert metrics["gf2.solve.calls_per_op"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["decode-paper", "reduce-desk", "cli-desk"]
