"""In-memory span recorder for the benchmark's traced runs.

A traced run replaces the public entry points of each fibercode layer
with wrappers that record one span per call: name, start, end, span id,
parent span id and op id.  Counts read from return values are recorded
at the same boundary, tagged with the span id.  Everything stays in
memory until the run ends and is then written as JSON lines.

Span names equal the per-layer metric prefixes (``gf2.solve``,
``decoders.decode_x``, ``homotopy.verify``, ...), so a tracer inside the
program can later emit the same records without renaming any metric.
The hot ``Gf2Matrix.mul_bits`` is deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

SETUP = "setup"

# (module, class or None, attribute, span name).  Module-level functions
# are replaced in every loaded fibercode module that binds them, so calls
# made through the package or the CLI module are traced too.
PROBES: tuple[tuple[str, str | None, str, str], ...] = (
    ("fibercode.gf2", "Gf2Matrix", "solve", "gf2.solve"),
    ("fibercode.gf2", "Gf2Matrix", "transpose", "gf2.transpose"),
    ("fibercode.gf2", "Gf2Matrix", "rank", "gf2.rank"),
    ("fibercode.gf2", "Gf2Matrix", "kernel_basis", "gf2.kernel_basis"),
    ("fibercode.gf2", "Gf2Matrix", "__matmul__", "gf2.matmul"),
    ("fibercode.complexes", "ChainComplex", "is_coboundary", "complexes.is_coboundary"),
    ("fibercode.complexes", "ChainComplex", "is_boundary", "complexes.is_boundary"),
    ("fibercode.complexes", "CssCode", "k_logical", "complexes.k_logical"),
    ("fibercode.base", None, "gen_base", "base.gen_base"),
    ("fibercode.twists", None, "certify_expander", "twists.certify_expander"),
    ("fibercode.bundle", None, "build_fiber_bundle_code", "bundle.build_fiber_bundle_code"),
    ("fibercode.bundle", None, "verify_h1_iso", "bundle.verify_h1_iso"),
    ("fibercode.decoders", None, "decode_x", "decoders.decode_x"),
    ("fibercode.decoders", None, "decode_z", "decoders.decode_z"),
    ("fibercode.decoders", None, "decode_erasure_x", "decoders.decode_erasure_x"),
    ("fibercode.decoders", None, "decode_brute_force", "decoders.decode_brute_force"),
    ("fibercode.decoders", None, "decode_via_homotopy", "decoders.decode_via_homotopy"),
    ("fibercode.decoders", None, "with_coset_verdict", "decoders.with_coset_verdict"),
    ("fibercode.homotopy", "ChainMap", "__post_init__", "homotopy.chain_map"),
    ("fibercode.homotopy", "HomotopyEquivalence", "verify", "homotopy.verify"),
    ("fibercode.homotopy", None, "weight_reduce_bundle", "homotopy.weight_reduce_bundle"),
    ("fibercode.homotopy", None, "weight_reduce_classical", "homotopy.weight_reduce_classical"),
)

DECODERS = ("decoders.decode_x", "decoders.decode_z", "decoders.decode_erasure_x")
CLI_COMMANDS = ("build", "distance", "bench-decoders", "twistcode-mc", "verify")

# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS: dict[str, str] = {
    "gf2.solve.calls_per_op": "count",
    "gf2.solve.ms_per_op": "ms",
    "gf2.transpose.calls_per_op": "count",
    "gf2.transpose.ms_per_op": "ms",
    "gf2.rank.calls_per_op": "count",
    "gf2.rank.ms_per_op": "ms",
    "gf2.kernel_basis.ms_per_op": "ms",
    "gf2.matmul.calls_per_op": "count",
    "gf2.matmul.ms_per_op": "ms",
    "complexes.is_coboundary.ms_per_call": "ms",
    "complexes.is_boundary.ms_per_call": "ms",
    "decoders.decode_x.ms_p50": "ms",
    "decoders.decode_z.ms_p50": "ms",
    "decoders.decode_erasure_x.ms_p50": "ms",
    "decoders.with_coset_verdict.ms_p50": "ms",
    "decoders.decode_via_homotopy.ms_per_op": "ms",
    "decoders.decode_x.amendments_per_trial": "count",
    "decoders.decode_z.moves_per_trial": "count",
    "decoders.steps_per_trial": "count",
    "decoders.x-bitflip.matched_share": "share",
    "decoders.z-bitflip.matched_share": "share",
    "decoders.erasure.matched_share": "share",
    "homotopy.weight_reduce_bundle.s": "s",
    "homotopy.weight_reduce_classical.s": "s",
    "homotopy.verify.s": "s",
    "homotopy.chain_maps_built": "count",
    "base.gen_base.ms": "ms",
    "twists.certify_expander.ms": "ms",
    "bundle.build_fiber_bundle_code.ms": "ms",
    "bundle.verify_h1_iso.ms": "ms",
    "complexes.k_logical.ms": "ms",
    **{f"cli.{command}.wall_s": "s" for command in CLI_COMMANDS},
    "cli.import_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_share": "share",
}


def _decoder_counts(name: str) -> Callable[[Any], list[tuple[str, int]]]:
    """Work counts read from a DecodeResult at the decoder boundary."""

    def counts(result: Any) -> list[tuple[str, int]]:
        out = [
            ("decoders.steps", result.steps),
            (f"{name}.matched", int(result.success.value != "failed")),
        ]
        if name == "decoders.decode_x":
            out.append((f"{name}.amendments", result.notes.get("amendments", 0)))
        elif name == "decoders.decode_z":
            out.append((f"{name}.moves", result.notes.get("moves", 0)))
        return out

    return counts


class Tracer:
    """Spans and counts of one run.

    ``op`` tags what is recorded next: the index of a timed op or
    ``SETUP``.
    """

    def __init__(self) -> None:
        # (name, start, end, span id, parent span id, op id)
        self.spans: list[tuple[str, float, float, int, int, Any]] = []
        # (name, value, span id, op id)
        self.counts: list[tuple[str, int, int, Any]] = []
        self.op: Any = SETUP
        self._stack = [0]
        self._next = 1
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, sid, parent, self.op))

    def count(self, name: str, value: int = 1) -> None:
        self.counts.append((name, value, self._stack[-1], self.op))

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Callable[[Any], list[tuple[str, int]]] | None = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, sid, parent, self.op))
            if counts is not None:
                for key, value in counts(result):
                    self.counts.append((key, value, sid, self.op))
            return result

        return traced

    # -- installing and removing the probes ------------------------------

    def install(self) -> None:
        for module_name, owner, attr, name in PROBES:
            module = importlib.import_module(module_name)
            counts = _decoder_counts(name) if name in DECODERS else None
            if owner is not None:
                cls = getattr(module, owner)
                self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], counts))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "fibercode" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading the trace ------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            covered[parent] += end - start
        return {
            sid: (end - start) - covered[sid]
            for _, start, end, sid, _, _ in self.spans
        }

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, sid, parent, op in self.spans:
                handle.write(json.dumps({
                    "type": "span", "name": name, "start": start, "end": end,
                    "id": sid, "parent": parent, "op": op,
                }) + "\n")
            for name, value, sid, op in self.counts:
                handle.write(json.dumps({
                    "type": "count", "name": name, "value": value,
                    "span": sid, "op": op,
                }) + "\n")


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced ops and of set-up.

    Names ending in ``_per_op`` are totals over the traced ops divided by
    their number; ``ms_p50`` and ``wall_s`` are the median inclusive
    duration of one call; gf2 and complexes times are self times.  Set-up
    layers (``.ms``) are the median call during set-up.  A layer the
    workload does not exercise reads 0.
    """
    own = tracer.self_seconds()
    in_ops = [s for s in tracer.spans if isinstance(s[5], int)]
    in_setup = [s for s in tracer.spans if s[5] == SETUP]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, sid, _, _ in in_ops:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += end - start
        durations[name].append(end - start)
    setup_ms: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, _, _ in in_setup:
        setup_ms[name].append((end - start) * 1000)
    counted: dict[str, int] = defaultdict(int)
    for name, value, _, op in tracer.counts:
        if isinstance(op, int):
            counted[name] += value

    ops = max(n_ops, 1)
    out: dict[str, float] = {}
    for name in ("solve", "transpose", "rank", "matmul"):
        out[f"gf2.{name}.calls_per_op"] = calls[f"gf2.{name}"] / ops
    for name in ("solve", "transpose", "rank", "kernel_basis", "matmul"):
        out[f"gf2.{name}.ms_per_op"] = self_s[f"gf2.{name}"] * 1000 / ops
    for name in ("is_coboundary", "is_boundary"):
        key = f"complexes.{name}"
        out[f"{key}.ms_per_call"] = _per(self_s[key] * 1000, calls[key])
    for name in ("decode_x", "decode_z", "decode_erasure_x", "with_coset_verdict"):
        key = f"decoders.{name}"
        out[f"{key}.ms_p50"] = _median(durations[key]) * 1000
    out["decoders.decode_via_homotopy.ms_per_op"] = (
        total_s["decoders.decode_via_homotopy"] * 1000 / ops
    )
    out["decoders.decode_x.amendments_per_trial"] = _per(
        counted["decoders.decode_x.amendments"], calls["decoders.decode_x"]
    )
    out["decoders.decode_z.moves_per_trial"] = _per(
        counted["decoders.decode_z.moves"], calls["decoders.decode_z"]
    )
    out["decoders.steps_per_trial"] = _per(
        counted["decoders.steps"], sum(calls[d] for d in DECODERS)
    )
    for model, decoder in (
        ("x-bitflip", "decoders.decode_x"),
        ("z-bitflip", "decoders.decode_z"),
        ("erasure", "decoders.decode_erasure_x"),
    ):
        out[f"decoders.{model}.matched_share"] = _per(
            counted[f"{decoder}.matched"], calls[decoder]
        )
    for name in ("weight_reduce_bundle", "weight_reduce_classical", "verify"):
        out[f"homotopy.{name}.s"] = total_s[f"homotopy.{name}"] / ops
    out["homotopy.chain_maps_built"] = calls["homotopy.chain_map"] / ops
    for key in (
        "base.gen_base",
        "twists.certify_expander",
        "bundle.build_fiber_bundle_code",
        "bundle.verify_h1_iso",
        "complexes.k_logical",
    ):
        out[f"{key}.ms"] = _median(setup_ms[key])
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = _median(durations[f"cli.{command}"])
    return out
