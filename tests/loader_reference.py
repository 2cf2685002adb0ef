"""The artifact loaders as they were before each one compared its
input with the writer's output.

The reference that the round-trip loaders in fibercode are tested
against: whatever a loader accepts, the loader here must accept too and
return an equal object. The bodies are the former functions verbatim;
parse_complex and load_equivalence call the from_alist defined here.

Not collected by pytest; the differential tests import it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fibercode.base import PartitionedBaseCode
from fibercode.complexes import ChainComplex
from fibercode.gf2 import BitChain, Gf2Matrix
from fibercode.homotopy import ChainMap, HomotopyEquivalence
from fibercode.twists import TwistGraph

_COMPLEX_HEADER = "fibercode-complex v1"
_SIDECAR_HEADER = "fibercode-base v1"


def from_alist(text: str) -> Gf2Matrix:
    """Parse an alist produced by to_alist (padding zeros ignored)."""
    tokens = text.split()
    pos = 0

    def take(k: int) -> list[int]:
        nonlocal pos
        out = [int(t) for t in tokens[pos : pos + k]]
        if len(out) != k:
            raise ValueError("truncated alist")
        pos += k
        return out

    n, m = take(2)
    mcw, mrw = take(2)
    col_degs = take(n)
    row_degs = take(m)
    rows = [0] * m
    for j in range(n):
        entries = take(mcw) if mcw else []
        live = [e - 1 for e in entries if e > 0]
        if len(live) != col_degs[j]:
            raise ValueError(f"column {j} degree mismatch")
        for i in live:
            if not 0 <= i < m:
                raise ValueError("row index out of range")
            rows[i] |= 1 << j
    # Row lists are redundant; read them and cross-check.
    for i in range(m):
        entries = take(mrw) if mrw else []
        live = sorted(e - 1 for e in entries if e > 0)
        if len(live) != row_degs[i]:
            raise ValueError(f"row {i} degree mismatch")
        expect = sorted(
            BitChain(n, rows[i]).iter_support()
        )
        if live != expect:
            raise ValueError(f"row {i} list inconsistent with columns")
    if pos != len(tokens):
        raise ValueError("trailing tokens after the alist")
    return Gf2Matrix(rows, n)


def parse_complex(text: str) -> ChainComplex:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _COMPLEX_HEADER:
        raise ValueError("not a fibercode complex file")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 2 or head[0] != "degrees":
        raise ValueError("missing degrees line")
    k = int(head[1])
    head = lines[2].split() if len(lines) > 2 else []
    if not head or head[0] != "dims":
        raise ValueError("missing dims line")
    dims = tuple(int(t) for t in head[1:])
    if len(dims) != k + 1 or any(d < 0 for d in dims):
        raise ValueError("dims line disagrees with degrees")
    boundaries = []
    pos = 3
    for j in range(1, k + 1):
        if pos == len(lines) or lines[pos].strip() != f"boundary {j}":
            raise ValueError(f"expected boundary {j} at line {pos + 1}")
        pos += 1
        block = []
        while pos < len(lines) and not (
            lines[pos].startswith("boundary ") or lines[pos].strip() == "end"
        ):
            block.append(lines[pos])
            pos += 1
        mat = from_alist("\n".join(block))
        boundaries.append(mat)
    if [ln.strip() for ln in lines[pos:] if ln.strip()] != ["end"]:
        raise ValueError(f"expected a final end line at line {pos + 1}")
    cx = ChainComplex(dims, boundaries)
    cx.validate()
    return cx


def parse_base_sidecar(
    text: str,
) -> tuple[PartitionedBaseCode, tuple[int, ...] | None]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _SIDECAR_HEADER:
        raise ValueError("not a fibercode base sidecar")
    if len(lines) < 2:
        raise ValueError("sidecar has no metadata line")
    meta = lines[1].split()
    if meta[0::2] != ["n", "m", "delta", "k_types", "seed"]:
        raise ValueError("bad sidecar metadata line")
    n, m, delta, k_types, seed = (int(v) for v in meta[1::2])
    heads = []
    tails = []
    adjacency = []
    twists: list[int] = []
    types = []
    for ln in lines[2:]:
        fields = [f.strip() for f in ln.split(";")]
        if len(fields) not in (3, 4):
            raise ValueError(f"bad sidecar line: {ln!r}")
        types.append(int(fields[0]))
        hs = tuple(int(t) for t in fields[1].split()) if fields[1] else ()
        ts = tuple(int(t) for t in fields[2].split()) if fields[2] else ()
        heads.append(hs)
        tails.append(ts)
        adjacency.append(tuple(sorted(hs + ts)))
        if len(fields) == 4:
            twists.append(int(fields[3]))
    if len(adjacency) != m:
        raise ValueError("check count disagrees with metadata")
    if twists and len(twists) != m:
        raise ValueError("twist field must appear on every line or none")
    code = PartitionedBaseCode(
        n=n,
        delta=delta,
        k_types=k_types,
        seed=seed,
        adjacency=tuple(adjacency),
        heads=tuple(heads),
        tails=tuple(tails),
    )
    for a, tau in enumerate(types):
        if code.type_of(a) != tau:
            raise ValueError(f"check {a} type {tau} breaks the block layout")
    return code, (tuple(twists) if twists else None)


def parse_twist_graph(text: str) -> TwistGraph:
    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("truncated twist graph line")
    ell, k = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + k + 1:
        raise ValueError("twist graph line has the wrong field count")
    shifts = tuple(int(t) for t in tokens[2 : 2 + k])
    graph = TwistGraph(ell=ell, shifts=shifts)
    recorded = float(tokens[-1])
    if not math.isfinite(recorded) or abs(recorded - graph.kappa()) > 1e-9:
        raise ValueError("recorded kappa disagrees with the shifts")
    return graph


def load_equivalence(directory: str | Path) -> HomotopyEquivalence:
    """Read back a saved equivalence and verify it before returning.

    A malformed manifest (not an object, dims that are not lists of
    cell counts, a missing files table or tag, a file name that is not
    a plain name inside the directory) or a failed verification raises
    ValueError.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("equivalence manifest must be a JSON object")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ValueError("equivalence manifest has no files table")

    def dims(key: str) -> list[int]:
        value = manifest.get(key)
        if (
            not isinstance(value, list)
            or not value
            or any(type(d) is not int or d < 0 for d in value)
        ):
            raise ValueError(f"manifest {key} must be a list of cell counts")
        return value

    def grab(tag: str) -> tuple[Gf2Matrix, ...]:
        names = files.get(tag)
        if not isinstance(names, list):
            raise ValueError(f"manifest lists no {tag} files")
        for name in names:
            if (
                not isinstance(name, str)
                or Path(name).name != name
                or name in ("", "..")
            ):
                raise ValueError(f"manifest file {name!r} is not a plain name")
        return tuple(from_alist((directory / name).read_text()) for name in names)

    source = ChainComplex(dims("source_dims"), grab("source_boundary"))
    target = ChainComplex(dims("target_dims"), grab("target_boundary"))
    equiv = HomotopyEquivalence(
        ChainMap(source, target, grab("f")),
        ChainMap(target, source, grab("g")),
        grab("h_source"),
        grab("h_target"),
    )
    if not equiv.verify():
        raise ValueError("stored equivalence fails verification")
    return equiv
