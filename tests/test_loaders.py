"""Every artifact loader accepts exactly the text its writer produces.

The rule, for each of the six loaders: a text either raises ValueError
or is given back byte for byte by the writer from the parsed object.
Whatever a loader accepts, the former hand-checked loader in
loader_reference.py accepts too, with an equal result. Texts are drawn
free-form and as single mutations of a written artifact; the mutation
test runs the same rule over the desk build and weight-reduce artifacts.
"""

from __future__ import annotations

import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercode.base import PartitionedBaseCode, export_base_sidecar, parse_base_sidecar
from fibercode.cli import _build_artifacts, build_instance, load_config
from fibercode.complexes import (
    ChainComplex,
    _labels_text,
    parse_complex,
    parse_labels,
    serialize_complex,
    serialize_labels,
)
from fibercode.gf2 import Gf2Matrix, from_alist, to_alist
from fibercode.homotopy import (
    HomotopyEquivalence,
    load_equivalence,
    save_equivalence,
    weight_reduce_bundle,
    weight_reduce_classical,
)
from fibercode.twists import TwistGraph, parse_twist_graph, serialize_twist_graph

import loader_reference

BIG = str(10**12)
JUNK = ["", "x", "1.0", "+1", "-0", "1_0", "nan", "٣"]


def _token_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in re.finditer(r"\S+", text)]


def _replace_token(text: str, span: tuple[int, int], new: str) -> str:
    return text[: span[0]] + new + text[span[1] :]


@st.composite
def near(draw, text: str):
    """text itself, text with one token replaced or one character
    inserted or deleted, or free text."""
    spans = _token_spans(text)
    kind = draw(st.sampled_from(["same", "token", "token", "char", "free"]))
    if kind == "free" or not spans:
        return draw(st.text(max_size=30))
    if kind == "same":
        return text
    if kind == "token":
        span = draw(st.sampled_from(spans))
        old = text[span[0] : span[1]]
        values = [text[a:b] for a, b in spans] + JUNK + [BIG]
        new = draw(
            st.one_of(
                st.sampled_from(values),
                st.integers(-2, 40).map(str),
                st.just(f"{old} {old}"),
            )
        )
        return _replace_token(text, span, new)
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + draw(st.sampled_from(" \n\r\t;0-")) + text[i:]
    return text[:i] + text[i + 1 :]


def _check(parse, write, reference, text: str) -> bool:
    """The rule: ValueError, or a parse that the writer gives back
    exactly and the reference loader agrees with. True on acceptance."""
    try:
        obj = parse(text)
    except ValueError:
        return False
    assert write(obj) == text
    assert reference(text) == obj
    return True


# -- random objects ------------------------------------------------------------


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return Gf2Matrix(rows, n)


@st.composite
def complexes(draw):
    """A 1- or 2-complex; the columns of del_2 are cycles of del_1."""
    d1 = draw(matrices(max_rows=4, max_cols=6))
    if draw(st.booleans()):
        return ChainComplex(d1.shape, (d1,))
    kernel = [v.bits for v in d1.kernel_basis()]
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        bits = 0
        for v in kernel:
            if draw(st.booleans()):
                bits ^= v
        cols.append(bits)
    d2 = Gf2Matrix(cols, d1.n_cols).transpose()
    return ChainComplex((*d1.shape, len(cols)), (d1, d2))


no_line_breaks = st.text(
    st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=4
)


@st.composite
def labelled_complexes(draw):
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    labels = [draw(st.lists(no_line_breaks, min_size=d, max_size=d)) for d in dims]
    zeros = [Gf2Matrix.zeros(a, b) for a, b in zip(dims, dims[1:])]
    return ChainComplex(dims, zeros, labels)


@st.composite
def sidecars(draw):
    n = draw(st.integers(1, 7))
    k_types = draw(st.integers(1, 3))
    heads, tails = [], []
    for _ in range(k_types * draw(st.integers(0, 3))):
        roles = draw(st.lists(st.sampled_from("-ht"), min_size=n, max_size=n))
        heads.append(tuple(j for j, r in enumerate(roles) if r == "h"))
        tails.append(tuple(j for j, r in enumerate(roles) if r == "t"))
    code = PartitionedBaseCode(
        n=n,
        delta=draw(st.integers(2, 9)),
        k_types=k_types,
        seed=draw(st.integers(0, 99)),
        adjacency=tuple(tuple(sorted(h + t)) for h, t in zip(heads, tails)),
        heads=tuple(heads),
        tails=tuple(tails),
    )
    twists = draw(
        st.none() | st.lists(st.integers(0, 99), min_size=code.m, max_size=code.m)
    )
    return code, None if not twists else tuple(twists)


@st.composite
def twist_graphs(draw):
    ell = draw(st.integers(2, 30))
    shifts = draw(st.lists(st.integers(1, ell - 1), min_size=1, max_size=4))
    return TwistGraph(ell=ell, shifts=tuple(shifts))


@st.composite
def equivalences(draw):
    """An identity equivalence, or a classical weight reduction when
    every bit and check of a 1-complex has a neighbour."""
    cx = draw(complexes())
    d1 = cx.boundary(1)
    if cx.top_degree == 1 and all(d1.rows) and all(d1.transpose().rows):
        return weight_reduce_classical(cx)[1]
    return HomotopyEquivalence.identity(cx)


# -- one property per loader --------------------------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_from_alist_accepts_only_what_to_alist_writes(data):
    mat = data.draw(matrices())
    assert from_alist(to_alist(mat)) == mat
    text = data.draw(near(to_alist(mat)))
    _check(from_alist, to_alist, loader_reference.from_alist, text)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parse_complex_accepts_only_what_serialize_complex_writes(data):
    cx = data.draw(complexes())
    assert parse_complex(serialize_complex(cx)) == cx
    text = data.draw(near(serialize_complex(cx)))
    _check(parse_complex, serialize_complex, loader_reference.parse_complex, text)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parse_labels_accepts_only_what_serialize_labels_writes(data):
    cx = data.draw(labelled_complexes())
    text = serialize_labels(cx)
    assert text == _labels_text(cx.labels)
    assert parse_labels(text) == cx.labels
    text = data.draw(near(text))
    _check(parse_labels, _labels_text, loader_reference.parse_labels, text)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parse_base_sidecar_accepts_only_what_export_writes(data):
    code, twists = data.draw(sidecars())
    assert parse_base_sidecar(export_base_sidecar(code, twists)) == (code, twists)
    text = data.draw(near(export_base_sidecar(code, twists)))
    _check(
        parse_base_sidecar,
        lambda parsed: export_base_sidecar(*parsed),
        loader_reference.parse_base_sidecar,
        text,
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parse_twist_graph_accepts_only_what_serialize_writes(data):
    graph = data.draw(twist_graphs())
    assert parse_twist_graph(serialize_twist_graph(graph)) == graph
    text = data.draw(near(serialize_twist_graph(graph)))
    _check(
        parse_twist_graph,
        serialize_twist_graph,
        loader_reference.parse_twist_graph,
        text,
    )


def _saved(equiv: HomotopyEquivalence, directory: Path) -> str:
    return save_equivalence(equiv, directory).read_bytes().decode()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_load_equivalence_accepts_only_the_manifest_save_writes(data):
    equiv = data.draw(equivalences())
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "eq"
        manifest = directory / "manifest.json"
        text = data.draw(near(_saved(equiv, directory)))
        manifest.write_bytes(text.encode())

        def load(text):
            return load_equivalence(directory)

        def write(loaded):
            return _saved(loaded, Path(tmp) / "again")

        if _check(load, write, lambda _: loader_reference.load_equivalence(directory), text):
            assert load(text) == equiv


# -- targeted cases ----------------------------------------------------------


def test_huge_alist_header_is_refused_before_allocating():
    for text in (
        f"{BIG} {BIG}\n0 0\n",
        f"1 {BIG}\n1 1\n1\n",
        f"2 1\n{BIG} 1\n1 1\n1\n1\n1\n",
        # m + m * mrw = 0: the token count alone would let BIG rows through.
        f"0 {BIG}\n0 -1\n",
    ):
        with pytest.raises(ValueError):
            from_alist(text)


def test_non_canonical_spellings_are_refused():
    mat = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    text = to_alist(mat)
    assert loader_reference.from_alist(text.replace("\n", "\r\n")) == mat
    for bad in (
        text.replace("\n", "\r\n"),  # CRLF line endings
        text + "\n",  # a blank line after the last list
        text.replace("2 0", "2  0"),  # spacing
        text.replace("1 0", "01 0", 1),  # a leading zero
    ):
        with pytest.raises(ValueError):
            from_alist(bad)


def test_twist_graph_kappa_must_be_the_written_digits():
    graph = TwistGraph(ell=7, shifts=(2, 3))
    text = serialize_twist_graph(graph)
    ell, k, a, b, kappa = text.split()
    close = f"{float(kappa) + 1e-12:.12f}"
    for bad in (f"{ell} {k} {a} {b} {close}\n", text.replace(kappa, kappa + "0")):
        assert loader_reference.parse_twist_graph(bad) == graph  # within 1e-9
        with pytest.raises(ValueError):
            parse_twist_graph(bad)
    with pytest.raises(ValueError):  # no shifts: kappa is undefined
        parse_twist_graph("7 0  0.000000000000\n")


def test_sidecar_blank_lines_are_refused():
    code = PartitionedBaseCode(
        n=3, delta=2, k_types=1, seed=0, adjacency=((0, 2),), heads=((0,),), tails=((2,),)
    )
    text = export_base_sidecar(code)
    assert parse_base_sidecar(text) == (code, None)
    for bad in (text + "\n", text.replace("\n", "\n\n", 1)):
        assert loader_reference.parse_base_sidecar(bad) == (code, None)
        with pytest.raises(ValueError):
            parse_base_sidecar(bad)


# -- the desk artifacts under single-token mutations --------------------------

DESK_ARTIFACTS = [
    "base.alist",
    "base.sidecar",
    "twist_graph.txt",
    "bundle_complex.txt",
    "css_hx.alist",
    "css_hz.alist",
    "reduced_base.alist",
    "equivalence_classical/g1.alist",
    "equivalence_classical/manifest.json",
    "equivalence_bundle/manifest.json",
]


@pytest.fixture(scope="module")
def desk_artifacts(tmp_path_factory) -> dict[str, tuple]:
    """name -> (text, loader, writer) for each desk artifact a loader
    reads, as build and weight-reduce write them."""
    root = tmp_path_factory.mktemp("desk_artifacts")
    (root / "config.json").write_text('{"preset": "desk"}')
    built = build_instance(load_config(str(root / "config.json")))
    texts = _build_artifacts(built)
    reduced_cx, classical = weight_reduce_classical(built.code)
    _, bundle_equiv = weight_reduce_bundle(built.bundle)
    texts["reduced_base.alist"] = to_alist(reduced_cx.boundary(1))
    texts["equivalence_classical/g1.alist"] = to_alist(classical.g.maps[1])
    out = {
        name: (texts[name], from_alist, to_alist)
        for name in DESK_ARTIFACTS
        if name.endswith(".alist")
    }
    out["base.sidecar"] = (
        texts["base.sidecar"],
        parse_base_sidecar,
        lambda parsed: export_base_sidecar(*parsed),
    )
    out["twist_graph.txt"] = (
        texts["twist_graph.txt"],
        parse_twist_graph,
        serialize_twist_graph,
    )
    out["bundle_complex.txt"] = (
        texts["bundle_complex.txt"],
        parse_complex,
        serialize_complex,
    )
    for tag, equiv in (("classical", classical), ("bundle", bundle_equiv)):
        directory = root / f"equivalence_{tag}"
        manifest = save_equivalence(equiv, directory)

        def load(text, manifest=manifest):
            manifest.write_bytes(text.encode())
            return load_equivalence(manifest.parent)

        def write(loaded, again=root / f"again_{tag}"):
            return _saved(loaded, again)

        out[f"equivalence_{tag}/manifest.json"] = (
            manifest.read_bytes().decode(),
            load,
            write,
        )
    return out


@pytest.mark.parametrize("name", DESK_ARTIFACTS)
def test_desk_artifact_mutations_raise_value_error_or_round_trip(desk_artifacts, name):
    text, load, write = desk_artifacts[name]
    assert write(load(text)) == text
    spans = _token_spans(text)
    values = [text[a:b] for a, b in spans]
    rng = random.Random(f"mutate {name}")
    outcomes = {"rejected": 0, "round trip": 0}
    for _ in range(120):
        span = rng.choice(spans)
        old = text[span[0] : span[1]]
        new = rng.choice(
            [
                rng.choice(values),
                str(rng.randint(-2, 40)),
                rng.choice(JUNK),
                f"{old} {old}",
                old + rng.choice(["\n", "\r", " ", "\t"]),
                BIG,
            ]
        )
        mutated = _replace_token(text, span, new)
        try:
            parsed = load(mutated)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        assert write(parsed) == mutated, new
        outcomes["round trip"] += 1
    assert outcomes["rejected"] > 0
