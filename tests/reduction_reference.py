"""Weight reduction as a chain of verified elementary rewrites.

The reference that the closed-form reduction in fibercode.homotopy is
tested against. Each auxiliary cell of the reduced layout is removed by
one combine (auxiliary checks) or collapse (auxiliary bits); for a
bundle each rewrite is lifted fiberwise after a gauge change clearing
the twists at its site, and a final gauge change aligns the rebuilt
twists with the original bundle. Every step builds and verifies its own
equivalence and the steps are composed through full matrix products,
so this is slow but follows the textbook construction move by move.

Not collected by pytest; the differential tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass

from fibercode.bundle import Bundle, PlainBase, build_bundle, gauge_transform
from fibercode.complexes import ChainComplex
from fibercode.gf2 import Gf2Matrix
from fibercode.homotopy import (
    ChainMap,
    HomotopyEquivalence,
    _ReducedLayout,
    _reduced_layout,
    _zero_homotopy,
    collapse_cell,
    combine_cells,
)


def _rebind(
    equiv: HomotopyEquivalence,
    source: ChainComplex,
    target: ChainComplex,
) -> HomotopyEquivalence:
    """Swap in caller-owned complex objects equal to the pipeline's."""
    if source != equiv.f.source or target != equiv.f.target:
        raise ValueError("replacement complexes differ from the originals")
    return HomotopyEquivalence(
        ChainMap(source, target, equiv.f.maps),
        ChainMap(target, source, equiv.g.maps),
        equiv.h_source,
        equiv.h_target,
    )


@dataclass(frozen=True)
class _RewriteStep:
    kind: str  # "combine" | "collapse"
    site: int  # removed middle cell, indexed in the source complex
    merged: tuple[int, int]  # the two cells being merged, ascending
    equivalence: HomotopyEquivalence


def _reduction_pipeline(
    cx: ChainComplex,
) -> tuple[_ReducedLayout, list[_RewriteStep], HomotopyEquivalence]:
    """Rewrites taking the reduced complex back to the original.

    Combines remove the auxiliary equality checks of each bit, merging
    its copies; collapses remove the auxiliary carry bits of each check,
    merging its copies. The final complex must reproduce the original
    boundary matrix exactly.
    """
    layout = _reduced_layout(cx)
    d1 = cx.boundary(1)
    cur = layout.complex
    equiv = HomotopyEquivalence.identity(cur)
    steps: list[_RewriteStep] = []

    for b in range(cx.dims[1]):
        for j in range(1, len(d1.col_support(b))):
            site = cur.labels[0].index(f"ac{b}.{j}")
            merged = cur.boundary(1).row_support(site)
            nxt, step_eq = combine_cells(cur, site)
            steps.append(_RewriteStep("combine", site, merged, step_eq))
            equiv = equiv.compose(step_eq)
            cur = nxt
    for c in range(cx.dims[0]):
        for k in range(1, len(d1.row_support(c))):
            site = cur.labels[1].index(f"ab{c}.{k}")
            merged = cur.boundary(1).col_support(site)
            nxt, step_eq = collapse_cell(cur, site)
            steps.append(_RewriteStep("collapse", site, merged, step_eq))
            equiv = equiv.compose(step_eq)
            cur = nxt

    if cur.dims != cx.dims or cur.boundary(1) != d1:
        raise RuntimeError(
            "weight-reduction rewrites failed to rebuild the original complex"
        )
    equiv = _rebind(equiv, layout.complex, cx)
    if not equiv.verify():
        raise RuntimeError("composed reduction equivalence failed verification")
    return layout, steps, equiv


def weight_reduce_classical(code) -> tuple[ChainComplex, HomotopyEquivalence]:
    """Cap every bit and check degree at 3.

    Degrees land exactly in {2, 3} whenever every original bit and check
    touches at least two cells; a degree-1 original keeps one degree-1
    image (splitting never raises a cell's degree). Accepts a classical
    base code (anything with as_complex()) or a 1-complex. Returns the
    reduced complex and a verified equivalence whose forward map runs
    reduced -> original with the reverse-forward composite on the
    original side exactly the identity.
    """
    cx = code.as_complex() if hasattr(code, "as_complex") else code
    layout, _, equiv = _reduction_pipeline(cx)
    return layout.complex, equiv


def _star_zero_gauge(
    cur: Bundle, base: ChainComplex, step: _RewriteStep
) -> tuple[list[int], list[int]]:
    """Fiber rotations clearing every twist at the rewrite site.

    For a combine the site spans the stars of the two merging bits; for
    a collapse, the stars of the two merging checks. The site is a tree
    (the merging cells share only the removed middle cell), so rotations
    zeroing it always exist; a shared outer cell would make the site
    cyclic and is reported as a construction bug.
    """
    mf = cur.m_fiber
    d1 = base.boundary(1)
    tw = cur.twist_of
    rho_v = [0] * cur.n_vars
    rho_c = [0] * cur.n_checks

    def t(b: int, a: int) -> int:
        return tw.get((b, a), 0)

    if step.kind == "combine":
        v = step.site
        e1, e2 = step.merged
        for a in d1.col_support(e1):
            rho_c[a] = -t(e1, a) % mf
        rho_v[e2] = (t(e2, v) + rho_c[v]) % mf
        first = set(d1.col_support(e1))
        for a in d1.col_support(e2):
            if a in first:
                if (t(e2, a) + rho_c[a] - rho_v[e2]) % mf:
                    raise RuntimeError(
                        "merging bits share a check beyond the rewrite site"
                    )
            else:
                rho_c[a] = (rho_v[e2] - t(e2, a)) % mf
    else:
        e = step.site
        v1, v2 = step.merged
        for y in d1.row_support(v1):
            rho_v[y] = t(y, v1) % mf
        rho_c[v2] = (rho_v[e] - t(e, v2)) % mf
        first = set(d1.row_support(v1))
        for y in d1.row_support(v2):
            if y in first:
                if (t(y, v2) + rho_c[v2] - rho_v[y]) % mf:
                    raise RuntimeError(
                        "merging checks share a bit beyond the rewrite site"
                    )
            else:
                rho_v[y] = (t(y, v2) + rho_c[v2]) % mf
    return rho_v, rho_c


def _apply_gauge(
    cur: Bundle, rho_v: list[int], rho_c: list[int]
) -> tuple[Bundle, HomotopyEquivalence]:
    """Gauge change as an exact equivalence (permutation both ways)."""
    gauged, (u0, u1, u2) = gauge_transform(cur, rho_v, rho_c)
    equiv = HomotopyEquivalence(
        ChainMap(cur.complex, gauged.complex, (u0, u1, u2)),
        ChainMap(
            gauged.complex,
            cur.complex,
            (u0.transpose(), u1.transpose(), u2.transpose()),
        ),
        _zero_homotopy(cur.complex),
        _zero_homotopy(gauged.complex),
    )
    if not equiv.verify():
        raise RuntimeError("gauge change is not a chain isomorphism")
    return gauged, equiv


def _kron_id(mat: Gf2Matrix, mf: int) -> Gf2Matrix:
    """mat acting blockwise on cells carrying a fiber coordinate."""
    cols: list[list[int]] = []
    for j in range(mat.n_cols):
        sup = mat.col_support(j)
        for i in range(mf):
            cols.append([r * mf + i for r in sup])
    return Gf2Matrix.from_col_support(cols, mat.n_rows * mf)


def _lift_triple(
    f0: Gf2Matrix, f1: Gf2Matrix, mf: int
) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
    """Lift base maps (f0 on checks, f1 on bits) to the three bundle degrees."""
    n1t, n0t = f1.n_rows, f0.n_rows
    cols: list[list[int]] = []
    for b in range(f1.n_cols):
        sup = f1.col_support(b)
        for u in range(mf):
            cols.append([r * mf + u for r in sup])
    off = n1t * mf
    for a in range(f0.n_cols):
        sup = f0.col_support(a)
        for i in range(mf):
            cols.append([off + r * mf + i for r in sup])
    lifted1 = Gf2Matrix.from_col_support(cols, (n1t + n0t) * mf)
    return (_kron_id(f0, mf), lifted1, _kron_id(f1, mf))


def _lift_homotopy(
    h0: Gf2Matrix, n_vars: int, n_checks: int, mf: int
) -> tuple[Gf2Matrix, Gf2Matrix, Gf2Matrix]:
    """Lift a base homotopy: c(a,u) -> h(h0 a, u) and v(a,i) -> q(h0 a, i)."""
    cols0: list[list[int]] = []
    for a in range(n_checks):
        sup = h0.col_support(a)
        for u in range(mf):
            cols0.append([r * mf + u for r in sup])
    lifted0 = Gf2Matrix.from_col_support(cols0, (n_vars + n_checks) * mf)
    cols1: list[list[int]] = [[] for _ in range(n_vars * mf)]
    for a in range(n_checks):
        sup = h0.col_support(a)
        for i in range(mf):
            cols1.append([r * mf + i for r in sup])
    lifted1 = Gf2Matrix.from_col_support(cols1, n_vars * mf)
    return (lifted0, lifted1, Gf2Matrix.zeros(0, n_vars * mf))


def _lift_rewrite(
    cur: Bundle, step: _RewriteStep
) -> tuple[Bundle, HomotopyEquivalence]:
    """Apply one base rewrite fiberwise to a bundle with a cleared site."""
    cls_eq = step.equivalence
    source_base = cls_eq.f.source
    target_base = cls_eq.f.target
    mf = cur.m_fiber

    if step.kind == "combine":
        removed_bit, removed_check = step.merged[1], step.site
        cleared_bits = set(step.merged)
        cleared_checks: set[int] = set()
    else:
        removed_bit, removed_check = step.site, step.merged[1]
        cleared_bits = set()
        cleared_checks = set(step.merged)
    for (b, a), t in cur.twist_of.items():
        if t % mf and (b in cleared_bits or a in cleared_checks):
            raise RuntimeError("gauge failed to clear the rewrite site")

    bit_pos = {}
    for b in range(source_base.dims[1]):
        if b != removed_bit:
            bit_pos[b] = len(bit_pos)
    check_pos = {}
    for a in range(source_base.dims[0]):
        if a != removed_check:
            check_pos[a] = len(check_pos)
    new_twists = {}
    for (b, a), t in cur.twist_of.items():
        if t % mf == 0:
            continue
        new_twists[(bit_pos[b], check_pos[a])] = t

    nxt = build_bundle(PlainBase.from_complex(target_base), mf, new_twists)
    nxt = Bundle(
        base_code=nxt.base_code,
        m_fiber=mf,
        twists=nxt.twists,
        complex=nxt.complex,
        ell=cur.ell
        if cur.ell is not None and all(t % cur.ell == 0 for t in new_twists.values())
        else None,
    )

    equiv = HomotopyEquivalence(
        ChainMap(
            cur.complex,
            nxt.complex,
            _lift_triple(cls_eq.f.maps[0], cls_eq.f.maps[1], mf),
        ),
        ChainMap(
            nxt.complex,
            cur.complex,
            _lift_triple(cls_eq.g.maps[0], cls_eq.g.maps[1], mf),
        ),
        _lift_homotopy(
            cls_eq.h_source[0], source_base.dims[1], source_base.dims[0], mf
        ),
        _zero_homotopy(nxt.complex),
    )
    if not equiv.verify():
        raise RuntimeError("lifted rewrite failed homotopy verification")
    return nxt, equiv


def _alignment_gauge(cur: Bundle, target: Bundle) -> tuple[list[int], list[int]]:
    """Rotations turning cur's twists into target's, solved over the
    Tanner graph; inconsistency around a cycle is a construction bug."""
    mf = cur.m_fiber
    if (cur.n_vars, cur.n_checks) != (target.n_vars, target.n_checks):
        raise RuntimeError("aligned bundles must share the base")

    def delta(b: int, a: int) -> int:
        return (target.twist_of.get((b, a), 0) - cur.twist_of.get((b, a), 0)) % mf

    rho_v: list[int | None] = [None] * cur.n_vars
    rho_c: list[int | None] = [None] * cur.n_checks
    var_checks = cur.var_checks
    check_vars = cur.base_code.adjacency
    for root in range(cur.n_vars):
        if rho_v[root] is not None:
            continue
        rho_v[root] = 0
        queue = [("v", root)]
        while queue:
            kind, x = queue.pop()
            if kind == "v":
                for a in var_checks[x]:
                    want = (rho_v[x] + delta(x, a)) % mf
                    if rho_c[a] is None:
                        rho_c[a] = want
                        queue.append(("c", a))
                    elif rho_c[a] != want:
                        raise RuntimeError(
                            "twists disagree around a base cycle; no gauge aligns them"
                        )
            else:
                for b in check_vars[x]:
                    want = (rho_c[x] - delta(b, x)) % mf
                    if rho_v[b] is None:
                        rho_v[b] = want
                        queue.append(("v", b))
                    elif rho_v[b] != want:
                        raise RuntimeError(
                            "twists disagree around a base cycle; no gauge aligns them"
                        )
    return [r or 0 for r in rho_v], [r or 0 for r in rho_c]


def weight_reduce_bundle(bundle: Bundle) -> tuple[Bundle, HomotopyEquivalence]:
    """Bundle over the degree-reduced base, with a verified equivalence.

    The reduced base carries each original twist on the edge between the
    matching bit and check copies and zero twists elsewhere. Each base
    rewrite is lifted fiberwise after a gauge change clearing the twists
    at its site; a final gauge change aligns the rebuilt twists with the
    original bundle, which must be reproduced exactly.
    """
    base_cx = bundle.base_complex
    layout, steps, _ = _reduction_pipeline(base_cx)
    mf = bundle.m_fiber

    reduced_twists = {}
    for (b, a), t in bundle.twist_of.items():
        if t % mf:
            reduced_twists[
                (layout.bit_index[(b, a)], layout.check_index[(a, b)])
            ] = t % mf
    built = build_bundle(PlainBase.from_complex(layout.complex), mf, reduced_twists)
    reduced_bundle = Bundle(
        base_code=built.base_code,
        m_fiber=mf,
        twists=built.twists,
        complex=built.complex,
        ell=bundle.ell,
    )

    cur = reduced_bundle
    equiv = HomotopyEquivalence.identity(reduced_bundle.complex)
    for step in steps:
        rho_v, rho_c = _star_zero_gauge(cur, step.equivalence.f.source, step)
        if any(rho_v) or any(rho_c):
            cur, gauge_eq = _apply_gauge(cur, rho_v, rho_c)
            equiv = equiv.compose(gauge_eq)
        cur, lift_eq = _lift_rewrite(cur, step)
        equiv = equiv.compose(lift_eq)

    rho_v, rho_c = _alignment_gauge(cur, bundle)
    if any(rho_v) or any(rho_c):
        cur, gauge_eq = _apply_gauge(cur, rho_v, rho_c)
        equiv = equiv.compose(gauge_eq)
    if cur.complex != bundle.complex:
        raise RuntimeError(
            "bundle weight reduction failed to rebuild the original complex"
        )
    equiv = _rebind(equiv, reduced_bundle.complex, bundle.complex)
    if not equiv.verify():
        raise RuntimeError("composed bundle equivalence failed verification")
    return reduced_bundle, equiv
