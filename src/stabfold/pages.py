"""Spectral sequences of filtered cochain complexes.

Conventions: filtrations are decreasing (F^t contains F^(t+1)) and the
differential never lowers the filtration value, so the page-r differential
goes E_r^(s,t) -> E_r^(s+1,t+r).  Everything splits along the internal class
u, and pages are computed blockwise from one filtered pairing of each block
(Zomorodian-Carlsson): its sources, inserted with ``homology.insert_row``
deepest first, against its targets, indexed from the shallowest.  Each pivot
pairs a source at filtration a with the shallowest target of its reduced
image, at b >= a.  A row is reduced only by rows inserted before it, which
lie as deep or deeper, so the change of basis is filtered; over a field the
complex splits into such pairs and singletons, and the pair lengths b - a,
which do not depend on how ties are ordered, are the pages (Basu-Parida):

    dim E_r^(s,t) = dim C^(s,t) - #(pair ends at (s, t) of length < r),
    rank d_r out of (s,t) = #(pairs from (s, t) of length r).

For a filtration of span W every differential on pages beyond W vanishes for
lack of targets, which is the collapse certificate.  The critical block,
class u = 0, is the same filtration on ``ravenel.subcomplex(cx, "critical")``,
whose members are listed without enumerating the full complex; its
certificate is checked again on the pair table the block reads d from.

``run_pages`` expands no differential itself: it reads each block's
``homology.block_matrix`` rows, one per source, once, and checks on the
entries the pairing reads that d never lowers the filtration.

The twist (Chen-Kerber 2011) skips, when d∘d = 0 (``Complex.dd_zero``),
each source that was paired as a target one degree down.  Such a target q
is the shallowest term of a reduced row, a coboundary b = c e_q + (terms at
least as deep); replacing e_q by b is a filtered change of basis, b is a
cocycle whose row is zero, and the pair lengths do not depend on the
filtered basis.  So the skipped sources lose no pair and add none.

When the pages reach E-infinity, their totals are cross-checked against
Betti numbers from the rank of each block, an echelon of the same rows
apart from the pairing, cleared by its own pivots one degree down and never
by the pairing's, so a lost or an extra pair fails.

The monodromy spectral sequences read one ``kummer.FixedLayer``, whose
terms carry the exponent e = k + alpha(b') - alpha(b): ``core_pages`` gives
the x-adic pages of the core (E_1 from the e = 0 part, windowed pages when
some e > 0), and ``medial_pages`` the weight pieces of the medial
filtration, which need e = 0 on every term.
"""

from __future__ import annotations

from collections import Counter

from .exterior import add_term, first_subscript_filtration, format_monomial
from .homology import (FiniteComplex, betti, betti_numbers, block_matrix, insert_row,
                       matrix_rank)
from .ravenel import Complex, DgaDescriptor, subcomplex


class FilteredComplex:
    def __init__(self, cx, fil):
        self.cx = cx
        self.fil = fil  # mask -> int

    def fil_range(self) -> tuple[int, int]:
        fils = [self.fil(m) for s in range(self.cx.top_degree + 1)
                for monos in self.cx.blocks(s).values() for m in monos]
        return (min(fils), max(fils)) if fils else (0, 0)


def filter_first_subscript(ce_gl) -> FilteredComplex:
    """The decreasing filtration by the integer sum of first subscripts.

    Its associated graded differential (the filtration-preserving part) is
    the eps = 0 fiber's, with identical structure constants, on every
    monomial.  Certificate, checked on the pair table of ``ce_gl``: each
    eps-free term keeps the first-subscript sum of its generator and each eps
    term raises it by exactly n.  The sum is additive, so on any monomial the
    eps-free terms of d keep its filtration, the eps terms raise it by n, and
    no target receives both kinds.
    """
    n = ce_gl.n
    fil = lambda mask: first_subscript_filtration(mask, n)
    for gslot, terms in ce_gl.pairs.items():
        for pmask, _sign, e in terms:
            if fil(pmask) != fil(1 << gslot) + e * n:
                raise AssertionError(
                    "associated graded differs from the singular fiber at "
                    + format_monomial(1 << gslot, n)
                )
    return FilteredComplex(ce_gl, fil)


def critical_block(fc: FilteredComplex) -> FilteredComplex:
    """The first-subscript filtration on the critical subcomplex, internal
    class 0 (degrees divisible by 2(p^n - 1)), of the full complex of ``fc``,
    certified on the block's own pair table."""
    return filter_first_subscript(subcomplex(fc.cx, "critical"))


class PageReport:
    def __init__(self, entries, ranks, span: int,
                 collapse_page: int | None, notes: dict | None = None):
        # entries[r][(s, t, u)] = dim E_r ; ranks[r][(s, t, u)] = rank of d_r out
        self.entries = entries
        self.ranks = ranks
        self.span = span
        self.collapse_page = collapse_page
        self.notes = notes or {}

    def dim(self, r: int, s: int, t: int, u: int = 0) -> int:
        return self.entries.get(r, {}).get((s, t, u), 0)

    def nonzero_differentials(self) -> list[tuple[int, int, int, int, int]]:
        return [(r, s, t, u, v) for r, rk in sorted(self.ranks.items())
                for (s, t, u), v in sorted(rk.items()) if v]

    def e_infinity_totals(self) -> dict[tuple[int, int], int]:
        """Sum over t of the last-listed page, per (s, u)."""
        last = self.entries[max(self.entries)]
        out: dict[tuple[int, int], int] = {}
        for (s, t, u), d in last.items():
            out[(s, u)] = out.get((s, u), 0) + d
        return {k: v for k, v in out.items() if v}

    def to_json(self) -> dict:
        pages = []
        for r in sorted(self.entries):
            for (s, t, u), d in sorted(self.entries[r].items()):
                if d:
                    pages.append({
                        "r": r, "s": s, "t": t, "u": u, "dim": d,
                        "rank_out": self.ranks.get(r, {}).get((s, t, u), 0),
                    })
        return {
            "pages": pages,
            "span": self.span,
            "collapse_page": self.collapse_page,
            "notes": self.notes,
        }


def run_pages(fc: FilteredComplex, r_max: int | None = None) -> PageReport:
    """Pages and differential ranks of the filtered complex, blockwise.

    Pages are listed for r = 1 .. min(r_max, span + 1); differentials beyond
    the filtration span vanish for lack of targets, so the listed range
    certifies the collapse page.  Each (s, u) block is paired once: its
    sources, inserted deepest first, against its targets, indexed from the
    shallowest, and every page and rank is counted off the pair lengths.
    When the listed range reaches E-infinity, its totals per (s, u) are
    cross-checked against Betti numbers from the rank of each block, its own
    echelon apart from the pairing.  When ``cx.dd_zero``, the pairing skips
    the sources paired as targets one degree down (the twist), and the
    echelon those of its own pivots one degree down (``homology``'s
    clearing); d is expanded only on the sources one of the two reads.
    """
    cx = fc.cx
    field = cx.field
    lo, hi = fc.fil_range()
    span = hi - lo
    r_stop = span + 1 if r_max is None else min(r_max, span + 1)
    r_stop = max(r_stop, 1)
    to_infinity = r_stop >= span + 1

    fils = {(s, u): [fc.fil(m) for m in monos]
            for s in range(cx.top_degree + 1) for u, monos in cx.blocks(s).items()}
    page = Counter((s, a, u) for (s, u), src_fil in fils.items() for a in src_fil)
    # pairs by length b - a, as (s, a, b, u): a source at (s, a) paired with
    # a target at (s + 1, b)
    by_length: dict[int, list] = {}
    block_ranks = {}
    # per block, when d∘d = 0: the targets it paired, skipped as sources one
    # degree up (the twist), and the pivots of its E-infinity echelon
    paired: dict[tuple[int, int], set] = {}
    pivots: dict[tuple[int, int], set] = {}
    for (s, u), src_fil in fils.items():
        tgt_fil = fils.get((s + 1, u), [])
        twist, cleared = paired.get((s - 1, u), set()), pivots.get((s - 1, u), set())
        rows, width = block_matrix(cx, s, u, skip=twist & cleared)
        if to_infinity:
            found = pivots.setdefault((s, u), set()) if cx.dd_zero else None
            block_ranks[(s, u)] = matrix_rank(
                [row for j, row in enumerate(rows) if j not in cleared], width, field, found)
        # targets from the shallowest, ties by index: the least column of a
        # row is its shallowest target
        order = sorted(range(len(tgt_fil)), key=lambda i: (tgt_fil[i], i))
        column = {i: k for k, i in enumerate(order)}
        ech, hit = {}, set()
        for j in sorted(range(len(rows)), key=src_fil.__getitem__, reverse=True):
            if j in twist:
                continue
            row = {}
            for i, c in rows[j].items():
                if src_fil[j] > tgt_fil[i]:
                    raise AssertionError(
                        "differential lowers the filtration; the decreasing "
                        "convention is violated"
                    )
                row[column[i]] = c
            pivot = insert_row(row, ech, field)
            if pivot is not None:
                i = order[pivot]
                hit.add(i)
                by_length.setdefault(tgt_fil[i] - src_fil[j], []).append(
                    (s, src_fil[j], tgt_fil[i], u))
        if cx.dd_zero:
            paired[(s, u)] = hit

    # E_r has lost both ends of each pair shorter than r; d_r is the pairs of
    # length exactly r, counted at their sources
    entries: dict[int, dict[tuple[int, int, int], int]] = {}
    ranks: dict[int, dict[tuple[int, int, int], int]] = {}
    for r in range(1, r_stop + 1):
        for s, a, b, u in by_length.get(r - 1, []):
            page[(s, a, u)] -= 1
            page[(s + 1, b, u)] -= 1
        entries[r] = {k: v for k, v in page.items() if v}
        ranks[r] = dict(Counter((s, a, u) for s, a, _b, u in by_length.get(r, [])))

    last_nonzero = max((r for r, rk in ranks.items() if rk), default=0)
    report = PageReport(entries, ranks, span, last_nonzero + 1 if to_infinity else None)
    if to_infinity:
        einf = report.e_infinity_totals()
        expected = betti_numbers({k: len(v) for k, v in fils.items()}, block_ranks)
        if einf != expected:
            raise AssertionError(
                f"E-infinity totals {einf} disagree with Betti numbers {expected}"
            )
        report.notes["e_infinity_matches_betti"] = True
    return report


# -- monodromy spectral sequences ----------------------------------------------------


def core_pages(layer, t_report: int = 3) -> PageReport:
    """Pages of the x-adic spectral sequence of the core of a
    ``kummer.FixedLayer``: E_1 is the cohomology of the e = 0 part in every
    column t >= 0.  Strict compatibility (e = 0 on every term) certifies
    collapse at the first page, so E_1 = E_inf on the window t <= t_report;
    otherwise the pages come from a truncated model.  E_1 is also compared
    against the Betti numbers of the fixed fiber at eps = 1.
    """
    if not layer.closed:
        raise ValueError(
            "the differential leaves the core (negative x-exponents); "
            "its x-adic spectral sequence is undefined"
        )
    basis = {s: layer.basis(s) for s in range(layer.top_degree + 1)}
    e1 = betti(FiniteComplex(layer.field, basis, layer.gr_diff())).totals_by_degree()
    entries: dict[int, dict] = {1: {}}
    for s, b in e1.items():
        for t in range(0, t_report + 1):
            entries[1][(s, t, 0)] = b
    if layer.homogeneity_witness() is None:
        report = PageReport(entries, {1: {}}, t_report, 1,
                            notes={"certified_by": "strict x-adic compatibility"})
    else:
        report = _windowed_pages(layer, t_report)
        report.notes["e1_window"] = t_report
    # E_1 columns must reproduce the cohomology of the fixed smooth fiber
    field = layer.field
    desc = DgaDescriptor(layer.n, field.p, field, field.one, label="custom")
    fiber = betti(Complex(desc, members=layer.conn.fixed_masks())).totals_by_degree()
    report.notes["e1_matches_smooth_fiber"] = fiber == e1
    report.notes["smooth_fiber_betti"] = fiber
    return report


def medial_pages(layer, t_report: int = 3) -> PageReport:
    """E_1 of the medial filtration fil(x^w b) = w + alpha(b) of a
    ``kummer.FixedLayer``, on the weights min(alpha) <= t <= t_report.  The
    weight-t piece has the basis (b, t - alpha(b)) and, as d preserves the
    weights (e = 0 on every term), the layer's e = 0 part as differential;
    that grading certifies collapse at the first page.
    """
    alpha = layer.alpha
    if any(a > 0 for a in alpha.values()):
        raise ValueError("medial layer needs nonpositive parameters on the fixed basis")
    if layer.homogeneity_witness() is not None:
        raise ValueError("medial filtration is not preserved by d for this connection")
    gr_diff = layer.gr_diff()
    # from weight max(alpha) on, every piece holds the whole fixed basis with
    # the same differential, relabelled: its Betti totals are computed once
    whole = max(alpha.values())
    totals: dict[int, dict] = {}
    entries: dict[int, dict] = {1: {}}
    for t in range(min(alpha.values()), t_report + 1):
        key = min(t, whole)
        if key not in totals:
            gr = layer.gr_basis(key)
            diff = {(m, w): {(tgt, key - alpha[tgt]): c for tgt, c in gr_diff[m].items()}
                    for pairs in gr.values() for (m, w) in pairs}
            totals[key] = betti(FiniteComplex(layer.field, gr, diff)).totals_by_degree()
        for s, b in totals[key].items():
            entries[1][(s, t, 0)] = b
    return PageReport(entries, {1: {}}, t_report, 1,
                      notes={"certified_by": "weight grading"})


def _windowed_pages(layer, t_report: int) -> PageReport:
    """Truncated x-weight model for a closed but inhomogeneous core: exact
    for t <= t_report since differentials only raise the weight."""
    max_e = max((e for m in layer.alpha for (_t, _c, e) in layer.d_triples(m)),
                default=0)
    span = t_report + max_e + 1
    labels_by_degree: dict[int, list] = {}
    diff: dict = {}
    for s in range(layer.top_degree + 1):
        labels_by_degree[s] = [(m, w) for m in layer.basis(s) for w in range(span + 1)]
        for (m, w) in labels_by_degree[s]:
            row = {}
            for tgt, c, e in layer.d_triples(m):
                if w + e <= span:
                    add_term(row, (tgt, w + e), c)
            diff[(m, w)] = row

    window = FiniteComplex(layer.field, labels_by_degree, diff)
    report = run_pages(FilteredComplex(window, lambda lbl: lbl[1]),
                       r_max=t_report + 1)
    # drop entries beyond the trustworthy window
    for r in list(report.entries):
        report.entries[r] = {
            k: v for k, v in report.entries[r].items() if k[1] <= t_report
        }
        report.ranks[r] = {
            k: v for k, v in report.ranks.get(r, {}).items() if k[1] <= t_report
        }
    report.notes["window_limited"] = True
    return report
