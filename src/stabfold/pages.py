"""Spectral sequences of filtered cochain complexes.

Conventions: filtrations are decreasing (F^t contains F^(t+1)) and the
differential never lowers the filtration value, so the page-r differential
goes E_r^(s,t) -> E_r^(s+1,t+r).  Everything splits along the internal class
u, and pages are computed blockwise from dimensions of the classical
subspaces Z_r^(s,t) = {x in F^t C^s : dx in F^(t+r)}:

    dim E_r^(s,t) = z_r(s,t) - z_(r-1)(s,t+1)
                  - z_(r-1)(s-1,t-r+1) + z_r(s-1,t-r+1).

For a filtration of span W every differential on pages beyond W vanishes for
lack of targets, which is the collapse certificate.  The critical block,
class u = 0, is the same filtration on ``ravenel.subcomplex(cx, "critical")``,
whose members are listed without enumerating the full complex; its
certificate is checked again on the pair table the block reads d from.

``run_pages`` expands no differential itself: it reads each block's
``homology.block_matrix`` rows once, checks on their entries that d never
lowers the filtration, and cuts each z_r matrix out of them by the source
and target filtration values.  A z_r matrix of a block is fixed by two
counts, nc source columns with fil >= t and nr target rows with fil < t + r,
so each distinct (nc, nr) is eliminated once, however many (t, r) cut it
out.  When the pages reach E-infinity, their totals
are cross-checked against Betti numbers from the rank of each full block,
taken on the same rows before they are cut.

The monodromy spectral sequences read one ``kummer.FixedLayer``, whose
terms carry the exponent e = k + alpha(b') - alpha(b): ``core_pages`` gives
the x-adic pages of the core (E_1 from the e = 0 part, windowed pages when
some e > 0), and ``medial_pages`` the weight pieces of the medial
filtration, which need e = 0 on every term.
"""

from __future__ import annotations

from bisect import bisect_left

from .exterior import add_term, first_subscript_filtration, format_monomial
from .homology import FiniteComplex, betti, betti_numbers, block_matrix, matrix_rank
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
    certifies the collapse page.  Each z_r matrix is eliminated once per
    distinct (nc, nr), its counts of columns and rows, not once per (t, r).
    When the listed range reaches E-infinity, its totals per (s, u) are
    cross-checked against Betti numbers from the ranks of the full block
    rows, taken apart from the cut z_r matrices.
    """
    cx = fc.cx
    field = cx.field
    lo, hi = fc.fil_range()
    span = hi - lo
    r_stop = span + 1 if r_max is None else min(r_max, span + 1)
    r_stop = max(r_stop, 1)
    to_infinity = r_stop >= span + 1

    # per (s, u): source fil values, target fil values, and the d-matrix
    data: dict[tuple[int, int], dict] = {}
    keys = {(s, u) for s in range(cx.top_degree + 1) for u in cx.blocks(s)}

    def block_data(s, u):
        """Filtration values and the ``block_matrix`` entries of the (s, u)
        block by source column, as (target row, code) pairs, once; with the
        rank of the full block when E-infinity is to be checked."""
        if (s, u) in data:
            return data[(s, u)]
        rows, ncols = block_matrix(cx, s, u)
        rank = matrix_rank(rows, ncols, field) if to_infinity else None
        src_fil = [fc.fil(m) for m in cx.blocks(s).get(u, [])]
        tgt_fil = [fc.fil(m) for m in cx.blocks(s + 1).get(u, [])]
        cols = [[] for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, c in row.items():
                if src_fil[j] > tgt_fil[i]:
                    raise AssertionError(
                        "differential lowers the filtration; the decreasing "
                        "convention is violated"
                    )
                cols[j].append((i, c))
        entry = {"src_fil": src_fil, "tgt_fil": tgt_fil, "cols": cols,
                 "src_sorted": sorted(src_fil), "tgt_sorted": sorted(tgt_fil),
                 "rank": rank}
        data[(s, u)] = entry
        return entry

    zcache: dict[tuple[int, int, int, int], int] = {}

    def zdim(s, u, t, r):
        """dim of {x in F^t C^(s,u) : dx in F^(t+r)}.  The cut matrix has the
        nc columns with fil >= t and the nr rows with fil < t + r, so
        (s, u, nc, nr) fixes it and each distinct one is eliminated once."""
        if s < 0:
            return 0
        bd = block_data(s, u)
        src, tgt = bd["src_sorted"], bd["tgt_sorted"]
        cut = t + r
        nc = len(src) - bisect_left(src, t)
        nr = bisect_left(tgt, cut)
        if not nc or not nr:
            return nc
        key = (s, u, nc, nr)
        if key not in zcache:
            rows: dict[int, dict[int, object]] = {}
            for j, f in enumerate(bd["src_fil"]):
                if f >= t:
                    for i, c in bd["cols"][j]:
                        if bd["tgt_fil"][i] < cut:
                            rows.setdefault(i, {})[j] = c
            zcache[key] = nc - matrix_rank(list(rows.values()), nc, field)
        return zcache[key]

    entries: dict[int, dict[tuple[int, int, int], int]] = {}
    for r in range(1, r_stop + 2):
        page: dict[tuple[int, int, int], int] = {}
        for (s, u) in keys:
            bd = block_data(s, u)
            fils = sorted(set(bd["src_fil"]))
            for t in fils:
                d = (
                    zdim(s, u, t, r)
                    - zdim(s, u, t + 1, r - 1)
                    - zdim(s - 1, u, t - r + 1, r - 1)
                    + zdim(s - 1, u, t - r + 1, r)
                )
                if d:
                    page[(s, t, u)] = d
        entries[r] = page

    ranks: dict[int, dict[tuple[int, int, int], int]] = {}
    for r in range(1, r_stop + 1):
        rk: dict[tuple[int, int, int], int] = {}
        cur, nxt = entries[r], entries[r + 1]
        for (s, t, u) in sorted(cur):
            out = (
                cur.get((s, t, u), 0)
                - nxt.get((s, t, u), 0)
                - rk.get((s - 1, t - r, u), 0)
            )
            if out:
                rk[(s, t, u)] = out
        ranks[r] = rk

    last_nonzero = max((r for r, rk in ranks.items() if any(rk.values())), default=0)
    entries.pop(r_stop + 1, None)
    report = PageReport(entries, ranks, span, last_nonzero + 1 if to_infinity else None)
    if to_infinity:
        einf = report.e_infinity_totals()
        expected = betti_numbers({k: len(data[k]["src_fil"]) for k in keys},
                                 {k: bd["rank"] for k, bd in data.items()})
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
