"""Spectral sequences of filtered cochain complexes.

Conventions: filtrations are decreasing (F^t contains F^(t+1)) and the
differential never lowers the filtration value, so the page-r differential
goes E_r^(s,t) -> E_r^(s+1,t+r).  Everything splits along the internal class
u, and pages are computed blockwise from dimensions of the classical
subspaces Z_r^(s,t) = {x in F^t C^s : dx in F^(t+r)}:

    dim E_r^(s,t) = z_r(s,t) - z_(r-1)(s,t+1)
                  - z_(r-1)(s-1,t-r+1) + z_r(s-1,t-r+1).

For a filtration of span W every differential on pages beyond W vanishes for
lack of targets, which is the collapse certificate.

``run_pages`` expands no differential itself: it reads each block's
``homology.block_matrix`` rows once, checks on their entries that d never
lowers the filtration, and cuts each z_r matrix out of them by the source
and target filtration values.  When the pages reach E-infinity, their totals
are cross-checked against Betti numbers from the rank of each full block,
taken on the same rows before they are cut.
"""

from __future__ import annotations

from .exterior import add_term, first_subscript_filtration, format_monomial
from .gf import Field
from .homology import betti, block_matrix, matrix_rank


class FilteredComplex:
    def __init__(self, cx, fil, name: str = "", u_filter=None):
        self.cx = cx
        self.fil = fil  # mask -> int
        self.name = name
        self.u_filter = u_filter  # predicate on u, or None for all classes

    def blocks(self, s: int) -> dict[int, list[int]]:
        blocks = self.cx.blocks(s)
        if self.u_filter is None:
            return blocks
        return {u: monos for u, monos in blocks.items() if self.u_filter(u)}

    def fil_range(self) -> tuple[int, int]:
        lo, hi = None, None
        for s in range(self.cx.top_degree + 1):
            for monos in self.blocks(s).values():
                for m in monos:
                    f = self.fil(m)
                    lo = f if lo is None else min(lo, f)
                    hi = f if hi is None else max(hi, f)
        return (0, 0) if lo is None else (lo, hi)

    def restrict_classes(self, u_filter) -> "FilteredComplex":
        return FilteredComplex(self.cx, self.fil, self.name, u_filter)


def filter_first_subscript(ce_gl) -> FilteredComplex:
    """The decreasing filtration by the integer sum of first subscripts.

    Its associated graded differential (the filtration-preserving part) is
    the eps = 0 fiber's, with identical structure constants, on every
    monomial.  Certificate, checked on the generator pair table: each
    eps-free term keeps the first-subscript sum of its generator and each eps
    term raises it by exactly n.  The sum is additive, so on any monomial the
    eps-free terms of d keep its filtration, the eps terms raise it by n, and
    no target receives both kinds.
    """
    from .ravenel import generator_pair_table

    if ce_gl.descriptor.is_bundle():
        raise ValueError("filter a fiber complex, not the bundle")
    n = ce_gl.n
    fil = lambda mask: first_subscript_filtration(mask, n)
    for gslot, terms in generator_pair_table(n).items():
        for pmask, _sign, e in terms:
            if fil(pmask) != fil(1 << gslot) + e * n:
                raise AssertionError(
                    "associated graded differs from the singular fiber at "
                    + format_monomial(1 << gslot, n)
                )
    return FilteredComplex(ce_gl, fil, name="first-subscript")


def critical_block(fc: FilteredComplex) -> FilteredComplex:
    """Restriction to internal class 0 (degrees divisible by 2(p^n - 1))."""
    return fc.restrict_classes(lambda u: u == 0)


class PageReport:
    def __init__(self, entries, ranks, r_listed: int, span: int,
                 collapse_page: int | None, notes: dict | None = None):
        # entries[r][(s, t, u)] = dim E_r ; ranks[r][(s, t, u)] = rank of d_r out
        self.entries = entries
        self.ranks = ranks
        self.r_listed = r_listed
        self.span = span
        self.collapse_page = collapse_page
        self.notes = notes or {}

    def dim(self, r: int, s: int, t: int, u: int = 0) -> int:
        return self.entries.get(r, {}).get((s, t, u), 0)

    def rank_out(self, r: int, s: int, t: int, u: int = 0) -> int:
        return self.ranks.get(r, {}).get((s, t, u), 0)

    def nonzero_differentials(self) -> list[tuple[int, int, int, int, int]]:
        out = []
        for r, rk in sorted(self.ranks.items()):
            for (s, t, u), v in sorted(rk.items()):
                if v:
                    out.append((r, s, t, u, v))
        return out

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
    certifies the collapse page.  When the listed range reaches E-infinity,
    its totals per (s, u) are cross-checked against Betti numbers from the
    ranks of the full block rows, taken apart from the cut z_r matrices.
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
    keys = set()
    for s in range(cx.top_degree + 1):
        for u in fc.blocks(s):
            keys.add((s, u))

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
                 "rank": rank}
        data[(s, u)] = entry
        return entry

    zcache: dict[tuple[int, int, int, int], int] = {}

    def zdim(s, u, t, r):
        """dim of {x in F^t C^(s,u) : dx in F^(t+r)}."""
        if s < 0:
            return 0
        key = (s, u, t, r)
        if key in zcache:
            return zcache[key]
        bd = block_data(s, u)
        cols = [j for j, f in enumerate(bd["src_fil"]) if f >= t]
        cut = t + r
        live_rows = {i for i, f in enumerate(bd["tgt_fil"]) if f < cut}
        rows: dict[int, dict[int, object]] = {}
        for j in cols:
            for i, c in bd["cols"][j]:
                if i in live_rows:
                    rows.setdefault(i, {})[j] = c
        rank = matrix_rank(list(rows.values()), len(cols), field)
        val = len(cols) - rank
        zcache[key] = val
        return val

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

    last_nonzero = 0
    for r, rk in ranks.items():
        if any(rk.values()):
            last_nonzero = max(last_nonzero, r)
    collapse_page = last_nonzero + 1 if to_infinity else None
    entries.pop(r_stop + 1, None)

    notes = {}
    if to_infinity:
        einf: dict[tuple[int, int], int] = {}
        for (s, t, u), d in entries[r_stop].items():
            einf[(s, u)] = einf.get((s, u), 0) + d
        rank = {k: bd["rank"] for k, bd in data.items()}
        expected = {}
        for (s, u) in keys:
            b = len(data[(s, u)]["src_fil"]) - rank[(s, u)] - rank.get((s - 1, u), 0)
            if b:
                expected[(s, u)] = b
        einf = {k: v for k, v in einf.items() if v}
        if einf != expected:
            raise AssertionError(
                f"E-infinity totals {einf} disagree with Betti numbers {expected}"
            )
        notes["e_infinity_matches_betti"] = True

    return PageReport(entries, ranks, r_stop, span, collapse_page, notes)


# -- monodromy spectral sequences ----------------------------------------------------


def finite_betti(field: Field, basis_by_degree: dict[int, list],
                 diff: dict) -> dict[int, int]:
    """Betti numbers of an explicit finite complex on labeled basis elements;
    diff maps a label to {label: coefficient} one degree up."""
    encode = field.coding.encode
    ranks: dict[int, int] = {}
    degs = sorted(basis_by_degree)
    for s in degs:
        tgt = basis_by_degree.get(s + 1, [])
        tgt_index = {lbl: i for i, lbl in enumerate(tgt)}
        rows: dict[int, dict[int, object]] = {}
        for j, lbl in enumerate(basis_by_degree[s]):
            for t_lbl, c in diff.get(lbl, {}).items():
                rows.setdefault(tgt_index[t_lbl], {})[j] = encode(c)
        ranks[s] = matrix_rank(list(rows.values()), len(basis_by_degree[s]), field)
    out = {}
    for s in degs:
        b = len(basis_by_degree[s]) - ranks.get(s, 0) - ranks.get(s - 1, 0)
        if b:
            out[s] = b
    return out


def monodromy_ss(obj, which: str = "core", t_report: int = 3) -> PageReport:
    """Pages of the x-adic spectral sequence of a core, or of the extended
    filtration of a medial layer.

    Strict compatibility of the differential with the filtration (checked
    term by term) certifies collapse at the first page; the report then
    lists E_1 = E_inf on the window t <= t_report.  E_1 is additionally
    compared against the Betti numbers of the fixed fiber at eps = 1.
    """
    from .kummer import Core, Medial

    if which == "core":
        core: Core = obj
        if not core.closed:
            raise ValueError(
                "the differential leaves the core (negative x-exponents); "
                "its x-adic spectral sequence is undefined"
            )
        field = core.field
        basis = {s: core.basis(s) for s in range(core.bundle.top_degree + 1)
                 if core.basis(s)}
        homogeneous = core.homogeneity_witness() is None
        e1 = finite_betti(field, basis, core.gr_diff())
        entries: dict[int, dict] = {1: {}}
        for s, b in e1.items():
            for t in range(0, t_report + 1):
                entries[1][(s, t, 0)] = b
        if homogeneous:
            ranks = {1: {}}
            report = PageReport(entries, ranks, 1, t_report, 1,
                                notes={"certified_by": "strict x-adic compatibility"})
        else:
            report = _windowed_pages(core, t_report)
            report.notes["e1_window"] = t_report
        # E_1 columns must reproduce the smooth-fiber cohomology
        fiber = _fixed_fiber_betti(core.bundle, core.conn)
        report.notes["e1_matches_smooth_fiber"] = fiber == e1
        report.notes["smooth_fiber_betti"] = fiber
        return report

    if which == "medial":
        med: Medial = obj
        field = med.field
        if not med.weight_preserving():
            raise ValueError(
                "medial filtration is not preserved by d for this connection"
            )
        entries = {1: {}}
        lo = med.min_filtration()
        for t in range(lo, t_report + 1):
            gr = med.gr_basis(t)
            if not gr:
                continue
            basis = {s: pairs for s, pairs in gr.items()}
            diff = {}
            for s, pairs in basis.items():
                for (m, w) in pairs:
                    row = {}
                    for tgt, c, xpow in med.d_pairs(m):
                        row[(tgt, w + xpow)] = c
                    diff[(m, w)] = row
            for s, b in finite_betti(field, basis, diff).items():
                entries[1][(s, t, 0)] = b
        return PageReport(entries, {1: {}}, 1, t_report, 1,
                          notes={"certified_by": "weight grading"})

    raise ValueError(f"unknown monodromy spectral sequence {which!r}")


def _fixed_fiber_betti(bundle, conn) -> dict[int, int]:
    """Betti numbers of the fixed subcomplex of the fiber at eps = 1."""
    from .ravenel import Complex, DgaDescriptor

    desc = DgaDescriptor(bundle.n, bundle.p, bundle.field,
                         bundle.field.one, bundle.descriptor.lie, "custom")
    fixed = Complex(desc, member=conn.is_fixed)
    table = betti(fixed)
    return table.totals_by_degree()


def _windowed_pages(core, t_report: int) -> PageReport:
    """Truncated x-weight model for a closed but inhomogeneous core: exact
    for t <= t_report since differentials only raise the weight."""
    field = core.field
    max_e = max((e for trs in (core.d_triples(m) for s in
                               range(core.bundle.top_degree + 1)
                               for m in core.basis(s)) for (_t, _c, e) in trs),
                default=0)
    span = t_report + max_e + 1
    basis_by_degree: dict[int, list] = {}
    diff: dict = {}
    for s in range(core.bundle.top_degree + 1):
        labels = []
        for m in core.basis(s):
            for w in range(span + 1):
                labels.append((m, w))
        if labels:
            basis_by_degree[s] = labels
    for s, labels in basis_by_degree.items():
        for (m, w) in labels:
            row = {}
            for tgt, c, e in core.d_triples(m):
                if w + e <= span:
                    add_term(row, (tgt, w + e), c)
            diff[(m, w)] = row

    class _Window:
        top_degree = core.bundle.top_degree
        descriptor = core.bundle.descriptor

        def blocks(self, s):
            return {0: basis_by_degree.get(s, [])}

        def d_monomial(self, lbl):
            return diff.get(lbl, {})

    win = _Window()
    win.field = field
    fc = FilteredComplex(win, lambda lbl: lbl[1], name="x-adic window")
    report = run_pages(fc, r_max=t_report + 1)
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
