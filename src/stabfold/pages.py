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

``run_pages`` expands no differential itself: it reads the
``homology.block_matrix`` rows of each block it pairs, one per source, once,
and checks on the entries the pairing reads that d never lowers the
filtration.

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

On the first-subscript filtration, which ``filter_first_subscript``
certifies ``symmetric``, only one block per σ-orbit of classes below the
middle degree is paired and ranked, as ``homology.block_ranks`` eliminates
one, and the rest are copied.  Two arguments carry the copies.  σ permutes
the generators keeping their first subscripts, so on each orbit it is a
signed permutation of the monomials that keeps their filtration and
commutes with d: a filtered isomorphism between the blocks of the orbit,
under which the pairs do not change (Zomorodian-Carlsson).  Above the
middle, Poincaré duality makes d on the (s, u) block the signed transpose
of d on the dual (N - 1 - s, -u) block under m -> ~m, and as the
filtration adds over generators, fil(~m) = F - fil(m) for the filtration F
of the top monomial: transposing with the filtration reversed maps each
pair (a, b) of the dual block to the pair (F - b, F - a), of the same
length (de Silva-Morozov-Vejdemo-Johansson).  Each copy is made only once
the filtrations it rests on are checked on the block.  A filtration without
the certificate, and every ``FiniteComplex`` window, pairs every block.

The monodromy spectral sequences read one ``kummer.FixedLayer``, whose
terms carry the exponent e = k + alpha(b') - alpha(b): ``core_pages`` gives
the x-adic pages of the core (E_1 from the e = 0 part, windowed pages when
some e > 0), and ``medial_pages`` the weight pieces of the medial
filtration, which need e = 0 on every term.
"""

from __future__ import annotations

from collections import Counter

from .exterior import add_term, format_monomial, sigma_power
from .homology import (FiniteComplex, betti, betti_numbers, block_matrix, complement_class,
                       insert_row, matrix_rank)
from .ravenel import Complex, DgaDescriptor, grading_tables, subcomplex


class FilteredComplex:
    """A complex and a filtration of its basis, mask -> int.  ``symmetric``
    certifies that σ keeps the filtration of each generator and that the
    filtration is a sum over the generators of a monomial, so ``run_pages``
    may copy pairs along σ-orbits and from Poincaré-dual blocks; only
    ``filter_first_subscript`` sets it."""

    def __init__(self, cx, fil, symmetric: bool = False):
        self.cx = cx
        self.fil = fil
        self.symmetric = symmetric


def filter_first_subscript(ce_gl) -> FilteredComplex:
    """The decreasing filtration by the integer sum of first subscripts.

    Its associated graded differential (the filtration-preserving part) is
    the eps = 0 fiber's, with identical structure constants, on every
    monomial.  Certificate, checked on the pair table of ``ce_gl``: each
    eps-free term keeps the first-subscript sum of its generator and each eps
    term raises it by exactly n.  The sum is additive, so on any monomial the
    eps-free terms of d keep its filtration, the eps terms raise it by n, and
    no target receives both kinds.

    The filtration is read off the per-half sums of ``ravenel.grading_tables``,
    a sum over generators by construction; the result is ``symmetric`` once σ
    is seen to keep the filtration of each generator.
    """
    n = ce_gl.n
    g = grading_tables(n, ce_gl.p)
    low = (1 << g.half) - 1
    fil = lambda mask: g.fsum_lo[mask & low] + g.fsum_hi[mask >> g.half]
    for gslot, terms in ce_gl.pairs.items():
        for pmask, _sign, e in terms:
            if fil(pmask) != fil(1 << gslot) + e * n:
                raise AssertionError(
                    "associated graded differs from the singular fiber at "
                    + format_monomial(1 << gslot, n)
                )
    sigma = sigma_power(n, 1)
    symmetric = all(fil(sigma(1 << b)[1]) == fil(1 << b) for b in range(n * n))
    return FilteredComplex(ce_gl, fil, symmetric)


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
    certifies the collapse page.  The filtration is read once per monomial.
    A block is paired once: its sources, inserted deepest first, against its
    targets, indexed from the shallowest, and every page and rank is counted
    off the pair lengths.  When the listed range reaches E-infinity, its
    totals per (s, u) are cross-checked against Betti numbers from the rank
    of each block, its own echelon apart from the pairing.  When
    ``cx.dd_zero``, the pairing skips the sources paired as targets one
    degree down (the twist), and the echelon those of its own pivots one
    degree down (``homology``'s clearing); d is expanded only on the sources
    one of the two reads.

    When ``fc.symmetric``, only the lead of each σ-orbit of classes below
    the middle, 2 s <= N - 1 for the top degree N, is paired and ranked, and
    the twist and the clearing go by lead.  Each other block of the orbit is
    the lead's under σ, a filtered signed-permutation isomorphism, and takes
    its pairs (a, b) and rank once its source and target filtrations are
    seen to be the lead's as multisets.  Above the middle, d on the (s, u)
    block is the signed transpose of d on the dual (N - 1 - s, v) block,
    v = ``cx.dual_class(u)``, with the filtration reversed: fil(~m) =
    F - fil(m) for the filtration F of the top monomial, so a dual pair
    (a, b) becomes (F - b, F - a).  ``homology.complement_class`` and
    fil(~m) = F - fil(m) are checked on the block first, and on its target
    block as a source one degree up.
    """
    cx = fc.cx
    field, top = cx.field, cx.top_degree
    fils = {(s, u): [fc.fil(m) for m in monos]
            for s in range(top + 1) for u, monos in cx.blocks(s).items()}
    span = (max(map(max, fils.values()), default=0)
            - min(map(min, fils.values()), default=0))
    r_stop = span + 1 if r_max is None else min(r_max, span + 1)
    r_stop = max(r_stop, 1)
    to_infinity = r_stop >= span + 1

    page = Counter((s, a, u) for (s, u), src_fil in fils.items() for a in src_fil)
    # per block, its pairs (a, b): a source at (s, a) paired with a target
    # at (s + 1, b); and its rank, for the E-infinity check
    pairs: dict[tuple[int, int], list] = {}
    block_rank: dict[tuple[int, int], int] = {}
    # per lead block, when d∘d = 0: the targets it paired, skipped as sources
    # one degree up (the twist), and the pivots of its E-infinity echelon
    paired: dict[tuple[int, int], set] = {}
    pivots: dict[tuple[int, int], set] = {}
    top_fil = fc.fil((1 << top) - 1) if fc.symmetric else None

    def shape(s, u):
        return [sorted(fils.get((t, u), ())) for t in (s, s + 1)]

    for s in range(top + 1):
        orbits = cx.block_orbits(s) if fc.symmetric else [[u] for u in cx.blocks(s)]
        for orbit in orbits:
            lead = orbit[0]
            if fc.symmetric and 2 * s > top - 1 and cx.dual_class(lead) is not None:
                for u in orbit:
                    v = complement_class(cx, s, u)
                    if [top_fil - a for a in fils[(s, u)]] != fils[(top - s, v)][::-1]:
                        raise AssertionError(
                            f"the filtration of block {(s, u)} is not the top "
                            f"monomial's minus that of the complements")
                    dual = (top - 1 - s, v)
                    pairs[(s, u)] = [(top_fil - b, top_fil - a) for a, b in pairs.get(dual, ())]
                    block_rank[(s, u)] = block_rank.get(dual, 0)
                continue
            src_fil, tgt_fil = fils[(s, lead)], fils.get((s + 1, lead), [])
            twist = paired.pop((s - 1, lead), set())
            cleared = pivots.pop((s - 1, lead), set())
            rows, width = block_matrix(cx, s, lead, skip=twist & cleared)
            if to_infinity:
                found = pivots.setdefault((s, lead), set()) if cx.dd_zero else None
                block_rank[(s, lead)] = matrix_rank(
                    [row for j, row in enumerate(rows) if j not in cleared], width, field,
                    found)
            # targets from the shallowest, ties by index: the least column of
            # a row is its shallowest target
            order = sorted(range(len(tgt_fil)), key=lambda i: (tgt_fil[i], i))
            column = {i: k for k, i in enumerate(order)}
            ech, hit, found_pairs = {}, set(), []
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
                    found_pairs.append((src_fil[j], tgt_fil[i]))
            if cx.dd_zero:
                paired[(s, lead)] = hit
            pairs[(s, lead)] = found_pairs
            for u in orbit[1:]:
                if shape(s, u) != shape(s, lead):
                    raise AssertionError(
                        f"block {(s, u)} and the block {(s, lead)} whose pairs it "
                        "takes differ in their filtrations")
                pairs[(s, u)] = found_pairs
                block_rank[(s, u)] = block_rank.get((s, lead), 0)

    # E_r has lost both ends of each pair shorter than r; d_r is the pairs of
    # length exactly r, counted at their sources
    by_length: dict[int, list] = {}
    for (s, u), block_pairs in pairs.items():
        for a, b in block_pairs:
            by_length.setdefault(b - a, []).append((s, a, b, u))
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
        expected = betti_numbers({k: len(v) for k, v in fils.items()}, block_rank)
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
