"""Per-layer tracing of stabfold from outside the package.

``Tracer.install()`` replaces the layer-boundary functions of an imported
``stabfold`` with wrappers that record one span per call (name, start, end,
parent span) and the counters named in ``PER_LAYER``.  Nothing under ``src/``
changes: module-level functions are rebound in every ``stabfold`` module that
imported them, methods are replaced on their class.  ``Field.mul``,
``Field.inv`` and ``Complex.contains`` run up to millions of times per
operation, so they are counted but get no span.

A span's self time is its duration minus the durations of its child spans.
The time the wrappers spend computing counters is charged to no span.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

# name -> unit of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = {
    "homology.matrix_rank.self_s": "s",
    "homology.matrix_rank.calls": "count",
    "homology.matrix_rank.cols": "count",
    "homology.matrix_rank.nnz": "count",
    "homology.matrix_rank.rank": "count",
    "homology.matrix_rank.max_cols": "count",
    "homology.rref.self_s": "s",
    "homology.rref.calls": "count",
    "homology.rref.fill": "ratio",
    "homology.reduce_against.self_s": "s",
    "homology.reduce_against.calls": "count",
    "homology.nullspace.self_s": "s",
    "homology.BlockCohomology.self_s": "s",
    "homology.BlockCohomology.calls": "count",
    "homology.exterior_ring_check.self_s": "s",
    "homology.block_matrix.self_s": "s",
    "homology.block_matrix.nnz": "count",
    "homology.betti.self_s": "s",
    "ravenel.basis.self_s": "s",
    "ravenel.basis.monomials": "count",
    "ravenel.basis.tested": "count",
    "ravenel.basis.keep_ratio": "ratio",
    "ravenel.blocks.self_s": "s",
    "ravenel.blocks.count": "count",
    "ravenel.d_monomial.self_s": "s",
    "ravenel.d_monomial.calls": "count",
    "ravenel.d_monomial.terms": "count",
    "ravenel.subcomplex.self_s": "s",
    "ravenel.build_gl.self_s": "s",
    "retract.critical_model.self_s": "s",
    "retract.kernel_masks.self_s": "s",
    "retract.kernel_masks.kernel_size": "count",
    "retract.lambda_h_pair.self_s": "s",
    "retract.laplacian.self_s": "s",
    "pages.run_pages.self_s": "s",
    "pages.run_pages.rank_calls": "count",
    "pages.filter_first_subscript.self_s": "s",
    "exterior.Cochain.wedge.self_s": "s",
    "exterior.Cochain.wedge.calls": "count",
    "gf.field_create.self_s": "s",
    "gf.mul.calls": "count",
    "gf.inv.calls": "count",
    "cli.cmd_betti.self_s": "s",
    # filled in by run.py from the operations' wall times
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name index, start ns, end ns, parent span)
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[int]] = []  # [span, child ns, name index] per open span
        self._hot = {"gf.mul.calls": [0], "gf.inv.calls": [0]}
        self._scan = [0, 0]  # subcomplex members tested / kept by Complex.basis
        self._seen_bases = weakref.WeakKeyDictionary()
        self._seen_blocks = weakref.WeakKeyDictionary()

    # -- wrappers -----------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(args, result) updates counters."""
        idx = len(self.names)
        self.names.append(name)
        self.self_ns[name] = 0
        self.calls[name] = 0
        stack, spans, self_ns, calls = self._stack, self.spans, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0, idx]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (idx, start, end, parent)
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                t = clock()
                observe(args, result)
                if stack:  # counter bookkeeping is no part of the parent's self time
                    stack[-1][1] += clock() - t
            return result

        return traced

    def count(self, key: str, fn):
        box = self._hot[key]

        def counted(*args):
            box[0] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Wrap the layer boundaries of the already imported stabfold."""
        from stabfold import cli, exterior, gf, homology, pages, ravenel, retract

        functions = [
            (homology, "matrix_rank", self._on_rank),
            (homology, "rref", self._on_rref),
            (homology, "reduce_against", None),
            (homology, "nullspace", None),
            (homology, "exterior_ring_check", None),
            (homology, "block_matrix", self._on_block_matrix),
            (homology, "betti", None),
            (ravenel, "subcomplex", None),
            (ravenel, "build_gl", None),
            (retract, "critical_model", None),
            (retract, "kernel_masks", self._on_kernel),
            (retract, "lambda_h_pair", None),
            (retract, "laplacian", None),
            (pages, "run_pages", None),
            (pages, "filter_first_subscript", None),
            (gf, "field_create", None),
            (cli, "cmd_betti", None),
        ]
        modules = [m for k, m in sys.modules.items()
                   if k == "stabfold" or k.startswith("stabfold.")]
        for module, attr, observe in functions:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self.span(name, original, observe)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
        methods = [
            (ravenel.Complex, "basis", "ravenel.basis", self._on_basis),
            (ravenel.Complex, "blocks", "ravenel.blocks", self._on_blocks),
            (ravenel.Complex, "d_monomial", "ravenel.d_monomial", self._on_d_monomial),
            (exterior.Cochain, "wedge", "exterior.Cochain.wedge", None),
            (homology.BlockCohomology, "__init__", "homology.BlockCohomology", None),
        ]
        for cls, attr, name, observe in methods:
            setattr(cls, attr, self.span(name, getattr(cls, attr), observe))
        gf.Field.mul = self.count("gf.mul.calls", gf.Field.mul)
        gf.Field.inv = self.count("gf.inv.calls", gf.Field.inv)
        ravenel.Complex.contains = self.count_scan(ravenel.Complex.contains)
        self._run_pages = self.names.index("pages.run_pages")

    def count_scan(self, contains):
        """Count the subsets Complex.basis tests for membership in a
        subcomplex, and how many of them it keeps."""
        stack, scan = self._stack, self._scan
        basis = self.names.index("ravenel.basis")

        def counted(cx, mask):
            kept = contains(cx, mask)
            if stack and stack[-1][2] == basis and cx.descriptor.label != "full":
                scan[0] += 1
                scan[1] += bool(kept)
            return kept

        return counted

    # -- counters -------------------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _on_rank(self, args, rank):
        rows, ncols = args[0], args[1]
        self._add("homology.matrix_rank.cols", ncols)
        self._add("homology.matrix_rank.nnz", _nnz(rows))
        self._add("homology.matrix_rank.rank", rank)
        key = "homology.matrix_rank.max_cols"
        self.counts[key] = max(self.counts.get(key, 0), ncols)
        if any(frame[2] == self._run_pages for frame in self._stack):
            self._add("pages.run_pages.rank_calls", 1)

    def _on_rref(self, args, result):
        self._add("rref.nnz_in", _nnz(args[0]))
        self._add("rref.nnz_out", _nnz(result[0]))

    def _on_block_matrix(self, args, result):
        self._add("homology.block_matrix.nnz", _nnz(result[0]))

    def _on_basis(self, args, result):
        # Complex.basis caches per degree: count the first call per (complex, s)
        cx, s = args[0], args[1]
        seen = self._seen_bases.setdefault(cx, set())
        if s not in seen and 0 <= s <= cx.top_degree:
            seen.add(s)
            self._add("ravenel.basis.monomials", len(result))

    def _on_blocks(self, args, result):
        cx, s = args[0], args[1]
        seen = self._seen_blocks.setdefault(cx, set())
        if s not in seen:
            seen.add(s)
            self._add("ravenel.blocks.count", len(result))

    def _on_d_monomial(self, args, result):
        self._add("ravenel.d_monomial.terms", len(result))

    def _on_kernel(self, args, result):
        self._add("retract.kernel_masks.kernel_size", len(result))

    # -- output -----------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER except the trace.* ones."""
        out = dict(self.counts)
        for name in self.names:
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.calls"] = self.calls[name]
        nnz_in = self.counts.get("rref.nnz_in", 0)
        out["homology.rref.fill"] = self.counts.get("rref.nnz_out", 0) / nnz_in if nnz_in else 0.0
        # 1.0 when no subcomplex basis was found by testing every subset
        tested, kept = self._scan
        out["ravenel.basis.tested"] = tested
        out["ravenel.basis.keep_ratio"] = kept / tested if tested else 1.0
        for key, box in self._hot.items():
            out[key] = box[0]
        return {k: out.get(k, 0) for k in PER_LAYER if not k.startswith("trace.")}

    def write(self, path: str) -> None:
        """All spans as [name, start_us, end_us, parent] relative to the first."""
        t0 = min((s[1] for s in self.spans), default=0)
        spans = [[self.names[i], (a - t0) / 1e3, (b - t0) / 1e3, parent]
                 for i, a, b, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))
