"""Command-line interface: dimension tables, Betti computations with a local
cache, the paper's claims, worked presentations, and spectral sequence
reports.

`verify NAME` looks NAME up in ``claims.CLAIMS`` and prints its checks. The
claims live in ``claims``, with ``UsageError``, the refusal that ``main``
turns into exit status 2; so does a ``gf.FieldError``, such as a field above
2^16 elements.  A ``ravenel.ClosureError``, a subcomplex failing its closure
certificate, fails the claim that built it, with exit status 1.  A cache
directory that cannot be written is a ``UsageError`` too, and a reader that
closes stdout early ends the run with exit status 1 and no traceback.

Every run prints a provenance header (tool version plus a hash of the
canonical config) and produces deterministic output: all iteration orders are
sorted before emission.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__ as VERSION
from .claims import (
    CLAIMS,
    UsageError,
    _check,
    _require_enumerable,
    dims_match,
    load_fixtures,
    primes_above,
)
from .exterior import MAX_N, Cochain, format_monomial, parse_monomial
from .gf import FieldError, field_create, is_prime
from .homology import Cohomology, betti, matrix_rank
from .kummer import FixedLayer, KummerConnection, core_homogeneity
from .pages import core_pages, critical_block, filter_first_subscript, medial_pages, run_pages
from .ravenel import (ClosureError, build_deformed, build_gl, build_singular, dims_by_class,
                      subcomplex)

SCHEMA_VERSION = 1

# total-basis-size gate: larger jobs need --slow
_SLOW_GATE = 20000


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- cache ---------------------------------------------------------------------------


def cache_root(args) -> Path:
    if args.cache_dir:
        return Path(args.cache_dir)
    return Path(os.environ.get("STABFOLD_CACHE", ".stabfold-cache"))


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 of the package's source files and fixtures: a cached result is
    only trusted when the code that wrote it is the code reading it."""
    pkg = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")) + [pkg / "data" / "fixtures.json"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_get(root: Path, key: str, cfg: dict) -> dict | None:
    """The entry stored under key, or None unless it was written for this
    config by this code."""
    path = root / f"{key}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if (data.get("schema_version") != SCHEMA_VERSION
            or data.get("config") != cfg
            or data.get("fingerprint") != code_fingerprint()):
        return None
    return data


def cache_put(root: Path, key: str, payload: dict) -> None:
    try:
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / f".{key}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, root / f"{key}.json")
    except OSError as exc:
        raise UsageError(f"cannot write the cache directory {str(root)!r}: "
                         f"{exc.strerror or exc}")


# -- output helpers --------------------------------------------------------------------


def emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=1, default=str))
    elif args.format == "csv":
        sys.stdout.write(payload["csv"])
    else:
        print(f"# stabfold {VERSION}  config={payload.get('config_hash', '')}")
        for line in text_lines:
            print(line)


def format_cochain(z: Cochain, cx) -> str:
    return " + ".join(f"({z.terms[m].v})*{format_monomial(m, cx.n)}"
                      for m in sorted(z.terms)) or "0"


# -- complexes from config ---------------------------------------------------------------


def build_complex(lie: str, label: str, n: int, p: int, ext: int = 1, epsilon=0):
    field = field_create(p, ext)
    if lie == "gl":
        cx = build_gl(n, field, p)
    elif lie == "ravenel":
        cx = build_deformed(n, p, field, epsilon)
    else:
        raise ValueError(f"unknown Lie model {lie!r}")
    if label != "full":
        cx = subcomplex(cx, {"cc": "critical"}.get(label, label))
    return cx


def basis_size(label: str, n: int, p: int) -> int:
    """Basis size of a configured complex, in closed form: no enumeration."""
    if label == "full":
        return 1 << (n * n)
    cc, fsc, _ = dims_by_class(n, p)
    return cc if label == "cc" else fsc


# -- dims ---------------------------------------------------------------------------------


def cmd_dims(args) -> int:
    fixtures = load_fixtures()
    cfg = {"cmd": "dims", "n_max": args.n_max, "p": args.p}
    rows = []
    ok = True
    for n in range(1, args.n_max + 1):
        p = args.p or primes_above(2 * n * n, 1)[0]
        cc, fsc, full = dims_by_class(n, p)
        row = {
            "n": n, "p": p, "cc": cc, "fsc": fsc, "full": full,
            "cc_q": cc >> n, "fsc_q": fsc >> n, "full_q": full >> n,
        }
        if args.p is None:
            row["matches_expected"] = dims_match(n, [cc, fsc, full], fixtures)
            ok = ok and row["matches_expected"]
        rows.append(row)
    csv_lines = ["n,p,cc,fsc,full,cc_q,fsc_q,full_q"]
    text = [f"{'n':>2} {'cc':>9} {'fsc':>9} {'full':>10}   {'cc/2^n':>7} {'fsc/2^n':>8} {'full/2^n':>9}"]
    for r in rows:
        csv_lines.append(
            f"{r['n']},{r['p']},{r['cc']},{r['fsc']},{r['full']},{r['cc_q']},{r['fsc_q']},{r['full_q']}"
        )
        suffix = "" if r.get("matches_expected", True) else "   MISMATCH"
        text.append(
            f"{r['n']:>2} {r['cc']:>9} {r['fsc']:>9} {r['full']:>10}   "
            f"{r['cc_q']:>7} {r['fsc_q']:>8} {r['full_q']:>9}{suffix}"
        )
    payload = {
        "config_hash": config_hash(cfg), "version": VERSION, "rows": rows,
        "csv": "\n".join(csv_lines) + "\n", "ok": ok,
    }
    emit(args, payload, text)
    return 0 if ok else 1


# -- betti ----------------------------------------------------------------------------------


def cmd_betti(args) -> int:
    if args.lie == "gl" and args.epsilon is not None:
        raise UsageError("betti --lie gl builds gl_n, which has no deformation "
                         "parameter; it takes no --epsilon")
    epsilon = "0" if args.epsilon is None else args.epsilon
    if epsilon == "x":
        raise UsageError("cohomology over F[x] is not computed directly; evaluate "
                         "a fiber (--epsilon k) or use the pages/monodromy commands")
    cfg = {
        "cmd": "betti", "lie": args.lie, "complex": args.complex, "n": args.n,
        "p": args.p, "ext": args.ext, "epsilon": epsilon,
        "schema_version": SCHEMA_VERSION,
    }
    key = config_hash(cfg)
    root = cache_root(args)
    cached = None if args.no_cache else cache_get(root, key, cfg)
    if cached is not None:
        rows = cached["rows"]
    else:
        size = basis_size(args.complex, args.n, args.p)
        if size > _SLOW_GATE and not args.slow:
            raise UsageError(f"refusing: {size} basis monomials exceeds the "
                             "default work cap; rerun with --slow to allow it")
        cx = build_complex(args.lie, args.complex, args.n, args.p, args.ext,
                           int(epsilon))
        table = betti(cx)
        rows = table.to_json_rows()
        if not args.no_cache:
            cache_put(root, key, {"schema_version": SCHEMA_VERSION,
                                  "config": cfg, "fingerprint": code_fingerprint(),
                                  "rows": rows})
    totals: dict[int, int] = {}
    for r in rows:
        totals[r["s"]] = totals.get(r["s"], 0) + r["dim"]
    payload = {
        "config_hash": key, "version": VERSION, "rows": rows,
        "totals_by_degree": {str(s): t for s, t in sorted(totals.items())},
        "grand_total": sum(totals.values()),
        "csv": "s,u,dim\n" + "\n".join(f"{r['s']},{r['u']},{r['dim']}" for r in rows) + "\n",
    }
    text = [f"betti of {args.lie}/{args.complex} n={args.n} p={args.p} "
            f"ext={args.ext} eps={epsilon}"]
    for s, t in sorted(totals.items()):
        text.append(f"  H^{s}: {t}")
    text.append(f"  total: {sum(totals.values())}")
    emit(args, payload, text)
    return 0


# -- verify ----------------------------------------------------------------------------------


def cmd_verify(args) -> int:
    claim = CLAIMS.get(args.suite)
    if claim is None:
        raise UsageError(f"unknown suite {args.suite!r}; available: "
                         f"{', '.join(sorted(CLAIMS))}")
    if claim.fixed and (args.n is not None or args.p is not None):
        raise UsageError(f"verify {args.suite} runs fixed heights and primes; "
                         "it takes no --n or --p")
    cfg = {"cmd": "verify", "suite": args.suite, "n": args.n, "p": args.p}
    try:
        checks = claim.run(args.n, args.p)
    except ClosureError as exc:
        checks = [_check("the claim's subcomplexes are closed under d", False, str(exc))]
    ok = all(c["ok"] for c in checks)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               "suite": args.suite, "checks": checks, "ok": ok}
    text = []
    for c in checks:
        mark = "PASS" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        text.append(f"[{mark}] {c['name']}{detail}")
    text.append(f"suite {args.suite}: {'all checks passed' if ok else 'FAILURES'}")
    emit(args, payload, text)
    return 0 if ok else 1


# -- presentations -----------------------------------------------------------------------------


def _named_cochains(cx, gen_defs: dict) -> dict[str, Cochain]:
    out = {}
    for name, terms in gen_defs.items():
        z = Cochain(cx.n, {})
        for coeff, mono in terms:
            sign, mask = parse_monomial(mono, cx.n)
            z = z + Cochain(cx.n, {mask: cx.field.scalar(coeff * sign)})
        out[name] = z
    return out


def _eval_product(named: dict, prod: str) -> Cochain:
    parts = prod.split("*")
    z = named[parts[0]]
    for name in parts[1:]:
        z = z.wedge(named[name])
    return z


def _eval_expr(named: dict, terms: list, cx, x: int = 0) -> Cochain:
    """The fixture sum of c x^k * product terms, with x set to the integer x:
    x = 0 on the singular fiber."""
    total = Cochain(cx.n, {})
    for coeff, xpow, prod in terms:
        if xpow > 1:
            raise ValueError("fixture x-powers above 1 need more fibers than x = 0, 1")
        c = cx.field.scalar(coeff * x ** xpow)
        z = _eval_product(named, prod)
        total = total + Cochain(cx.n, {m: cc * c for m, cc in z.terms.items()})
    return total


def cmd_presentations(args) -> int:
    n = args.n
    if n not in (1, 2, 3):
        raise UsageError("presentations are computed for heights 1-3")
    fixtures = load_fixtures()["presentations"][str(n)]
    cfg = {"cmd": "presentations", "n": n, "p": args.p}
    checks = []
    text = [fixtures["note"]]

    if n == 3:
        # The identities hold in F_p[x].  Both sides of each are polynomials
        # in x of degree at most 1 (the generators are constant, d raises the
        # x-degree by at most 1, and every fixture term has x-power at most
        # 1), so they hold exactly when they hold at the fibers x = 0 and 1.
        p = args.p or 19
        fibers = {x: build_deformed(3, p, field_create(p), x) for x in (0, 1)}
        cx = fibers[0]
        named = _named_cochains(cx, fixtures["generators"])
        text.append("generators:")
        for name in sorted(named):
            text.append(f"  {name} = {format_cochain(named[name], cx)}")
        text.append("differentials (engine-computed):")
        for name, expected_terms in fixtures["differentials"].items():
            wrong = []
            for x, fiber in fibers.items():
                got = fiber.d_cochain(named[name])
                if got != _eval_expr(named, expected_terms, fiber, x):
                    wrong.append(f"x={x}: {format_cochain(got, fiber)}")
            ok = not wrong
            checks.append(_check(f"d({name}) matches the stated formula", ok,
                                 "; ".join(wrong)))
            rhs = " + ".join(
                (f"({c})*x^{e}*{prod}" if e else f"({c})*{prod}")
                for c, e, prod in expected_terms) or "0"
            text.append(f"  d({name}) = {rhs}  [{'ok' if ok else 'MISMATCH'}]")
        text.append("relations (cochain level):")
        for rel in fixtures["relations"]:
            ok = not any(_eval_expr(named, rel, cx, x) for x in fibers)
            desc = " + ".join(prod for _c, _e, prod in rel)
            checks.append(_check(f"relation {desc} = 0", ok))
            text.append(f"  {desc} = 0  [{'ok' if ok else 'MISMATCH'}]")

    elif n == 2:
        p = args.p or 11
        field = field_create(p)
        cx = build_singular(2, p, field)
        coh = Cohomology(cx)
        named = _named_cochains(cx, fixtures["generators"])
        text.append("generators:")
        for name in sorted(named):
            text.append(f"  {name} = {format_cochain(named[name], cx)}")
        for name in fixtures["cocycles"]:
            ok = not cx.d_cochain(named[name])
            checks.append(_check(f"{name} is a cocycle", ok))
        table = betti(cx)
        totals = {str(s): t for s, t in table.totals_by_degree().items()}
        ok = totals == fixtures["degree_totals"]
        checks.append(_check("cohomology dimensions per degree", ok, f"{totals}"))
        text.append(f"H* dimensions by degree: {totals}")
        text.append("relations in cohomology:")
        for rel in fixtures["cohomology_zero"]:
            z = _eval_expr(named, [[c, 0, prod] for c, prod in
                                   [(t[0], t[1]) for t in rel]], cx)
            red = coh.reduce_cocycle(z)
            desc = " + ".join(f"{c}*{prod}" if c != 1 else prod for c, prod in rel)
            checks.append(_check(f"[{desc}] = 0 in cohomology", not red))
            text.append(f"  {desc} = 0  [{'ok' if not red else 'MISMATCH'}]")
        for prod in fixtures["cohomology_nonzero"]:
            z = _eval_product(named, prod)
            red = coh.reduce_cocycle(z)
            checks.append(_check(f"[{prod}] is nonzero in cohomology", bool(red)))
        for group in fixtures["independent_sets"]:
            vecs = []
            index: dict = {}
            for prod in group:
                red = coh.reduce_cocycle(_eval_product(named, prod))
                vec = {}
                for ref, c in red.items():
                    vec[index.setdefault(ref, len(index))] = field.coding.encode(c)
                vecs.append(vec)
            checks.append(_check(
                f"classes {{{', '.join(group)}}} are linearly independent",
                matrix_rank(vecs, len(index), field) == len(group)))

    else:
        p = args.p or 3
        cx = build_singular(1, p, field_create(p))
        named = _named_cochains(cx, fixtures["generators"])
        ok = not cx.d_cochain(named["h11"])
        checks.append(_check("the single generator is a cocycle", ok))
        table = betti(cx)
        checks.append(_check(
            "cohomology is exterior on one degree-1 class",
            table.totals_by_degree() == {0: 1, 1: 1}))
        text.append("H*(height 1) = exterior algebra on [h[1,1]]")

    ok = all(c["ok"] for c in checks)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               "n": n, "checks": checks, "ok": ok}
    for c in checks:
        text.append(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}")
    emit(args, payload, text)
    return 0 if ok else 1


# -- pages / monodromy ---------------------------------------------------------------------------


def cmd_pages(args) -> int:
    n, p = args.n, args.p
    _require_enumerable(n, "pages")
    cfg = {"cmd": "pages", "n": n, "p": p, "block": args.block, "r_max": args.r_max}
    field = field_create(p)
    gl = build_gl(n, field, p)
    fc = filter_first_subscript(gl)
    if args.block == "critical":
        fc = critical_block(fc)
    report = run_pages(fc, r_max=args.r_max)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               **report.to_json()}
    text = [f"first-subscript spectral sequence of gl_{n}(F_{p}), "
            f"{args.block} block(s)"]
    text.append(f"filtration span {report.span}; collapse page: "
                f"{report.collapse_page}")
    nz = report.nonzero_differentials()
    text.append(f"nonzero differentials: {len(nz)}")
    for (r, s, t, u, v) in nz[:10]:
        text.append(f"  d_{r} at (s={s}, t={t}, u={u}) has rank {v}")
    einf = report.e_infinity_totals()
    text.append("E_infinity totals per (s, u): "
                + ", ".join(f"({s},{u})={v}" for (s, u), v in sorted(einf.items())))
    emit(args, payload, text)
    return 0


def _custom_connection(n: int, params: str | None) -> KummerConnection:
    """The connection of a --params file: {"params": [{"i", "j", "num",
    "den"}, ...]}, one entry per generator."""
    if params is None:
        raise UsageError("--flavor custom needs --params FILE")
    try:
        spec = json.loads(Path(params).read_text())
        return KummerConnection.custom(n, {
            (e["i"], e["j"]): Fraction(e["num"], e["den"]) for e in spec["params"]
        })
    except OSError as exc:
        raise UsageError(f"cannot read params file {params!r}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed params file {params!r}: "
                         f"{type(exc).__name__}: {exc}")


def cmd_monodromy(args) -> int:
    n, p = args.n, args.p
    _require_enumerable(n, "monodromy")
    cfg = {"cmd": "monodromy", "n": n, "p": p, "flavor": args.flavor,
           "which": args.which}
    if args.params is not None and args.flavor != "custom":
        raise UsageError(f"--params needs --flavor custom, not --flavor {args.flavor}")
    field = field_create(p, args.ext)
    if args.flavor == "sigma":
        conn = KummerConnection.sigma(n)
    elif args.flavor == "semilinear":
        conn = KummerConnection.semilinear(n, p)
    else:
        conn = _custom_connection(n, args.params)
    text = [f"connection flavor {conn.flavor}, common denominator {conn.denominator}"]
    payload: dict = {"config_hash": config_hash(cfg), "version": VERSION,
                     "connection": conn.to_json()}
    try:
        layer = FixedLayer(conn, field)
    except ValueError as exc:
        raise UsageError(f"monodromy: {exc}")
    hom = core_homogeneity(layer)
    if args.which == "medial":
        try:
            report = medial_pages(layer, t_report=args.t_report)
        except ValueError as exc:
            w = hom["witness"]
            raise UsageError(
                f"monodromy --which medial: {exc}" + ("" if w is None else
                f"; first term off weight: d({w['source']}) -> {w['target']}, "
                f"step {w['x_exponent']}"))
        payload.update(report.to_json())
        text.append(f"medial layer: {len(layer.alpha)} generators, "
                    f"min filtration {min(layer.alpha.values())}")
    else:
        payload["closed"] = layer.closed
        payload["homogeneous"] = hom["holds"]
        if not hom["holds"]:
            payload["witness"] = hom["witness"]
            text.append(f"core homogeneity fails: {hom['witness']}")
        else:
            text.append("core is homogeneous (differential preserves x-valuation)")
        if layer.closed:
            report = core_pages(layer, t_report=args.t_report)
            payload.update(report.to_json())
            text.append(f"x-adic spectral sequence collapse page: "
                        f"{report.collapse_page}")
            text.append(f"E_1 matches the smooth-fiber cohomology: "
                        f"{report.notes.get('e1_matches_smooth_fiber')}")
        else:
            payload["closure_failures"] = [
                {"source": format_monomial(m, n), "target": format_monomial(t, n),
                 "x_exponent": e}
                for m, t, e in layer.closure_failures[:8]
            ]
            text.append("differential leaves the core; its spectral sequence "
                        "is undefined (this is a finding about the connection)")
    emit(args, payload, text)
    return 0


# -- argument parsing -------------------------------------------------------------------------------


def _integer(text: str, what: str, lo: int, hi: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f"{lo}..{hi}" if hi is not None else f"at least {lo}"
        raise argparse.ArgumentTypeError(f"{what} must be {bounds}, got {value}")
    return value


def _height(text: str) -> int:
    return _integer(text, "n", 1, MAX_N)


def _prime(text: str) -> int:
    p = _integer(text, "p", 2, (1 << 64) - 1)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime, got {p}")
    return p


def _positive(text: str) -> int:
    return _integer(text, "value", 1)


def _epsilon(text: str) -> str:
    # kept as given: the string is part of the config hash
    if text != "x":
        try:
            int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"epsilon must be an integer or x, got {text!r}")
    return text


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabfold",
        description="Exact cohomology of the deformed exterior DGA family "
                    "over finite fields, with verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"stabfold {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *csv):
        p.add_argument("--format", choices=["text", "json", *csv], default="text")

    p_dims = sub.add_parser("dims", help="dimension tables for n = 1..n-max")
    p_dims.add_argument("--n-max", type=lambda t: _integer(t, "n-max", 1, MAX_N),
                        default=5)
    p_dims.add_argument("--p", type=_prime, default=None,
                        help="grading prime (default: smallest prime > 2n^2 per row)")
    common(p_dims, "csv")
    p_dims.set_defaults(fn=cmd_dims)

    p_betti = sub.add_parser("betti", help="Betti table of a configured complex")
    p_betti.add_argument("--lie", choices=["ravenel", "gl"], required=True)
    p_betti.add_argument("--complex", choices=["full", "cc", "fsc"],
                         dest="complex", default="full")
    p_betti.add_argument("--n", type=_height, required=True)
    p_betti.add_argument("--p", type=_prime, required=True)
    p_betti.add_argument("--ext", type=_positive, default=1)
    p_betti.add_argument("--epsilon", type=_epsilon, default=None,
                         help="deformation parameter: an integer (default 0), "
                         "or x (ravenel only)")
    p_betti.add_argument("--slow", action="store_true",
                         help="allow jobs above the default size gate")
    p_betti.add_argument("--no-cache", action="store_true")
    p_betti.add_argument("--cache-dir", default=None)
    common(p_betti, "csv")
    p_betti.set_defaults(fn=cmd_betti)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(sorted(CLAIMS))}")
    p_verify.add_argument("--n", type=_height, default=None)
    p_verify.add_argument("--p", type=_prime, default=None)
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_pres = sub.add_parser("presentations",
                            help="worked generator/relation tables, heights 1-3")
    p_pres.add_argument("--n", type=_height, required=True)
    p_pres.add_argument("--p", type=_prime, default=None)
    common(p_pres)
    p_pres.set_defaults(fn=cmd_presentations)

    p_pages = sub.add_parser("pages", help="first-subscript spectral sequence")
    p_pages.add_argument("--n", type=_height, required=True)
    p_pages.add_argument("--p", type=_prime, required=True)
    p_pages.add_argument("--block", choices=["critical", "full"], default="critical")
    p_pages.add_argument("--r-max", type=lambda t: _integer(t, "r-max", 1),
                         default=None)
    common(p_pages)
    p_pages.set_defaults(fn=cmd_pages)

    p_mono = sub.add_parser("monodromy",
                            help="core/medial structure of a connection")
    p_mono.add_argument("--n", type=_height, required=True)
    p_mono.add_argument("--p", type=_prime, required=True)
    p_mono.add_argument("--ext", type=_positive, default=1)
    p_mono.add_argument("--flavor", choices=["sigma", "semilinear", "custom"],
                        default="sigma")
    p_mono.add_argument("--params", default=None,
                        help="JSON file with custom connection parameters "
                        "(with --flavor custom)")
    p_mono.add_argument("--which", choices=["core", "medial"], default="core")
    p_mono.add_argument("--t-report", type=lambda t: _integer(t, "t-report", 0),
                        default=3)
    common(p_mono)
    p_mono.set_defaults(fn=cmd_monodromy)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, FieldError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; with stdout on the null device the
        # interpreter's final flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
