"""Command-line orchestration.

Subcommands: typed solve | typed families | hp0 brute | hp0 aminus |
counts ... | strata ... | series burgers | compare hp0-hh0 | cache ...

Outputs are deterministic (byte-identical for identical configurations and
cache states).  Exit codes: 0 success, 2 flag/validation errors (including a
--prime that is not a prime below 2^31, --workers below 1, a negative
--max-degree or --max-columns, and --n given with --n-max), 3 resource
guardrail exceeded (partial result is still printed), 4 cache corruption, 5
a kernel that could not be certified over Q or an internal check
(AssertionError) that failed, with one line on stderr.  --workers N runs on
a process pool whose workers read, re-verify and write the cache exactly as
a serial run does.  Only typed-solver payloads are cached; `cache verify`
re-verifies each of them as a load does.  `hp0 brute` accepts --cache-dir
but recomputes its table on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from itertools import repeat

from ptl.cache import CacheCorruption, ResultCache, code_version, ENV_CACHE_DIR
from ptl.engine import BracketSpanProblem, GuardrailExceeded, check_aminus_identity, hp0_graded_dims
from ptl.linalg import DEFAULT_PRIME, PRIME_LIMIT, is_prime
from ptl.partitions import (
    bn_hilbert,
    multipartition_count,
    p_count,
    p_prime_count,
    prime_bound,
)
from ptl.poly import parse_polynomial
from ptl.context import svar_context
from ptl.series import TruncatedEvenSeries
from ptl.solver import (
    KernelCertificationError,
    display_table,
    family_generators,
    kernel_basis,
    recertifies,
)
from ptl.strata import leaves_kleinian, leaves_symmetric_power, leaves_type_d
from ptl.tables import GradedDimensionTable
from ptl.weyl import GroupSpec, hh0_dimension

SCHEMA_ID = "ptl-output/1"
FIGURE_HEADER = (
    "$n$ & $h(\\mathsf{HP}_0(\\mathcal{O}_{{\\Bbb C}^{2n}}^{D_n});"
    "t^{\\frac{1}{4}})$ \\\\[4 pt] \\hline"
)


def _emit_json(doc: dict) -> str:
    doc = dict(doc)
    doc["schema"] = SCHEMA_ID
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def _table_lines(pairs, header=("key", "value")) -> str:
    width = max([len(str(k)) for k, _ in pairs] + [len(header[0])]) if pairs else len(header[0])
    lines = [f"{header[0]:>{width}}  {header[1]}"]
    for k, v in pairs:
        lines.append(f"{str(k):>{width}}  {v}")
    return "\n".join(lines) + "\n"


def _csv_lines(rows) -> str:
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _cache_from_args(args) -> ResultCache:
    if getattr(args, "no_cache", False):
        return ResultCache(None)
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(ENV_CACHE_DIR)
    return ResultCache(cache_dir)


# -- typed solve ---------------------------------------------------------------

def _display_fields(dual_weights: dict) -> dict:
    display = display_table(GradedDimensionTable(
        {int(w): dim for w, dim in dual_weights.items()}))
    return {"display_series": display.series(),
            "display_series_latex": display.series(latex=True)}


def _verify_solve(n: int, weight, prime: int, payload) -> bool:
    """Re-verification hook of a typed-solver record: its vector counts and
    display series, then the solver's component certificate run again."""
    ctx = svar_context(n)
    try:
        vectors = [parse_polynomial(text, ctx) for text in payload["vectors"]]
    except Exception:
        return False
    counts: dict[str, int] = {}
    for v in vectors:
        weights = {ctx.weight_of(e) for e in v.terms}
        if len(weights) != 1:
            return False
        w = str(weights.pop())
        counts[w] = counts.get(w, 0) + 1
    if counts != payload.get("dual_weights"):
        return False
    if any(payload.get(k) != text for k, text in _display_fields(counts).items()):
        return False
    return recertifies(n, weight, vectors, prime)


def _record_verifier(key: dict):
    """The re-verification hook of a cache record, built from its key (None:
    the checksum is all there is to check)."""
    if key.get("module") != "typed-solver":
        return None
    n, weight, prime = key.get("n"), key.get("weight"), key.get("prime")
    valid = (type(n) is int and n >= 1 and type(weight) in (int, type(None))
             and type(prime) is int and 2 <= prime < PRIME_LIMIT and is_prime(prime))
    return partial(_verify_solve, n, weight, prime) if valid else (lambda payload: False)


def _solve_payload(n: int, weight, prime: int, cache: ResultCache) -> dict:
    key = {"module": "typed-solver", "family": "D", "n": n,
           "weight": weight, "prime": prime, "code": code_version()}
    cached = cache.get(key, verify=_record_verifier(key))
    if cached is not None:
        return cached
    sb = kernel_basis(n, weight, prime=prime)
    dual_weights = {str(w): dim for w, dim in sb.weight_dims.items()}
    payload = {
        "family": "D",
        "n": n,
        "dual_weights": dual_weights,
        **_display_fields(dual_weights),
        "vectors": [v.text() for v in sb.vectors],
    }
    cache.put(key, payload)
    return payload


def _solve_doc(payload: dict) -> dict:
    return {
        "kind": "typed-solve",
        "family": payload["family"],
        "n": payload["n"],
        "dual_weights": payload["dual_weights"],
        "display_series": payload["display_series"],
    }


def cmd_typed_solve(args) -> int:
    cache = _cache_from_args(args)
    prime = args.prime
    ns = [args.n] if args.n is not None else list(range(2, args.n_max + 1))
    pool = None
    if args.workers > 1 and len(ns) > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=args.workers)
    with pool or nullcontext():
        payloads = list((pool.map if pool else map)(
            _solve_payload, ns, repeat(args.weight), repeat(prime), repeat(cache)))
    if args.format == "json":
        doc = (_solve_doc(payloads[0]) if args.n is not None else
               {"kind": "typed-solve-sweep", "results": [_solve_doc(p) for p in payloads]})
        sys.stdout.write(_emit_json(doc))
    elif args.format == "latex":
        sys.stdout.write("\\begin{tabular}{c|c}\n" + FIGURE_HEADER + "\n")
        for p in payloads:
            sys.stdout.write(f"${p['n']}$ & ${p['display_series_latex']}$ \\\\\n")
        sys.stdout.write("\\end{tabular}\n")
    elif args.format == "csv":
        sys.stdout.write(_csv_lines([("n", "display_series")] +
                                    [(p["n"], p["display_series"]) for p in payloads]))
    else:
        sys.stdout.write(_table_lines(
            [(p["n"], p["display_series"]) for p in payloads], ("n", "series in t^(1/4)")))
    return 0


def cmd_typed_families(args) -> int:
    gens = family_generators(args.n)
    texts = [g.text() for g in gens]
    if args.format == "json":
        sys.stdout.write(_emit_json({"kind": "typed-families", "n": args.n,
                                     "generators": texts}))
    elif args.format == "csv":
        sys.stdout.write(_csv_lines([("generator",)] + [(t,) for t in texts]))
    else:
        sys.stdout.write("\n".join(texts) + "\n")
    return 0


# -- hp0 ------------------------------------------------------------------------

def cmd_hp0_brute(args) -> int:
    # Tables are recomputed on every run: a cached table would carry no
    # certificate that a load could re-check.  --cache-dir is accepted and
    # ignored.
    problem = BracketSpanProblem(GroupSpec(args.group, args.n), args.subgroup)
    exit_code = 0
    try:
        table = hp0_graded_dims(problem, args.max_degree, prime=args.prime,
                                certify=args.certify, max_columns=args.max_columns,
                                generator_mode=args.generator_mode,
                                workers=args.workers)
    except GuardrailExceeded as exc:
        table = exc.table
        sys.stderr.write(f"guardrail: {exc}; partial table follows\n")
        exit_code = 3
    _write_hp0_table(table.to_json_dict(), args.format)
    return exit_code


def _write_hp0_table(payload: dict, fmt: str):
    if fmt == "json":
        doc = dict(payload)
        doc["kind"] = "hp0-table"
        sys.stdout.write(_emit_json(doc))
        return
    dims = payload["dims"]
    if fmt == "csv":
        rows = [("degree", "dim")] + [(d, dims.get(str(d), 0))
                                      for d in range(payload["max_degree"] + 1)]
        sys.stdout.write(_csv_lines(rows))
        return
    if fmt == "latex":
        table = GradedDimensionTable({int(k): v for k, v in dims.items()})
        if table.entries and all(k % 4 == 0 for k in table.entries):
            # the figures' convention: series in t^(1/4) of the degree
            table = table.reindexed(lambda d: d // 4)
        sys.stdout.write(f"${payload['group']}_{{{payload['n']}}}$ & "
                         f"${table.series(latex=True)}$ \\\\\n")
        return
    pairs = [(d, dims.get(str(d), 0)) for d in range(payload["max_degree"] + 1)]
    note = " (truncated)" if payload.get("truncated") else ""
    sys.stdout.write(f"# HP0 dims for {payload['group']}(n={payload['n']})"
                     f" through degree {payload['max_degree']}{note}\n")
    sys.stdout.write(_table_lines(pairs, ("degree", "dim")))


def cmd_hp0_aminus(args) -> int:
    report = check_aminus_identity(args.n, args.max_degree, prime=args.prime)
    if args.format == "json":
        sys.stdout.write(_emit_json({
            "kind": "aminus-report", "n": args.n, "max_degree": args.max_degree,
            "report": {str(k): v for k, v in sorted(report.items())}}))
    elif args.format == "csv":
        sys.stdout.write(_csv_lines([("degree", "status")] + sorted(report.items())))
    else:
        sys.stdout.write(_table_lines(sorted(report.items()), ("degree", "status")))
    return 0 if all(v == "pass" for v in report.values()) else 1


# -- counts ----------------------------------------------------------------------

def _emit_count(args, statistic: str, value: int, params: dict) -> int:
    if args.format == "json":
        doc = {"kind": "count", "statistic": statistic, "value": value}
        doc.update(params)
        sys.stdout.write(_emit_json(doc))
    elif args.format == "csv":
        sys.stdout.write(_csv_lines([tuple(params.values()) + (value,)]))
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def cmd_counts(args) -> int:
    if args.statistic == "multipartitions":
        return _emit_count(args, "multipartitions",
                           multipartition_count(args.n, args.i),
                           {"n": args.n, "i": args.i})
    if args.statistic == "p":
        return _emit_count(args, "p", p_count(args.n, args.i),
                           {"n": args.n, "i": args.i})
    if args.statistic == "p-prime":
        return _emit_count(args, "p-prime",
                           p_prime_count(args.n, args.i,
                                         multipartition_reading=args.multipartition_reading),
                           {"n": args.n, "i": args.i,
                            "multipartition_reading": args.multipartition_reading})
    if args.statistic == "hh0":
        return _emit_count(args, "hh0", hh0_dimension(args.family, args.n),
                           {"family": args.family, "n": args.n})
    if args.statistic == "prime-bound":
        d = tuple(int(x) for x in args.d.split(",")) if args.d else None
        return _emit_count(args, "prime-bound",
                           prime_bound(args.family, args.n, args.i, d),
                           {"family": args.family, "n": args.n, "i": args.i})
    if args.statistic == "bn-hilbert":
        table = bn_hilbert(args.n)
        if args.format == "json":
            sys.stdout.write(_emit_json({
                "kind": "count-table", "statistic": "bn-hilbert", "n": args.n,
                "dims": {str(k): v for k, v in table.items()},
                "series": table.series()}))
        elif args.format == "csv":
            sys.stdout.write(_csv_lines([("exponent", "dim")] + list(table.items())))
        elif args.format == "latex":
            sys.stdout.write(f"${args.n}$ & ${table.series(latex=True)}$ \\\\\n")
        else:
            sys.stdout.write(table.series() + "\n")
        return 0
    raise AssertionError(args.statistic)


# -- strata ------------------------------------------------------------------------

def _emit_strata(args, variety: str, leaves) -> int:
    if args.format == "json":
        sys.stdout.write(_emit_json({
            "kind": "strata", "variety": variety,
            "leaves": [leaf.to_json_dict() for leaf in leaves]}))
    elif args.format == "csv":
        rows = [("label", "r", "partition", "codim_units", "codim_absolute", "multiplicity")]
        rows += [(l.label, l.point_part, " ".join(map(str, l.partition)),
                  l.codim_units, l.codim_absolute, l.multiplicity) for l in leaves]
        sys.stdout.write(_csv_lines(rows))
    else:
        pairs = [(l.label, f"codim {l.codim_absolute} (units {l.codim_units}), "
                  f"mult {l.multiplicity}") for l in leaves]
        sys.stdout.write(_table_lines(pairs, ("leaf", "data")))
    return 0


def cmd_strata(args) -> int:
    if args.variety == "symmetric-power":
        return _emit_strata(args, "symmetric-power",
                            leaves_symmetric_power(args.n, args.dim_y))
    if args.variety == "kleinian":
        return _emit_strata(args, "kleinian", leaves_kleinian(args.n, args.m))
    if args.variety == "type-d":
        if args.d:
            d = tuple(int(x) for x in args.d.split(","))
        else:
            cache = _cache_from_args(args)
            d = tuple([1] + [
                sum(_solve_payload(r, None, DEFAULT_PRIME, cache)["dual_weights"].values())
                for r in range(1, args.n + 1)])
        return _emit_strata(args, "type-d", leaves_type_d(args.n, d))
    raise AssertionError(args.variety)


# -- series burgers ------------------------------------------------------------------

def cmd_series_burgers(args) -> int:
    from ptl.burgers import burgers_residual, burgers_residual_of, closed_form_witness
    if args.h0:
        coeffs = [Fraction(c) for c in args.h0.split(",")]
        residual = burgers_residual(TruncatedEvenSeries(coeffs), args.order,
                                    x0=Fraction(args.x0))
        mode = "h0"
    else:
        u = closed_form_witness(args.order, x0=Fraction(args.x0))
        residual = burgers_residual_of(u).truncate(args.order)
        mode = "closed-form"
    zero = residual.is_zero()
    if args.format == "json":
        sys.stdout.write(_emit_json({
            "kind": "burgers", "mode": mode, "order": args.order,
            "residual_zero": zero,
            "residual_terms": len(residual.terms)}))
    else:
        sys.stdout.write("residual = 0\n" if zero else
                         f"residual != 0 ({len(residual.terms)} terms)\n")
    return 0 if zero else 1


# -- compare ---------------------------------------------------------------------------

def cmd_compare_hp0_hh0(args) -> int:
    if args.family != "D":
        raise SystemExit2("only --family D is implemented")
    cache = _cache_from_args(args)
    rows = []
    first_strict = None
    for n in range(2, args.n_max + 1):
        payload = _solve_payload(n, None, args.prime, cache)
        trace_dim = sum(payload["dual_weights"].values())
        hh0 = hh0_dimension("typeD", n)
        relation = "equal" if trace_dim == hh0 else "greater"
        if relation != "equal" and first_strict is None:
            first_strict = n
        rows.append({"n": n, "trace_dim": trace_dim, "hh0_dim": hh0,
                     "relation": relation})
    verdict = "equal" if first_strict is None else f"proper-from-n={first_strict}"
    if args.format == "json":
        sys.stdout.write(_emit_json({"kind": "compare-hp0-hh0", "family": "D",
                                     "rows": rows, "verdict": verdict}))
    elif args.format == "csv":
        out = [("n", "trace_dim", "hh0_dim", "relation")]
        out += [(r["n"], r["trace_dim"], r["hh0_dim"], r["relation"]) for r in rows]
        sys.stdout.write(_csv_lines(out))
    else:
        pairs = [(r["n"], f"trace {r['trace_dim']}  hh0 {r['hh0_dim']}  {r['relation']}")
                 for r in rows]
        sys.stdout.write(_table_lines(pairs, ("n", "comparison")))
        sys.stdout.write(f"verdict: {verdict}\n")
    return 0


# -- cache ------------------------------------------------------------------------------

def cmd_cache(args) -> int:
    cache = _cache_from_args(args)
    if args.action == "info":
        n, done = len(cache.entries()), ""
    elif args.action == "verify":
        n, done = cache.verify_all(_record_verifier), " verified"
    else:
        n, done = cache.clear(), " removed"
    if args.format == "json":
        sys.stdout.write(_emit_json({"kind": "cache-info", "entries": n}))
    else:
        sys.stdout.write(f"{n} cache entries{done}\n")
    return 0


# -- parser -------------------------------------------------------------------------------

class SystemExit2(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(2)


def _word_prime(text: str) -> int:
    """--prime: a prime below 2^31, so that the mod-p echelon's int64
    products cannot overflow."""
    p = int(text)
    if not 2 <= p < PRIME_LIMIT or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text} is not a prime below 2^31")
    return p


def _at_least(minimum: int):
    """An integer option type that rejects values below `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below {minimum}")
        return value
    return integer


def _add_common(p, *, cacheable: bool = False, prime: bool = False):
    p.add_argument("--format", choices=("table", "csv", "json", "latex"),
                   default="table")
    if cacheable:
        p.add_argument("--cache-dir", default=None,
                       help=f"result cache directory (or ${ENV_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true")
    if prime:
        p.add_argument("--prime", type=_word_prime, default=DEFAULT_PRIME,
                       help="prime below 2^31 for the modular fast path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptl",
        description="Exact Poisson-trace computations for Weyl group quotients")
    sub = parser.add_subparsers(dest="command", required=True)

    typed = sub.add_parser("typed", help="typed constraint solver")
    tsub = typed.add_subparsers(dest="subcommand", required=True)
    solve = tsub.add_parser("solve")
    which = solve.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, default=None)
    which.add_argument("--n-max", type=int, default=None)
    solve.add_argument("--weight", type=int, default=None)
    solve.add_argument("--workers", type=_at_least(1), default=1)
    _add_common(solve, cacheable=True, prime=True)
    solve.set_defaults(func=cmd_typed_solve)
    fam = tsub.add_parser("families")
    fam.add_argument("--n", type=int, required=True)
    _add_common(fam)
    fam.set_defaults(func=cmd_typed_families)

    hp0 = sub.add_parser("hp0", help="brute-force bracket spans")
    hsub = hp0.add_subparsers(dest="subcommand", required=True)
    brute = hsub.add_parser("brute")
    brute.add_argument("--group", required=True,
                       choices=("symmetric-full", "symmetric-reflection",
                                "hyperoctahedral", "demihyperoctahedral"))
    brute.add_argument("--n", type=int, required=True)
    brute.add_argument("--max-degree", type=_at_least(0), required=True)
    brute.add_argument("--subgroup", default="full",
                       choices=("full", "last-point-stabilizer", "ambient"))
    brute.add_argument("--certify", choices=("fast", "always"), default="fast")
    brute.add_argument("--max-columns", type=_at_least(0), default=None)
    brute.add_argument("--workers", type=_at_least(1), default=1)
    brute.add_argument("--generator-mode", action="store_true")
    _add_common(brute, cacheable=True, prime=True)
    brute.set_defaults(func=cmd_hp0_brute)
    aminus = hsub.add_parser("aminus")
    aminus.add_argument("--n", type=int, required=True)
    aminus.add_argument("--max-degree", type=_at_least(0), required=True)
    _add_common(aminus, prime=True)
    aminus.set_defaults(func=cmd_hp0_aminus)

    counts = sub.add_parser("counts", help="partition statistics")
    csub = counts.add_subparsers(dest="statistic", required=True)
    for name in ("multipartitions", "p", "p-prime"):
        c = csub.add_parser(name)
        c.add_argument("--n", type=int, required=True)
        c.add_argument("--i", type=int, required=True)
        if name == "p-prime":
            c.add_argument("--multipartition-reading", action="store_true")
        _add_common(c)
        c.set_defaults(func=cmd_counts, statistic=name)
    bn = csub.add_parser("bn-hilbert")
    bn.add_argument("--n", type=int, required=True)
    _add_common(bn)
    bn.set_defaults(func=cmd_counts, statistic="bn-hilbert")
    pb = csub.add_parser("prime-bound")
    pb.add_argument("--family", required=True, choices=("typeA-sym", "typeA-quot", "typeD"))
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--i", type=int, required=True)
    pb.add_argument("--d", default=None, help="comma-separated d_0..d_i for typeD")
    _add_common(pb)
    pb.set_defaults(func=cmd_counts, statistic="prime-bound")
    hh = csub.add_parser("hh0")
    hh.add_argument("--family", required=True, choices=("typeA", "typeB", "typeD"))
    hh.add_argument("--n", type=int, required=True)
    _add_common(hh)
    hh.set_defaults(func=cmd_counts, statistic="hh0")

    strata = sub.add_parser("strata", help="symplectic leaf bookkeeping")
    ssub = strata.add_subparsers(dest="variety", required=True)
    sp = ssub.add_parser("symmetric-power")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dim-y", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_strata, variety="symmetric-power")
    kl = ssub.add_parser("kleinian")
    kl.add_argument("--n", type=int, required=True)
    kl.add_argument("--m", type=int, required=True)
    _add_common(kl)
    kl.set_defaults(func=cmd_strata, variety="kleinian")
    td = ssub.add_parser("type-d")
    td.add_argument("--n", type=int, required=True)
    td.add_argument("--d", default=None, help="comma-separated d_0..d_n (default: solver)")
    _add_common(td, cacheable=True)
    td.set_defaults(func=cmd_strata, variety="type-d")

    series = sub.add_parser("series", help="series verification aids")
    sesub = series.add_subparsers(dest="subcommand", required=True)
    bu = sesub.add_parser("burgers")
    bu.add_argument("--order", type=int, default=6)
    bu.add_argument("--closed-form", action="store_true", help="(default mode)")
    bu.add_argument("--h0", default=None,
                    help="comma-separated coefficients of x^0, x^2, x^4, ...")
    bu.add_argument("--x0", default="1")
    _add_common(bu)
    bu.set_defaults(func=cmd_series_burgers)

    compare = sub.add_parser("compare", help="cross-checks")
    cosub = compare.add_subparsers(dest="subcommand", required=True)
    ch = cosub.add_parser("hp0-hh0")
    ch.add_argument("--family", default="D")
    ch.add_argument("--n-max", type=int, required=True)
    _add_common(ch, cacheable=True, prime=True)
    ch.set_defaults(func=cmd_compare_hp0_hh0)

    cachep = sub.add_parser("cache", help="result cache maintenance")
    cachep.add_argument("action", choices=("info", "clear", "verify"))
    _add_common(cachep, cacheable=True)
    cachep.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CacheCorruption as exc:
        sys.stderr.write(f"cache corruption: {exc}\n")
        return 4
    except KernelCertificationError as exc:
        sys.stderr.write(f"certification failed: {exc}\n")
        return 5
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 5
    except SystemExit2 as exc:
        return int(exc.code)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
