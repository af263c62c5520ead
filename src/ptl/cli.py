"""Command-line orchestration.

Subcommands: typed solve | typed families | hp0 brute | hp0 aminus |
counts ... | strata ... | series burgers | compare hp0-hh0 | cache ...

Outputs are deterministic (byte-identical for identical configurations and
cache states).  Exit codes: 0 success, 2 flag/validation errors (including a
--format that the command does not print, a --prime that is not a prime
below 2^31, --workers below 1, --n-max or a strata type-d --n below 2, a
series --order below 1, a negative --max-degree or --max-columns, a
negative --n or --i of a partition count, --n given with --n-max, a --d
other than non-negative d_0..d_n for strata type-d or d_0..d_i for a typeD
prime bound, and a --cache-dir or $PTL_CACHE_DIR that cannot be made a
directory), 3 resource guardrail exceeded (the degrees computed before it
are still printed, with a truncation marker), 4 cache corruption, 5 an
internal check (AssertionError) that failed, a certificate that does not
hold among them, with one line on stderr.
--workers N (typed solve, hp0 brute) runs the command's tasks through one
map (`_worker_map`): in process for N = 1, else on a multiprocessing pool
whose workers read, re-verify and write the cache exactly as a serial run
does, and which leaving terminates.  Only typed-solver payloads are
cached: the certified vectors of the reduced (s1-free) kernel basis, each
in its primitive integer form over its component's s1-free columns
(`_solve_dims`), from which a load, like a cold run, counts the
dimensions; `cache verify` re-verifies each record as a load does.
`hp0 brute` accepts --cache-dir but recomputes its table on every run.

`series burgers` prints whether the Burgers residual below --order
vanishes, computed in exact series arithmetic (`ptl.burgers`), and exits 1
if it does not.

Each command builds its output in every form it prints: one JSON document,
its CSV rows (header first) and its text, a table or, for `typed solve`,
`hp0 brute` and `counts bn-hilbert`, latex.  It hands them to `_write`, the
one writer to stdout, which prints the form that --format names.

A command builds only its own branch of the parser (`build_parser`): the
top level names every command with its help, and only the command that
runs gets its sub-commands and options; help and exit-2 messages read as
they would with the whole parser built.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial

# Each command imports the modules of its own route when it runs, so that
# `import ptl.cli` and one command load only what that command needs: only
# a cache loads `ptl.cache`, JSON `json`, a --prime `ptl.linalg`.

ENV_CACHE_DIR = "PTL_CACHE_DIR"

ALL_FORMATS = ("table", "csv", "json", "latex")

SCHEMA_ID = "ptl-output/1"
FIGURE_HEADER = (
    "$n$ & $h(\\mathsf{HP}_0(\\mathcal{O}_{{\\Bbb C}^{2n}}^{D_n});"
    "t^{\\frac{1}{4}})$ \\\\[4 pt] \\hline"
)


def _emit_json(doc: dict) -> str:
    import json
    return json.dumps({**doc, "schema": SCHEMA_ID}, sort_keys=True, separators=(", ", ": ")) + "\n"


def _write(fmt: str, doc: dict, rows=(), text: str = "") -> None:
    """The one writer to stdout: a command's JSON document `doc` for json,
    its CSV `rows` (header first) for csv, and its `text`, a table or latex,
    for any other format."""
    if fmt == "json":
        text = _emit_json(doc)
    elif fmt == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    sys.stdout.write(text)


def _table_lines(pairs, header) -> str:
    """`pairs` under `header`, one per line, keys right-aligned."""
    width = max(len(str(k)) for k, _ in [header, *pairs])
    return "".join(f"{str(k):>{width}}  {v}\n" for k, v in [header, *pairs])


def _cache_from_args(args) -> ResultCache:
    from ptl.cache import ResultCache
    if getattr(args, "no_cache", False):
        return ResultCache(None)
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(ENV_CACHE_DIR)
    try:
        return ResultCache(cache_dir)
    except OSError as exc:
        raise SystemExit2(f"unusable cache directory {cache_dir}: {exc.strerror}") from None


@contextmanager
def _worker_map(workers: int):
    """The map that runs a command's tasks, results in task order: the
    builtin `map` for one worker, else the `imap` of a pool of `workers`
    processes.  Leaving the pool terminates its workers, so an error or a
    guardrail hit does not wait for the tasks still running."""
    if workers == 1:
        yield map
        return
    from multiprocessing import Pool
    with Pool(workers) as pool:
        yield pool.imap


# -- typed solve ---------------------------------------------------------------

def _decoded(payload) -> dict | None:
    """The vectors of a typed-solver payload by dual weight, if it is
    exactly of the form `_solve_dims` writes: {"vectors": [[dual weight,
    [column, entry, ...]], ...]}, ints only, at least one column, columns
    ascending from 0, every entry nonzero; None otherwise."""
    vectors = payload.get("vectors") if isinstance(payload, dict) and len(payload) == 1 else None
    if type(vectors) is not list:
        return None
    columns: dict[int, list[dict]] = {}
    for item in vectors:
        if type(item) is not list or len(item) != 2 or type(item[1]) is not list:
            return None
        (w, flat), cols, entries = item, item[1][::2], item[1][1::2]
        if not (flat and len(cols) == len(entries) and all(type(x) is int for x in [w, *flat])
                and cols[0] >= 0 and all(a < b for a, b in zip(cols, cols[1:]))
                and all(entries)):
            return None
        columns.setdefault(w, []).append(dict(zip(cols, entries)))
    return columns


def _verify_solve(n: int, weight, prime: int, payload) -> bool:
    """Re-verification hook of a typed-solver record: its vectors decoded
    (`_decoded`), then the solver's component certificate run again with
    them as candidates, which must give them back exactly."""
    from ptl.solver import recertifies
    columns = _decoded(payload)
    return columns is not None and recertifies(n, weight, columns, prime)


def _record_verifier(key: dict):
    """The re-verification hook of a cache record, built from its key (None:
    the checksum is all there is to check)."""
    if key.get("module") != "typed-solver":
        return None
    from ptl.linalg import PRIME_LIMIT, is_prime
    n, weight, prime = key.get("n"), key.get("weight"), key.get("prime")
    valid = (type(n) is int and n >= 1 and type(weight) in (int, type(None))
             and type(prime) is int and 2 <= prime < PRIME_LIMIT and is_prime(prime))
    return partial(_verify_solve, n, weight, prime) if valid else (lambda payload: False)


def _solve_dims(n: int, weight, prime: int, cache: ResultCache) -> GradedDimensionTable:
    """The kernel's dimensions of degree n per dual weight, counted from its
    certified vectors: those of the cache record once they re-verify, else
    those of `kernel_basis`, which are then cached as integers, each vector
    as [dual weight, [column, entry, ...]], columns ascending."""
    from ptl.cache import code_version
    from ptl.solver import kernel_basis, kernel_dims
    key = {"module": "typed-solver", "family": "D", "n": n,
           "weight": weight, "prime": prime, "code": code_version()}
    cached = cache.get(key, verify=_record_verifier(key))
    if cached is not None:
        return kernel_dims(n, weight, _decoded(cached))
    sb = kernel_basis(n, weight, prime=prime)
    cache.put(key, {"vectors": [[w, [y for c, x in sorted(vec.items()) for y in (c, x)]]
                                for w, vecs in sb.columns.items() for vec in vecs]})
    return sb.weight_dims


def _solve_doc(dims: GradedDimensionTable, display: GradedDimensionTable) -> dict:
    return {
        "kind": "typed-solve",
        "family": dims.metadata["family"],
        "n": dims.metadata["n"],
        "dual_weights": {str(w): dim for w, dim in dims.items()},
        "display_series": display.series(),
    }


def cmd_typed_solve(args) -> int:
    from ptl.solver import display_table
    cache = _cache_from_args(args)
    ns = [args.n] if args.n is not None else list(range(2, args.n_max + 1))
    task = partial(_solve_dims, weight=args.weight, prime=args.prime, cache=cache)
    with _worker_map(args.workers if len(ns) > 1 else 1) as mapper:
        tables = list(mapper(task, ns))
    displays = [display_table(t) for t in tables]
    docs = [_solve_doc(t, d) for t, d in zip(tables, displays)]
    pairs = [(doc["n"], doc["display_series"]) for doc in docs]
    if args.format == "latex":
        text = "".join(f"${n}$ & ${d.series(latex=True)}$ \\\\\n" for n, d in zip(ns, displays))
        text = "\\begin{tabular}{c|c}\n" + FIGURE_HEADER + "\n" + text + "\\end{tabular}\n"
    else:
        text = _table_lines(pairs, ("n", "series in t^(1/4)"))
    doc = docs[0] if args.n is not None else {"kind": "typed-solve-sweep", "results": docs}
    _write(args.format, doc, [("n", "display_series"), *pairs], text)
    return 0


def cmd_typed_families(args) -> int:
    from ptl.solver import family_generators, polynomial_text
    texts = [polynomial_text(g) for g in family_generators(args.n)]
    _write(args.format, {"kind": "typed-families", "n": args.n, "generators": texts},
           [("generator",)] + [(t,) for t in texts], "\n".join(texts) + "\n")
    return 0


# -- hp0 ------------------------------------------------------------------------

def cmd_hp0_brute(args) -> int:
    # Tables are recomputed on every run: a cached table would carry no
    # certificate that a load could re-check.  --cache-dir is accepted and
    # ignored.
    from ptl.engine import BracketSpanProblem, GuardrailExceeded, hp0_graded_dims
    from ptl.weyl import GroupSpec
    problem = BracketSpanProblem(GroupSpec(args.group, args.n), args.subgroup)
    exit_code = 0
    try:
        with _worker_map(args.workers) as mapper:
            table = hp0_graded_dims(problem, args.max_degree, prime=args.prime,
                                    max_columns=args.max_columns, mapper=mapper)
    except GuardrailExceeded as exc:
        table = exc.table
        sys.stderr.write(f"guardrail: {exc}; partial table follows\n")
        exit_code = 3
    meta = table.metadata
    # a truncated table holds only the degrees below the one that hit the guardrail
    end = meta.get("truncated_at_degree", meta["max_degree"] + 1)
    pairs = [(d, table.entries.get(d, 0)) for d in range(end)]
    doc = {**table.to_json_dict(), "kind": "hp0-table"}
    if args.format == "latex":
        if table.entries and all(k % 4 == 0 for k in table.entries):
            # the figures' convention: series in t^(1/4) of the degree
            table = table.reindexed(lambda d: d // 4)
        text = f"${meta['group']}_{{{meta['n']}}}$ & ${table.series(latex=True)}$ \\\\\n"
        text += f"% truncated at degree {end}\n" if meta["truncated"] else ""
    else:
        note = f" (truncated at degree {end})" if meta["truncated"] else ""
        text = (f"# HP0 dims for {meta['group']}(n={meta['n']})"
                f" through degree {meta['max_degree']}{note}\n"
                + _table_lines(pairs, ("degree", "dim")))
    _write(args.format, doc, [("degree", "dim"), *pairs], text)
    return exit_code


def cmd_hp0_aminus(args) -> int:
    from ptl.engine import check_aminus_identity
    report = check_aminus_identity(args.n, args.max_degree, prime=args.prime)
    pairs = sorted(report.items())
    _write(args.format, {"kind": "aminus-report", "n": args.n, "max_degree": args.max_degree,
                         "report": {str(k): v for k, v in pairs}},
           [("degree", "status"), *pairs], _table_lines(pairs, ("degree", "status")))
    return 0 if all(v == "pass" for v in report.values()) else 1


# -- counts ----------------------------------------------------------------------

def cmd_counts(args) -> int:
    import ptl.partitions as pt
    if args.statistic == "bn-hilbert":
        table = pt.bn_hilbert(args.n)
        text = (f"${args.n}$ & ${table.series(latex=True)}$ \\\\\n" if args.format == "latex"
                else table.series() + "\n")
        _write(args.format, {"kind": "count-table", "statistic": "bn-hilbert", "n": args.n,
                             "dims": {str(k): v for k, v in table.items()},
                             "series": table.series()},
               [("exponent", "dim"), *table.items()], text)
        return 0
    # statistic -> (its function, the options it reads, in order); prime-bound
    # also passes --d
    function, names = {
        "multipartitions": (pt.multipartition_count, ("n", "i")),
        "p": (pt.p_count, ("n", "i")),
        "p-prime": (pt.p_prime_count, ("n", "i")),
        "hh0": (pt.hh0_dimension, ("family", "n")),
        "prime-bound": (pt.prime_bound, ("family", "n", "i")),
    }[args.statistic]
    params = {name: getattr(args, name) for name in names}
    extra = [args.d] if args.statistic == "prime-bound" else []
    value = function(*params.values(), *extra)
    _write(args.format, {"kind": "count", "statistic": args.statistic, "value": value, **params},
           [(*params.values(), value)], f"{value}\n")
    return 0


# -- strata ------------------------------------------------------------------------

def cmd_strata(args) -> int:
    from ptl.strata import leaves_kleinian, leaves_symmetric_power, leaves_type_d
    if args.variety == "symmetric-power":
        leaves = leaves_symmetric_power(args.n, args.dim_y)
    elif args.variety == "kleinian":
        leaves = leaves_kleinian(args.n, args.m)
    else:
        d = args.d
        if not d:
            from ptl.linalg import DEFAULT_PRIME
            cache = _cache_from_args(args)
            d = tuple([1] + [sum(_solve_dims(r, None, DEFAULT_PRIME, cache).entries.values())
                             for r in range(1, args.n + 1)])
        leaves = leaves_type_d(args.n, d)
    rows = [("label", "r", "partition", "codim_units", "codim_absolute", "multiplicity")]
    rows += [(l.label, l.point_part, " ".join(map(str, l.partition)),
              l.codim_units, l.codim_absolute, l.multiplicity) for l in leaves]
    pairs = [(l.label, f"codim {l.codim_absolute} (units {l.codim_units}), "
              f"mult {l.multiplicity}") for l in leaves]
    _write(args.format, {"kind": "strata", "variety": args.variety,
                         "leaves": [leaf.to_json_dict() for leaf in leaves]},
           rows, _table_lines(pairs, ("leaf", "data")))
    return 0


# -- series burgers ------------------------------------------------------------------

def cmd_series_burgers(args) -> int:
    from ptl.burgers import burgers_residual, closed_form_residual
    if args.h0:
        residual = burgers_residual(args.h0, args.order, x0=args.x0)
    else:
        residual = closed_form_residual(args.order, x0=args.x0)
    zero = not residual
    _write(args.format, {"kind": "burgers", "mode": "h0" if args.h0 else "closed-form",
                         "order": args.order, "residual_zero": zero,
                         "residual_terms": len(residual)},
           text="residual = 0\n" if zero else f"residual != 0 ({len(residual)} terms)\n")
    return 0 if zero else 1


# -- compare ---------------------------------------------------------------------------

def cmd_compare_hp0_hh0(args) -> int:
    from ptl.partitions import hh0_dimension
    cache = _cache_from_args(args)
    rows = []
    for n in range(2, args.n_max + 1):
        trace_dim = sum(_solve_dims(n, None, args.prime, cache).entries.values())
        hh0 = hh0_dimension("typeD", n)
        rows.append({"n": n, "trace_dim": trace_dim, "hh0_dim": hh0,
                     "relation": "equal" if trace_dim == hh0 else "greater"})
    first_strict = next((r["n"] for r in rows if r["relation"] != "equal"), None)
    verdict = "equal" if first_strict is None else f"proper-from-n={first_strict}"
    pairs = [(r["n"], f"trace {r['trace_dim']}  hh0 {r['hh0_dim']}  {r['relation']}")
             for r in rows]
    _write(args.format, {"kind": "compare-hp0-hh0", "family": "D", "rows": rows,
                         "verdict": verdict},
           [("n", "trace_dim", "hh0_dim", "relation")] + [tuple(r.values()) for r in rows],
           _table_lines(pairs, ("n", "comparison")) + f"verdict: {verdict}\n")
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
    _write(args.format, {"kind": "cache-info", "action": args.action, "entries": n},
           text=f"{n} cache entries{done}\n")
    return 0


# -- parser -------------------------------------------------------------------------------

class SystemExit2(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(2)


def _word_prime(text: str) -> int:
    """--prime: a prime below 2^31 (`linalg.PRIME_LIMIT`), the range the
    certificate's prime stream is drawn from."""
    from ptl.linalg import PRIME_LIMIT, is_prime
    p = int(text)
    if not 2 <= p < PRIME_LIMIT or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text} is not a prime below 2^31")
    return p


def _rational(text: str):
    """A rational option value such as -3/2 (a zero denominator is rejected)."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _at_least(minimum: int):
    """An integer option type that rejects values below `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below {minimum}")
        return value
    return integer


def _dims(text: str) -> tuple[int, ...]:
    """--d: comma-separated non-negative ints, such as 1,0,1."""
    if not all(x.isdecimal() for x in text.split(",")):
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of non-negative integers")
    return tuple(map(int, text.split(",")))


def _d_mismatch(args) -> str | None:
    """Why --d does not fit the other options, if it does not: `strata
    type-d` takes d_0..d_n and `counts prime-bound --family typeD` d_0..d_i,
    the values each reads; a typeA bound takes none."""
    if getattr(args, "d", None) is None:
        return None
    if args.command == "counts" and args.family != "typeD":
        return f"--d applies to --family typeD only, not {args.family}"
    last = "n" if args.command == "strata" else "i"
    if len(args.d) != getattr(args, last) + 1:
        return f"--d takes d_0..d_{last}, {getattr(args, last) + 1} values, not {len(args.d)}"
    return None


def _add_common(p, formats=("table", "csv", "json"), *, cacheable: bool = False,
                prime: bool = False):
    """--format with the formats the command prints, and the cache and prime
    options when it takes them."""
    p.add_argument("--format", choices=formats, default="table")
    if cacheable:
        p.add_argument("--cache-dir", default=None,
                       help=f"result cache directory (or ${ENV_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true")
    if prime:
        from ptl.linalg import DEFAULT_PRIME
        p.add_argument("--prime", type=_word_prime, default=DEFAULT_PRIME,
                       help="prime below 2^31 for the modular fast path")


def _typed_parser(typed):
    tsub = typed.add_subparsers(dest="subcommand", required=True)
    solve = tsub.add_parser("solve")
    which = solve.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, default=None)
    which.add_argument("--n-max", type=_at_least(2), default=None)
    solve.add_argument("--weight", type=int, default=None)
    solve.add_argument("--workers", type=_at_least(1), default=1)
    _add_common(solve, ALL_FORMATS, cacheable=True, prime=True)
    solve.set_defaults(func=cmd_typed_solve)
    fam = tsub.add_parser("families")
    fam.add_argument("--n", type=int, required=True)
    _add_common(fam)
    fam.set_defaults(func=cmd_typed_families)


def _hp0_parser(hp0):
    hsub = hp0.add_subparsers(dest="subcommand", required=True)
    brute = hsub.add_parser("brute")
    brute.add_argument("--group", required=True, metavar="GROUP", help="one of %(choices)s",
                       choices=("symmetric-full", "symmetric-reflection",
                                "hyperoctahedral", "demihyperoctahedral"))
    brute.add_argument("--n", type=int, required=True)
    brute.add_argument("--max-degree", type=_at_least(0), required=True)
    brute.add_argument("--subgroup", default="full",
                       choices=("full", "last-point-stabilizer", "ambient"))
    brute.add_argument("--max-columns", type=_at_least(0), default=None,
                       help="exit 3 at the first degree whose cell would stream more "
                            "columns than this (only the brackets of weight zero, "
                            "deg_x = deg_y, are streamed)")
    brute.add_argument("--workers", type=_at_least(1), default=1)
    _add_common(brute, ALL_FORMATS, cacheable=True, prime=True)
    brute.set_defaults(func=cmd_hp0_brute)
    aminus = hsub.add_parser("aminus")
    aminus.add_argument("--n", type=int, required=True)
    aminus.add_argument("--max-degree", type=_at_least(0), required=True)
    _add_common(aminus, prime=True)
    aminus.set_defaults(func=cmd_hp0_aminus)


def _counts_parser(counts):
    csub = counts.add_subparsers(dest="statistic", required=True)
    for name in ("multipartitions", "p", "p-prime"):
        c = csub.add_parser(name)
        c.add_argument("--n", type=_at_least(0), required=True)
        c.add_argument("--i", type=_at_least(0), required=True)
        _add_common(c)
        c.set_defaults(func=cmd_counts, statistic=name)
    bn = csub.add_parser("bn-hilbert")
    bn.add_argument("--n", type=int, required=True)
    _add_common(bn, ALL_FORMATS)
    bn.set_defaults(func=cmd_counts, statistic="bn-hilbert")
    pb = csub.add_parser("prime-bound")
    pb.add_argument("--family", required=True, choices=("typeA-sym", "typeA-quot", "typeD"))
    pb.add_argument("--n", type=_at_least(0), required=True)
    pb.add_argument("--i", type=_at_least(0), required=True)
    pb.add_argument("--d", type=_dims, default=None, help="comma-separated d_0..d_i for typeD")
    _add_common(pb)
    pb.set_defaults(func=cmd_counts, statistic="prime-bound")
    hh = csub.add_parser("hh0")
    hh.add_argument("--family", required=True, choices=("typeA", "typeB", "typeD"))
    hh.add_argument("--n", type=int, required=True)
    _add_common(hh)
    hh.set_defaults(func=cmd_counts, statistic="hh0")


def _strata_parser(strata):
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
    td.add_argument("--n", type=_at_least(2), required=True)
    td.add_argument("--d", type=_dims, default=None,
                    help="comma-separated d_0..d_n (default: solver)")
    _add_common(td, cacheable=True)
    td.set_defaults(func=cmd_strata, variety="type-d")


def _series_parser(series):
    bu = series.add_subparsers(dest="subcommand", required=True).add_parser("burgers")
    bu.add_argument("--order", type=_at_least(1), default=6)
    bu.add_argument("--h0", type=lambda text: [_rational(c) for c in text.split(",")],
                    help="comma-separated coefficients of x^0, x^2, x^4, ...")
    bu.add_argument("--x0", type=_rational, default="1")
    _add_common(bu, ("table", "json"))
    bu.set_defaults(func=cmd_series_burgers)


def _compare_parser(compare):
    ch = compare.add_subparsers(dest="subcommand", required=True).add_parser("hp0-hh0")
    ch.add_argument("--n-max", type=_at_least(2), required=True)
    _add_common(ch, cacheable=True, prime=True)
    ch.set_defaults(func=cmd_compare_hp0_hh0)


def _cache_parser(cachep):
    cachep.add_argument("action", choices=("info", "clear", "verify"))
    _add_common(cachep, ("table", "json"), cacheable=True)
    cachep.set_defaults(func=cmd_cache)


# command -> (its help, the builder of its parser branch), in help order
COMMANDS = {
    "typed": ("typed constraint solver", _typed_parser),
    "hp0": ("brute-force bracket spans", _hp0_parser),
    "counts": ("partition statistics", _counts_parser),
    "strata": ("symplectic leaf bookkeeping", _strata_parser),
    "series": ("series verification aids", _series_parser),
    "compare": ("cross-checks", _compare_parser),
    "cache": ("result cache maintenance", _cache_parser),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `ptl`: every command with its help at the top level,
    but the sub-commands and options of the command that `argv` runs (its
    first word that is not an option) only."""
    parser = argparse.ArgumentParser(
        prog="ptl",
        description="Exact Poisson-trace computations for Weyl group quotients")
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((word for word in argv if not word.startswith("-")), None)
    for name, (text, branch) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == command:
            branch(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    mismatch = _d_mismatch(args)
    if mismatch:
        parser.error(mismatch)
    try:
        return args.func(args)
    except getattr(sys.modules.get("ptl.cache"), "CacheCorruption", ()) as exc:
        # evaluated only as an exception passes: the commands that use a
        # cache, and only they, have loaded ptl.cache by then
        sys.stderr.write(f"cache corruption: {exc}\n")
        return 4
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
