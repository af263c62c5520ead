"""Span recorder for traced benchmark runs, and the per-layer metrics.

`Tracer.install()` wraps the calls into each ptl module from the outside:
a module-level function is replaced in every ptl module that holds it (so
`ptl.cli.kernel_basis` and `ptl.engine.invariant_basis_raw`, bound by
`from ... import`, are wrapped too), and a method is replaced on its class.
Each call records a span [name, parent index, start, end, attributes];
spans stay in memory and `dump` writes them, with the invocation's run id,
once the CLI has returned.
Names that no longer exist in ptl are skipped, so their metrics read 0.

`layer_metrics` turns the spans of one iteration into the per-layer
metrics.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (module, function, span name, attributes of the result)
FUNCTIONS = (
    ("ptl.solver", "kernel_basis", "solver.kernel_basis", None),
    ("ptl.solver", "component_system", "solver.assembly",
     lambda s: {"rows": len(s.rows), "columns": len(s.columns),
                "nnz": sum(len(r) for r in s.rows)}),
    ("ptl.solver", "_components", "solver.enumerate", None),
    ("ptl.solver", "family_generators", "solver.families", None),
    ("ptl.solver", "_verify_in_kernel", "solver.verify", None),
    ("ptl.solver", "_component_kernel", "solver.kernel", lambda b: {"dim": len(b)}),
    ("ptl.solver", "_rational_nullspace_from_echelon", "solver.rational_nullspace", None),
    ("ptl.solver", "is_kernel_member", "solver.member_check", None),
    ("ptl.linalg", "rational_reconstruct", "linalg.reconstruct",
     lambda q: {"ok": q is not None}),
    ("ptl.linalg", "solve_dense_rational", "linalg.dense_solve", None),
    ("ptl.engine", "_cell_dimension", "engine.cell", None),
    ("ptl.engine", "_certify_deficit", "engine.certify", None),
    ("ptl.weyl", "invariant_basis_raw", "weyl.invariant_basis", None),
    ("ptl.weyl", "stabilizer_invariant_basis_raw", "weyl.invariant_basis", None),
    ("ptl.poisson", "raw_bracket", "poisson.bracket", lambda v: {"zero": not v}),
    ("ptl.poly", "parse_polynomial", "poly.parse", None),
)

# (module, class, method, span name, attributes of the result)
METHODS = (
    ("ptl.linalg", "IncrementalModEchelon", "add", "linalg.modp_add",
     lambda grew: {"pivot": grew}),
    ("ptl.linalg", "PurePythonModEchelon", "__init__", "linalg.bigprime_pass", None),
    ("ptl.linalg", "PurePythonModEchelon", "add", "linalg.bigprime", None),
    ("ptl.linalg", "PurePythonModEchelon", "nullspace_modp", "linalg.bigprime", None),
    ("ptl.linalg", "SparseRationalEchelon", "add", "linalg.rational_add", None),
    ("ptl.poly", "SparsePolynomial", "text", "poly.text", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.origin = time.perf_counter()
        # one traced CLI invocation is one run; its spans share this id
        self.run_id = f"{os.getpid()}-{time.time_ns()}"

    def enter(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1,
               time.perf_counter() - self.origin, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def exit(self, rec: list) -> None:
        rec[3] = time.perf_counter() - self.origin
        self.stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = {"raised": type(exc).__name__}
                raise
            finally:
                exit_(rec)
            if attrs is not None:
                rec[4] = attrs(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the ptl calls listed above; ptl.cli must be imported."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ptl" or name.startswith("ptl."))]
        for modname, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            traced = self.wrap(name, orig, attrs)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, traced)
        for modname, clsname, attr, name, attrs in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.wrap(name, vars(cls)[attr], attrs))
        cache_cls = getattr(sys.modules.get("ptl.cache"), "ResultCache", None)
        if cache_cls is not None:
            self._install_cache(cache_cls)

    def _install_cache(self, cls) -> None:
        get, put = cls.get, cls.put
        tracer = self

        def stored_size(cache, key) -> int:
            if not cache.dir:
                return 0
            path = cache._path(key)
            return path.stat().st_size if path.exists() else 0

        @functools.wraps(get)
        def traced_get(cache, key, verify=None):
            size = stored_size(cache, key)
            if verify is not None:
                verify = tracer.wrap("cache.verify", verify)
            rec = tracer.enter("cache.get")
            try:
                payload = get(cache, key, verify=verify)
            finally:
                tracer.exit(rec)
            if cache.dir:
                rec[4] = {"hit": payload is not None,
                          "bytes": size if payload is not None else 0}
            return payload

        @functools.wraps(put)
        def traced_put(cache, key, payload):
            rec = tracer.enter("cache.put")
            try:
                put(cache, key, payload)
            finally:
                tracer.exit(rec)
            rec[4] = {"bytes": stored_size(cache, key)}

        cls.get, cls.put = traced_get, traced_put

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


# -- per-layer metrics ---------------------------------------------------------

TIME_METRICS = {
    # metric: (span name, self time?)
    "solver.assembly_s": ("solver.assembly", True),
    "solver.enumerate_s": ("solver.enumerate", False),
    "solver.families_s": ("solver.families", False),
    "solver.verify_s": ("solver.verify", False),
    "solver.kernel_self_s": ("solver.kernel", True),
    "solver.rational_nullspace_s": ("solver.rational_nullspace", False),
    "solver.member_check_s": ("solver.member_check", False),
    "linalg.modp_s": ("linalg.modp_add", False),
    "linalg.bigprime_s": ("linalg.bigprime", False),
    "linalg.rational_s": ("linalg.rational_add", False),
    "linalg.dense_solve_s": ("linalg.dense_solve", False),
    "engine.certify_s": ("engine.certify", False),
    "weyl.invariant_basis_s": ("weyl.invariant_basis", False),
    "poisson.bracket_s": ("poisson.bracket", False),
    "poly.text_s": ("poly.text", False),
    "poly.parse_s": ("poly.parse", False),
    "cache.get_self_s": ("cache.get", True),
    "cache.put_s": ("cache.put", False),
    "cli.self_s": ("cli.main", True),
}

COUNT_METRICS = {
    "solver.verify_calls": "solver.verify",
    "solver.member_checks": "solver.member_check",
    "solver.components": "solver.assembly",
    "linalg.modp_adds": "linalg.modp_add",
    "linalg.bigprime_passes": "linalg.bigprime_pass",
    "linalg.reconstruct_calls": "linalg.reconstruct",
    "linalg.rational_adds": "linalg.rational_add",
    "engine.cells": "engine.cell",
    "weyl.invariant_basis_calls": "weyl.invariant_basis",
    "poisson.brackets": "poisson.bracket",
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one iteration, given the spans of each of its
    CLI invocations.  Times are in seconds, summed over the invocations."""
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    attr_counts = {"solver.rows": 0, "solver.columns": 0, "solver.nnz": 0,
                   "solver.family_certified": 0, "solver.reconstructed": 0,
                   "solver.fallbacks": 0, "linalg.reconstruct_failed": 0,
                   "engine.columns": 0, "engine.pivots": 0,
                   "engine.deficit_cells": 0, "engine.rational_fallback_cells": 0,
                   "poisson.zero_brackets": 0, "cache.hits": 0, "cache.misses": 0,
                   "cache.bytes_read": 0, "cache.bytes_written": 0}
    cell_times: list[float] = []
    for spans in runs:
        n = len(spans)
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * n
        kids: list[list[int]] = [[] for _ in range(n)]
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
                kids[s[1]].append(i)

        def under(i: int, name: str) -> bool:
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][1]
            return False

        def subtree_has(i: int, name: str) -> bool:
            todo = list(kids[i])
            while todo:
                j = todo.pop()
                if spans[j][0] == name:
                    return True
                todo.extend(kids[j])
            return False

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)
        for metric, (name, self_only) in TIME_METRICS.items():
            for i in by_name.get(name, ()):
                if self_only:
                    out[metric] += dur[i] - child[i]
                elif not under(i, name):  # outermost only: no double counting
                    out[metric] += dur[i]
        for metric, name in COUNT_METRICS.items():
            out[metric] += len(by_name.get(name, ()))
        for i in by_name.get("solver.assembly", ()):
            attrs = spans[i][4] or {}
            for key in ("rows", "columns", "nnz"):
                attr_counts["solver." + key] += attrs.get(key, 0)
        for i in by_name.get("solver.kernel", ()):
            if not (spans[i][4] or {}).get("dim"):
                continue
            if subtree_has(i, "solver.rational_nullspace"):
                attr_counts["solver.fallbacks"] += 1
            elif subtree_has(i, "linalg.bigprime_pass"):
                attr_counts["solver.reconstructed"] += 1
            else:
                attr_counts["solver.family_certified"] += 1
        for i in by_name.get("linalg.reconstruct", ()):
            if not (spans[i][4] or {}).get("ok", True):
                attr_counts["linalg.reconstruct_failed"] += 1
        for i in by_name.get("linalg.modp_add", ()):
            if under(i, "engine.cell"):
                attr_counts["engine.columns"] += 1
                attr_counts["engine.pivots"] += bool((spans[i][4] or {}).get("pivot"))
        for i in by_name.get("engine.cell", ()):
            cell_times.append(dur[i])
            if subtree_has(i, "engine.certify"):
                attr_counts["engine.deficit_cells"] += 1
            if any("raised" in (spans[j][4] or {})
                   for j in kids[i] if spans[j][0] == "engine.certify"):
                attr_counts["engine.rational_fallback_cells"] += 1
        for i in by_name.get("poisson.bracket", ()):
            attr_counts["poisson.zero_brackets"] += bool((spans[i][4] or {}).get("zero"))
        for i in by_name.get("cache.get", ()):
            attrs = spans[i][4]
            if attrs is None:
                continue
            attr_counts["cache.hits" if attrs["hit"] else "cache.misses"] += 1
            attr_counts["cache.bytes_read"] += attrs["bytes"]
        for i in by_name.get("cache.put", ()):
            attr_counts["cache.bytes_written"] += (spans[i][4] or {}).get("bytes", 0)
    out.update(attr_counts)
    kernels = (out["solver.family_certified"] + out["solver.reconstructed"]
               + out["solver.fallbacks"])
    out["solver.family_hit_ratio"] = _ratio(out["solver.family_certified"], kernels)
    out["linalg.reconstruct_ok_ratio"] = _ratio(
        out["linalg.reconstruct_calls"] - out["linalg.reconstruct_failed"],
        out["linalg.reconstruct_calls"])
    out["engine.pivot_ratio"] = _ratio(out.pop("engine.pivots"), out["engine.columns"])
    out["engine.cell_s.median"] = statistics.median(cell_times) if cell_times else 0.0
    out["engine.cell_s.max"] = max(cell_times, default=0.0)
    return out


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or "_s." in metric
