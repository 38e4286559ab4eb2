"""Span tracing of qmv's layers from outside the package.

``Tracer.install`` wraps the public functions and methods of each module under
``qmv`` and ``Tracer.restore`` puts every original back.  A module that imports
a name (``from .minors import minor``) holds its own reference, so every
``qmv`` module namespace that refers to a wrapped function is rebound, and so is
every class attribute that aliases a wrapped method (``__rmul__ = __mul__``).

Each wrapped call records one span: name, start, end and the index of the
enclosing span.  Spans are kept in flat arrays in memory and written out when
the traced process ends.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute or Class.attribute).  Several targets may share
# one span name; their spans are then counted and timed together.
TARGETS = (
    ("scalar.mul", "qmv.scalar", "LaurentScalar.__mul__"),
    ("scalar.add", "qmv.scalar", "LaurentScalar.__add__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__add__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__sub__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__neg__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__mul__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__truediv__"),
    ("scalar.fraction", "qmv.scalar", "ScalarFraction.__eq__"),
    ("algebra.mul", "qmv.algebra", "AlgebraElement.__mul__"),
    ("algebra.component_basis", "qmv.algebra", "component_basis"),
    ("minors.minor", "qmv.minors", "minor"),
    ("minors.laplace", "qmv.minors", "laplace_expand_row"),
    ("minors.laplace", "qmv.minors", "laplace_expand_col"),
    ("localize.norm", "qmv.localize", "LocalizedElement.__init__"),
    ("localize.mul", "qmv.localize", "LocalizedElement.__mul__"),
    ("localize.add", "qmv.localize", "LocalizedElement.__add__"),
    ("localize.x_prime", "qmv.localize", "x_prime"),
    ("localize.x_prime_minor", "qmv.localize", "x_prime_minor"),
    ("verify.solve", "qmv.verify", "solve_linear"),
    ("verify.membership", "qmv.verify", "solve_membership"),
    ("verify.specialized", "qmv.verify", "specialized_membership_verdict"),
    ("verify.suite", "qmv.verify", "run_suite"),
    ("expr.parse", "qmv.expr", "parse"),
    ("expr.evaluate", "qmv.expr", "evaluate"),
    ("cli.main", "qmv.cli", "main"),
    ("laws.lookup", "qmv.laws", "law_coefficients"),
)

# The suite invocations the benchmark runs, as "<suite>-<m>x<n>".  Each gets a
# run_suite time and a check count; workloads that do not run it report 0.
SUITE_LABELS = (
    "centrality-6x6",
    "laplace-6x6",
    "thm21-6x6",
    "cor22-5x5",
    "lemma23-5x5",
    "thm25-5x5",
    "jordan-obstruction-6x6",
)

# Public per-layer metrics: name -> unit.  Names ending in _self_s are self
# times, other names ending in _s are inclusive times of the outermost span.
METRICS = {
    "scalar.mul_calls": "count",
    "scalar.mul_monomial_share": "ratio",
    "scalar.mul_self_s": "s",
    "scalar.add_calls": "count",
    "scalar.add_self_s": "s",
    "scalar.fraction_ops": "count",
    "scalar.fraction_self_s": "s",
    "algebra.mul_calls": "count",
    "algebra.mul_self_s": "s",
    "algebra.mul_terms_out": "count",
    "algebra.straighten_hits": "count",
    "algebra.straighten_misses": "count",
    "algebra.straighten_size": "count",
    "algebra.straighten_hit_ratio": "ratio",
    "algebra.component_basis_s": "s",
    "minors.minor_calls": "count",
    "minors.minor_terms": "count",
    "minors.minor_self_s": "s",
    "minors.laplace_calls": "count",
    "minors.laplace_self_s": "s",
    "localize.norm_calls": "count",
    "localize.norm_self_s": "s",
    "localize.mul_calls": "count",
    "localize.mul_self_s": "s",
    "localize.add_calls": "count",
    "localize.add_self_s": "s",
    "localize.x_prime_calls": "count",
    "localize.x_prime_minor_calls": "count",
    "localize.x_prime_minor_s": "s",
    "verify.solve_calls": "count",
    "verify.solve_cells": "count",
    "verify.solve_self_s": "s",
    "verify.membership_s": "s",
    "verify.specialized_s": "s",
    "verify.suite_self_s": "s",
    **{f"verify.run_suite_s.{label}": "s" for label in SUITE_LABELS},
    **{f"verify.checks.{label}": "count" for label in SUITE_LABELS},
    "expr.parse_calls": "count",
    "expr.parse_s": "s",
    "expr.evaluate_s": "s",
    "cli.main_calls": "count",
    "cli.main_self_s": "s",
    "laws.lookup_calls": "count",
}

# Span names whose inclusive time is reported; a span nested in another of the
# same name is not counted twice.
INCLUSIVE = (
    "algebra.component_basis",
    "localize.x_prime_minor",
    "verify.membership",
    "verify.specialized",
    "expr.parse",
    "expr.evaluate",
)

# Metrics that must repeat exactly between two traced runs of the same code.
EXACT = tuple(name for name, unit in METRICS.items() if unit in ("count", "ratio"))


def _suite_label(args, kwargs) -> str:
    names = ("name", "m", "n")
    bound = dict(zip(names, args))
    bound.update((k, v) for k, v in kwargs.items() if k in names)
    m, n = bound.get("m"), bound.get("n")
    m = n if m is None else m
    n = m if n is None else n
    return f"{bound['name']}-{m}x{n}"


class Tracer:
    """Records spans for the calls into qmv's layers while installed."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.suite_spans: list[tuple[str, int, int]] = []  # (label, span, checks)
        self.saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span: str, fn, hook=None):
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.span_names):
            self.span_names.append(span)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _hooks(self) -> dict:
        counters = self.counters

        def scalar_mul(idx, args, kwargs, result):
            a, b = args
            if len(a._terms) == 1 or (len(b._terms) == 1 if hasattr(b, "_terms") else b != 0):
                counters["scalar.mul_monomial"] += 1

        def terms_out(key):
            def hook(idx, args, kwargs, result):
                counters[key] += len(result._terms)
            return hook

        def solve_cells(idx, args, kwargs, result):
            matrix = args[0] if args else kwargs["matrix"]
            counters["verify.solve_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

        def run_suite(idx, args, kwargs, result):
            self.suite_spans.append((_suite_label(args, kwargs), idx, len(result.checks)))

        return {
            "scalar.mul": scalar_mul,
            "algebra.mul": terms_out("algebra.mul_terms_out"),
            "minors.minor": terms_out("minors.minor_terms"),
            "verify.solve": solve_cells,
            "verify.suite": run_suite,
        }

    def install(self) -> None:
        """Wrap every target and rebind every reference to it inside qmv."""
        if self.saved:
            raise RuntimeError("tracer already installed")
        import qmv.cli  # noqa: F401  (imports every layer)

        hooks = self._hooks()
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qmv" or name.startswith("qmv.")) and m is not None]
        for span, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[fn_name]
            wrapper = self._wrap(span, original, hooks.get(span))
            namespaces = [owner] if cls_name else modules
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self.saved.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def restore(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self.saved:
            ns, name, original = self.saved.pop()
            setattr(ns, name, original)

    # -- results ----------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, self time and outermost inclusive time for each span name."""
        n = len(self.name_of)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        k = len(self.span_names)
        calls = [0] * k
        self_s = [0.0] * k
        incl_s = [0.0] * k
        inclusive = {self.name_ids[name] for name in INCLUSIVE if name in self.name_ids}
        for i in range(n):
            nid = name_of[i]
            d = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += d - covered[i]
            if nid in inclusive:
                p = parent[i]
                while p >= 0 and name_of[p] != nid:
                    p = parent[p]
                if p < 0:
                    incl_s[nid] += d
        return {
            name: {"calls": calls[i], "self_s": self_s[i], "incl_s": incl_s[i]}
            for i, name in enumerate(self.span_names)
        }

    def metrics(self, straighten) -> dict[str, float]:
        """Per-layer metrics of this process; ``straighten`` is the cache_info()
        of the straightening cache taken after the last call."""
        stats = self.span_stats()
        zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

        def s(name, key):
            return stats.get(name, zero)[key]

        c = self.counters
        out = {
            "scalar.mul_calls": s("scalar.mul", "calls"),
            "scalar.mul_monomial": c["scalar.mul_monomial"],
            "scalar.mul_self_s": s("scalar.mul", "self_s"),
            "scalar.add_calls": s("scalar.add", "calls"),
            "scalar.add_self_s": s("scalar.add", "self_s"),
            "scalar.fraction_ops": s("scalar.fraction", "calls"),
            "scalar.fraction_self_s": s("scalar.fraction", "self_s"),
            "algebra.mul_calls": s("algebra.mul", "calls"),
            "algebra.mul_self_s": s("algebra.mul", "self_s"),
            "algebra.mul_terms_out": c["algebra.mul_terms_out"],
            "algebra.straighten_hits": straighten.hits,
            "algebra.straighten_misses": straighten.misses,
            "algebra.straighten_size": straighten.currsize,
            "algebra.component_basis_s": s("algebra.component_basis", "incl_s"),
            "minors.minor_calls": s("minors.minor", "calls"),
            "minors.minor_terms": c["minors.minor_terms"],
            "minors.minor_self_s": s("minors.minor", "self_s"),
            "minors.laplace_calls": s("minors.laplace", "calls"),
            "minors.laplace_self_s": s("minors.laplace", "self_s"),
            "localize.norm_calls": s("localize.norm", "calls"),
            "localize.norm_self_s": s("localize.norm", "self_s"),
            "localize.mul_calls": s("localize.mul", "calls"),
            "localize.mul_self_s": s("localize.mul", "self_s"),
            "localize.add_calls": s("localize.add", "calls"),
            "localize.add_self_s": s("localize.add", "self_s"),
            "localize.x_prime_calls": s("localize.x_prime", "calls"),
            "localize.x_prime_minor_calls": s("localize.x_prime_minor", "calls"),
            "localize.x_prime_minor_s": s("localize.x_prime_minor", "incl_s"),
            "verify.solve_calls": s("verify.solve", "calls"),
            "verify.solve_cells": c["verify.solve_cells"],
            "verify.solve_self_s": s("verify.solve", "self_s"),
            "verify.membership_s": s("verify.membership", "incl_s"),
            "verify.specialized_s": s("verify.specialized", "incl_s"),
            "verify.suite_self_s": s("verify.suite", "self_s"),
            "expr.parse_calls": s("expr.parse", "calls"),
            "expr.parse_s": s("expr.parse", "incl_s"),
            "expr.evaluate_s": s("expr.evaluate", "incl_s"),
            "cli.main_calls": s("cli.main", "calls"),
            "cli.main_self_s": s("cli.main", "self_s"),
            "laws.lookup_calls": s("laws.lookup", "calls"),
        }
        for label, idx, checks in self.suite_spans:
            key = f"verify.run_suite_s.{label}"
            out[key] = out.get(key, 0.0) + self.end[idx] - self.start[idx]
            key = f"verify.checks.{label}"
            out[key] = out.get(key, 0) + checks
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as raw arrays plus a JSON header beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.name_of),
            "names": self.span_names,
            "arrays": [["name", "H"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"]],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")


def combine(per_process: list[dict[str, float]]) -> dict[str, float]:
    """Sum the metrics of the processes of one pass and derive the ratios."""
    total: dict[str, float] = defaultdict(float)
    for metrics in per_process:
        for key, value in metrics.items():
            total[key] += value
    out = {name: total.get(name, 0) for name in METRICS}
    for name, unit in METRICS.items():
        if unit == "count":
            out[name] = int(out[name])
    mul = out["scalar.mul_calls"]
    out["scalar.mul_monomial_share"] = total["scalar.mul_monomial"] / mul if mul else 0.0
    lookups = out["algebra.straighten_hits"] + out["algebra.straighten_misses"]
    out["algebra.straighten_hit_ratio"] = (
        out["algebra.straighten_hits"] / lookups if lookups else 0.0)
    return out
