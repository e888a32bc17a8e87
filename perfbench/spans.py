"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces each layer's public functions where their
callers look them up as module attributes (``quadbound.cli.certify_convex``,
``quadbound.bounds.bound_pq``, the closures returned by ``as_function``, ...)
with wrappers that record a span and update counters, and puts the originals
back on exit.  Nothing under ``src/`` changes.

Spans are kept in memory as columns (name, start, end, parent); a
function's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from quadbound import bounds, campaign, cli, means, oracle, rules

# Span names, in report order: one per layer function.
FUNCTIONS = (
    "cli.main",
    "expr.parse", "expr.differentiate", "expr.domain_check", "expr.eval",
    "oracle.integrate", "oracle.kernel_moment_numeric",
    "convexity.certify_convex",
    "rules.lhs_value",
    "bounds.bound_q1", "bounds.bound_pq", "bounds.kernel_moments_closed",
    "bounds.optimize_p", "bounds.optimize_rule",
    "means.means_gap", "means.means_bound",
    "campaign.draw_function", "campaign.run_verify",
)
COUNTERS = ("expr.eval.points", "oracle.integrate.evaluations",
            "oracle.integrate.failures", "convexity.certify_convex.samples")
_OPTIMIZERS = ("bounds.optimize_p", "bounds.optimize_rule")

# (module, attribute, span name): every place a caller looks a layer function
# up.  A site a module no longer has raises in install(), so that a renamed
# function is noticed rather than reported as 0 calls.
_SITES = (
    (cli, "main", "cli.main"),
    (cli, "parse", "expr.parse"), (campaign, "parse", "expr.parse"),
    (cli, "differentiate", "expr.differentiate"),
    (campaign, "differentiate", "expr.differentiate"),
    (cli, "domain_check", "expr.domain_check"),
    (campaign, "evaluate", "expr.eval"), (rules, "evaluate", "expr.eval"),
    (oracle, "integrate", "oracle.integrate"), (cli, "integrate", "oracle.integrate"),
    (rules, "integrate", "oracle.integrate"),
    (oracle, "kernel_moment_numeric", "oracle.kernel_moment_numeric"),
    (cli, "certify_convex", "convexity.certify_convex"),
    (campaign, "certify_convex", "convexity.certify_convex"),
    (cli, "lhs_value", "rules.lhs_value"), (campaign, "lhs_value", "rules.lhs_value"),
    (bounds, "bound_q1", "bounds.bound_q1"), (bounds, "bound_pq", "bounds.bound_pq"),
    (bounds, "kernel_moments_closed", "bounds.kernel_moments_closed"),
    (bounds, "optimize_p", "bounds.optimize_p"),
    (bounds, "optimize_rule", "bounds.optimize_rule"),
    (means, "means_gap", "means.means_gap"), (means, "means_bound", "means.means_bound"),
    (campaign, "draw_function", "campaign.draw_function"),
    (campaign, "run_verify", "campaign.run_verify"),
)
# Modules whose ``as_function`` closures are traced as expr.eval.
_AS_FUNCTION_CALLERS = (cli, campaign, rules)


class Tracer:
    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(FUNCTIONS)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # index of the parent span, -1 for an op's root
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.valid_certificates = 0

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id[name]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except oracle.IntegrationError:
                if nid == self.name_id["oracle.integrate"]:
                    self.counts["oracle.integrate.failures"] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_points(self, args, result):
        self.counts["expr.eval.points"] += int(np.size(args[-1]))

    def _count_integrate(self, args, result):
        self.counts["oracle.integrate.evaluations"] += result.evaluations

    def _count_certificate(self, args, result):
        self.counts["convexity.certify_convex.samples"] += result.samples
        self.valid_certificates += bool(result.valid)

    def _traced_as_function(self, as_function):
        @functools.wraps(as_function)
        def traced_as_function(node):
            return self.wrap("expr.eval", as_function(node), self._count_points)

        return traced_as_function

    @contextlib.contextmanager
    def install(self):
        on_result = {"expr.eval": self._count_points,
                     "oracle.integrate": self._count_integrate,
                     "convexity.certify_convex": self._count_certificate}
        saved = []
        try:
            for module, attr, name in _SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, on_result.get(name)))
            for module in _AS_FUNCTION_CALLERS:
                original = module.as_function
                saved.append((module, "as_function", original))
                module.as_function = self._traced_as_function(original)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        names = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_ns = np.bincount(names, weights=dur - covered, minlength=len(FUNCTIONS))
        calls = np.bincount(names, minlength=len(FUNCTIONS))

        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_ms"] = (float(self_ns[i]) / 1e6, "ms")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        certs = calls[self.name_id["convexity.certify_convex"]]
        out["convexity.certify_convex.valid_share"] = (
            self.valid_certificates / certs if certs else 0.0, "share")
        out["bounds.bound_pq.calls_per_optimize"] = (self._pq_calls_per_optimize(names, parent), "ratio")
        return out

    def _pq_calls_per_optimize(self, names, parent) -> float:
        """bound_pq calls made inside an optimizer, per optimizer call."""
        optimizer = {self.name_id[n] for n in _OPTIMIZERS}
        pq = self.name_id["bounds.bound_pq"]
        inside = np.zeros(len(names), dtype=bool)
        optimizers = 0
        # A parent span always starts, and so is recorded, before its children.
        for i, (nid, par) in enumerate(zip(names.tolist(), parent.tolist())):
            if nid in optimizer:
                optimizers += 1
                inside[i] = True
            elif par >= 0:
                inside[i] = inside[par]
        return float(np.count_nonzero(inside & (names == pq))) / optimizers if optimizers else 0.0
