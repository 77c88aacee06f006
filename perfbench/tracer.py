"""Traced run: wrap the public functions of each `wsgaps` module from outside.

A wrapper replaces the module attribute and every name imported from it
(e.g. `wsgaps.gaps.in_classical_H` and `wsgaps.oracle.in_classical_H` as
well as `wsgaps.membership.in_classical_H`), so no file of the package
changes.  A layer is a module.  Every wrapped function gets a call count and
a self time (time in the function minus time in the wrapped functions it
calls).  SPAN functions also record one span (id, name, start, end, parent
span id, run id) per call; the hot per-point AGG functions do not.  Spans
stay in memory until `write_spans`.

Not wrapped: generator functions (their work happens in the consumer), and
O(1) guards and helpers (check_m, check_pair, tau, realize, lub, ...), whose
time counts toward their caller; so does zeta, whose quadratic cost belongs
to count_gaps_two_points, its only caller.  Most of a wrapper's own cost
also lands in its caller's self time; the benchmark reports the total as
trace.overhead_s.  The recorder assumes one thread, so the benchmark always
passes --jobs 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

SPAN, AGG = "span", "agg"


def _lub_bucket_mean(args, kwargs, result):
    """Mean size of the (r, alpha[r]) buckets a full in_lub_closure probe reads."""
    index = args[0] if args else kwargs["gens_index"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return sum(len(index.get((r, x), ())) for r, x in enumerate(alpha)) / len(alpha)


# layer -> {function: (kind, measure)}.  measure(args, kwargs, result), when
# given, is summed over the calls into the function's `measured` counter.
WRAPPED = {
    "cli": {"run": (SPAN, None), "build_parser": (SPAN, None)},
    "curves": {
        "validate_params": (SPAN, None),
        "derive": (SPAN, None),
        "curve": (SPAN, None),
        "monomial_valuation": (AGG, None),
    },
    "maximal": {
        "gamma_hat_in_C": (SPAN, None),
        "lambda_hat_in_C": (SPAN, None),
        "enumerate_classical_Gamma": (SPAN, lambda a, k, result: len(result)),
        "enumerate_classical_Lambda": (SPAN, lambda a, k, result: len(result)),
        "count_Lambda": (SPAN, None),
    },
    "membership": {
        "nabla_witness": (AGG, lambda a, k, witness: witness is not None),
        "in_generalized_H": (AGG, None),
        "in_classical_H": (AGG, lambda a, k, member: member is True),
        "one_point_gaps_at_P1": (SPAN, None),
    },
    "gaps": {
        "gaps_via_lambda": (SPAN, None),
        "pure_gaps_via_lambda": (SPAN, None),
        "gaps_via_complement": (SPAN, lambda a, k, gaps: len(gaps)),
        "pure_gaps_via_nabla": (SPAN, None),
        "count_gaps_two_points": (SPAN, None),
        "gap_count_upper_bound": (SPAN, None),
        "build_gap_report": (SPAN, None),
    },
    "oracle": {
        "default_box": (SPAN, None),
        "monomial_vectors_in_box": (SPAN, lambda a, k, kept: len(kept)),
        "lub_closure": (SPAN, None),
        "in_lub_closure": (AGG, _lub_bucket_mean),
        "index_generators": (SPAN, None),
        "consistency_report": (SPAN, None),
    },
}
LAYERS = tuple(WRAPPED)


class Tracer:
    """Call counts, self times and spans of the wrapped functions.

    Self time is charged between events: at every entry and exit of a
    wrapped call, the time since the previous event goes to the function on
    top of the stack.  The bottom of the stack collects the time outside
    every wrapped call.  Each span function also records how many calls of
    each AGG function ran inside it (`inner`).
    """

    def __init__(self):
        self.funcs: dict[str, list] = {}  # name -> [calls, self seconds, measured]
        self.stack = [[0, 0.0, 0]]
        self.last = [perf_counter()]
        self.inner: dict[str, dict[str, int]] = {}
        self.spans: list = []
        self.span_stack = [None]
        self.run_id = None
        self._agg: list[tuple[str, list]] = []

    # The AGG and SPAN wrappers repeat the accounting so that the hot AGG path
    # runs no span bookkeeping and no branch on the kind.
    def _wrap_agg(self, name: str, fn, measure):
        stack, last = self.stack, self.last
        stat = self.funcs[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            stack[-1][1] += t0 - last[0]
            stack.append(stat)
            last[0] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stat[1] += t1 - last[0]
                stat[0] += 1
                stack.pop()
                last[0] = t1
            if measure is not None:
                stat[2] += measure(args, kwargs, result)
            return result

        return traced

    def _wrap_span(self, name: str, fn, measure):
        stack, last, spans, span_stack, agg = self.stack, self.last, self.spans, self.span_stack, self._agg
        stat = self.funcs[name]
        inner = self.inner.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = [s[0] for _, s in agg]
            span_id = len(spans)
            spans.append(None)
            span_stack.append(span_id)
            t0 = perf_counter()
            stack[-1][1] += t0 - last[0]
            stack.append(stat)
            last[0] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stat[1] += t1 - last[0]
                stat[0] += 1
                stack.pop()
                last[0] = t1
                span_stack.pop()
                spans[span_id] = (span_id, name, t0, t1, span_stack[-1], self.run_id)
                for (callee, s), n in zip(agg, before):
                    if s[0] != n:
                        inner[callee] = inner.get(callee, 0) + s[0] - n
            if measure is not None:
                stat[2] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped function wherever a wsgaps module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "wsgaps" or n.startswith("wsgaps.")]
        for layer, functions in WRAPPED.items():
            module = importlib.import_module(f"wsgaps.{layer}")
            for fn_name, (kind, measure) in functions.items():
                name = f"{layer}.{fn_name}"
                self.funcs[name] = [0, 0.0, 0]
                if kind == AGG:
                    self._agg.append((name, self.funcs[name]))
                original = getattr(module, fn_name)
                wrap = self._wrap_agg if kind == AGG else self._wrap_span
                wrapper = wrap(name, original, measure)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        self.last[0] = perf_counter()

    def report(self) -> dict:
        return {
            "functions": {name: list(stat) for name, stat in self.funcs.items()},
            "inner": self.inner,
        }

    def write_spans(self, path: str, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({**meta, "fields": ["id", "name", "start", "end", "parent", "run"], "spans": self.spans}, f)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(report: dict, scale: float = 1.0) -> dict[str, float]:
    """The named per-layer metrics of one traced pass, from Tracer.report(),
    with every time multiplied by `scale`."""
    funcs, inner = report["functions"], report["inner"]

    def calls(name):
        return funcs[name][0]

    def measured(name):
        return funcs[name][2]

    out = {}
    for name in (
        "curves.derive",
        "curves.monomial_valuation",
        "membership.in_classical_H",
        "membership.nabla_witness",
        "oracle.in_lub_closure",
        "cli.run",
    ):
        out[f"{name}.calls"] = calls(name)
    for name in (
        "maximal.enumerate_classical_Lambda",
        "maximal.enumerate_classical_Gamma",
        "maximal.count_Lambda",
        "membership.in_classical_H",
        "membership.in_generalized_H",
        "membership.nabla_witness",
        "gaps.gaps_via_complement",
        "gaps.gaps_via_lambda",
        "gaps.pure_gaps_via_lambda",
        "gaps.pure_gaps_via_nabla",
        "gaps.count_gaps_two_points",
        "gaps.gap_count_upper_bound",
        "oracle.consistency_report",
        "oracle.monomial_vectors_in_box",
        "oracle.in_lub_closure",
    ):
        out[f"{name}.s"] = funcs[name][1] * scale
    for name in ("maximal.enumerate_classical_Lambda", "maximal.enumerate_classical_Gamma"):
        out[f"{name}.vectors"] = measured(name)
    out["membership.in_classical_H.member_ratio"] = _ratio(
        measured("membership.in_classical_H"), calls("membership.in_classical_H")
    )
    out["membership.nabla_witness.found_ratio"] = _ratio(
        measured("membership.nabla_witness"), calls("membership.nabla_witness")
    )
    out["gaps.complement.gap_ratio"] = _ratio(
        measured("gaps.gaps_via_complement"),
        inner["gaps.gaps_via_complement"].get("membership.in_classical_H", 0),
    )
    out["oracle.monomials.kept_ratio"] = _ratio(
        measured("oracle.monomial_vectors_in_box"),
        inner["oracle.monomial_vectors_in_box"].get("curves.monomial_valuation", 0),
    )
    out["oracle.bucket_mean"] = _ratio(measured("oracle.in_lub_closure"), calls("oracle.in_lub_closure"))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = scale * sum(stat[1] for name, stat in funcs.items() if name.startswith(layer + "."))
    return out
