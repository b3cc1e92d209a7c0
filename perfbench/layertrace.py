"""Outside-in layer trace for the netredist benchmark.

A ``Tracer`` replaces each traced public function with a wrapper at every
place a netredist module binds it (``from x import f`` copies the function
into the consumer's namespace), so calls between modules are counted, not
only the ones the benchmark makes itself.  Nothing in ``src/`` changes,
and an untraced run never builds a ``Tracer``.

Every wrapped call records a span (name, start, end, parent span, op id).
Spans are kept in memory and written out when the run ends; calls and
self time are aggregated as the spans close, so the aggregate covers every
call even after the span log reaches its cap.  Self time is the span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

#: Traced public functions, as (module, attribute) of their defining module.
#: ``profiles.replace`` is the ``ReportProfile.replace`` method.
TRACED = (
    ("profiles", "load_profile"),
    ("profiles", "induce_graph"),
    ("profiles", "replace"),
    ("critical_tree", "critical_tree"),
    ("prst", "prst"),
    ("auctions", "vcg"),
    ("auctions", "idm"),
    ("auctions", "tnm"),
    ("auctions", "fixed_price"),
    ("redistribution", "run_nrmf"),
    ("redistribution", "cavallo"),
    ("verify", "check_ir"),
    ("verify", "check_ic"),
    ("render", "decimal_str"),
    ("cli", "main"),
)

#: Wrapped too, so that ``EmptyMarketError``s leaving the dispatcher count.
DISPATCH = ("auctions", "run_auction")

AUCTION_KINDS = ("auctions.vcg", "auctions.idm", "auctions.tnm", "auctions.fixed_price")

#: Functions run by every workload; only these report a self time as a
#: metric, so that no per-layer time reads a constant zero on some workload.
SELF_TIME_METRICS = (
    "profiles.induce_graph",
    "critical_tree.critical_tree",
    "prst.prst",
    "auctions.vcg",
    "auctions.idm",
    "auctions.tnm",
    "redistribution.run_nrmf",
)

#: Spans kept for the span log; calls and self time count every call.
MAX_SPANS = 50_000


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Span recorder and per-layer counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.op = -1
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.alloc_peak_bytes = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # --- installation -------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced function wherever a netredist module binds it,
        and enable the wrappers."""
        empty_market = modules["auctions"].EmptyMarketError
        hooks = {
            "auctions.run_auction": (None, self._on_auction_error(empty_market)),
            "redistribution.run_nrmf": (self._on_nrmf, None),
            "verify.check_ir": (self._on_report, None),
            "verify.check_ic": (self._on_report, None),
        }
        for module, attr in TRACED + (DISPATCH,):
            name = span_name(module, attr)
            on_result, on_error = hooks.get(name, (None, None))
            if (module, attr) == ("profiles", "replace"):
                cls = modules["profiles"].ReportProfile
                original = cls.__dict__["replace"]
                wrapper = self._wrap(name, original, on_result, on_error)
                self._patches.append((cls, "replace", original, wrapper))
                continue
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original, on_result, on_error)
            for mod in _netredist_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self.enable()

    def enable(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def disable(self) -> None:
        """Restore every original binding."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # --- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn, on_result, on_error):
        tracer = self
        stack = self._stack
        measure_alloc = name == "critical_tree.critical_tree"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            alloc_base = None
            if measure_alloc and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                alloc_base = tracemalloc.get_traced_memory()[0]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, span_id, parent, frame, start)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._close(name, span_id, parent, frame, start)
            if alloc_base is not None:
                peak = tracemalloc.get_traced_memory()[1] - alloc_base
                tracer.alloc_peak_bytes = max(tracer.alloc_peak_bytes, peak)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _close(self, name, span_id, parent, frame, start) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.calls[name] += 1
        self.self_time[name] += duration - frame[1]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    # --- counters -------------------------------------------------------

    def _on_auction_error(self, empty_market):
        def on_error(exc):
            if isinstance(exc, empty_market):
                self.counters["empty_market"] += 1
        return on_error

    def _on_nrmf(self, outcome) -> None:
        revenue = sum(outcome.auction_payment.values(), Fraction(0))
        for root in outcome.branch_roots:
            self.counters["cf_branches"] += 1
            if outcome.branch_revenues[root] == revenue:
                self.counters["cf_unchanged"] += 1

    def _on_report(self, report) -> None:
        self.counters["deviations"] += report.checked

    # --- results --------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced ops: name -> (value, unit)."""
        per_op = 1 / ops
        metrics: dict[str, tuple[float, str]] = {}
        for module, attr in TRACED:
            name = span_name(module, attr)
            metrics[f"{name}.calls"] = (self.calls[name] * per_op, "count/op")
        for name in SELF_TIME_METRICS:
            metrics[f"{name}.self_s"] = (self.self_time[name] * per_op, "s/op")
        evals = sum(self.calls[k] for k in AUCTION_KINDS)
        branches = self.counters["cf_branches"]
        metrics.update({
            "auctions.evals_per_op": (evals * per_op, "count/op"),
            "critical_tree.builds_per_op":
                (self.calls["critical_tree.critical_tree"] * per_op, "count/op"),
            "profiles.induce_per_op":
                (self.calls["profiles.induce_graph"] * per_op, "count/op"),
            "auctions.empty_market": (self.counters["empty_market"] * per_op, "count/op"),
            "redistribution.cf_unchanged_ratio":
                (self.counters["cf_unchanged"] / branches if branches else 0.0, "ratio"),
            "verify.deviations_per_op": (self.counters["deviations"] * per_op, "count/op"),
        })
        return metrics

    def table(self, ops: int) -> list[tuple[str, int, float]]:
        """(name, calls/op, self ms/op) for every wrapped function."""
        return [
            (span_name(m, a), self.calls[span_name(m, a)] / ops,
             1000 * self.self_time[span_name(m, a)] / ops)
            for m, a in TRACED + (DISPATCH,)
        ]

    def write_spans(self, path) -> None:
        """Write the span log as JSON lines: a header, then one span each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                "spans": len(self.spans),
                "dropped_after_cap": self.dropped,
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _netredist_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "netredist" or key.startswith("netredist."))
    ]
