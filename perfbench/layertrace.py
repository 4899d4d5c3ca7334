"""Per-layer spans and work counts, recorded from outside the program.

``LayerTrace`` wraps the public pamod functions named in ``TRACED`` in
every ``pamod`` namespace that holds them (``experiment`` binds
``generate`` by name, ``cut_events`` binds ``sample_target_matrix``, the
package binds everything it exports), and puts the originals back on
exit.  Each wrapper records one span per call; a function's self time is
its spans minus the spans of the traced calls made inside them.

The counts are exact.  Those marked "computed" follow from the call's
arguments by a formula (``exhaustive_subsets``, ``dp_pairs``,
``enumerated_logs``) instead of being counted inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# span name "<module>.<fn>" for each traced public function
TRACED = {
    "models": ("generate", "merge", "save_graph", "load_graph", "sample_target_matrix"),
    "cuts": ("exact_expansion", "expansion_profile", "sampled_expansion"),
    "modularity": ("exact_modularity", "greedy_modularity"),
    "cut_events": ("estimate_cut_event", "scan_cut_events"),
    "certify": ("certify_modularity_bound",),
    "experiment": ("run_experiment", "emit_report"),
    "cli": ("main",),
}
SPANS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

COUNTS = (
    "models.generate.arrivals",
    "models.sample_target_matrix.draws",
    "cuts.exhaustive.subsets",
    "cuts.sampled_expansion.trials",
    "modularity.exact_modularity.dp_pairs",
    "modularity.greedy_modularity.merges",
    "cut_events.estimate_cut_event.trials",
    "cut_events.scan_cut_events.logs",
    "cut_events.scan_cut_events.pairs_checked",
    "certify.certify_modularity_bound.grid_points",
    "experiment.emit_report.bytes",
)

# unit of every per-layer metric a traced run reports
UNITS = {
    **{f"{span}.calls": "count" for span in SPANS},
    **{f"{span}.self_s": "s" for span in SPANS},
    **{name: "bytes" if name.endswith(".bytes") else "count" for name in COUNTS},
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def exhaustive_subsets(n: int) -> int:
    """Nonempty subsets an exhaustive expansion sweep visits (computed)."""
    return 2**n - 1


def dp_pairs(n: int) -> int:
    """(mask, submask) pairs over n vertices, the size of the modularity DP (computed)."""
    return 3**n


def enumerated_logs(model: str, hn: int) -> int:
    """Arrival logs of length h*n: (h*n)! standard, (h*n - 1)! tilde (computed).

    ``model`` is a ``Model`` or its wire name; the two compare equal.
    """
    return math.factorial(hn if model == "standard" else hn - 1)


def _count(name: str, a: dict, result, counts: Counter) -> None:
    """Add the work counts of one returned call; ``a`` holds every argument."""
    if name == "models.generate":
        counts["models.generate.arrivals"] += a["h"] * a["n"]
    elif name == "models.sample_target_matrix":
        counts["models.sample_target_matrix.draws"] += (a["length"] - 1) * a["trials"]
    elif name == "cuts.exact_expansion":
        if result.witness is not None:  # otherwise floor(u*n) < 1 and nothing is swept
            counts["cuts.exhaustive.subsets"] += exhaustive_subsets(a["graph"].n)
    elif name == "cuts.expansion_profile":
        if result:
            counts["cuts.exhaustive.subsets"] += exhaustive_subsets(a["graph"].n)
    elif name == "cuts.sampled_expansion":
        if result.witness is not None:
            counts["cuts.sampled_expansion.trials"] += a["trials"]
    elif name == "modularity.exact_modularity":
        if a["graph"].m:
            counts["modularity.exact_modularity.dp_pairs"] += dp_pairs(a["graph"].n)
    elif name == "modularity.greedy_modularity":
        counts["modularity.greedy_modularity.merges"] += a["graph"].n - len(result[1])
    elif name == "cut_events.estimate_cut_event":
        counts["cut_events.estimate_cut_event.trials"] += result.trials
        counts["cut_events.estimate_cut_event.hits"] += result.hits  # for hit_rate()
    elif name == "cut_events.scan_cut_events":
        hn = a["h"] * a["n"]
        counts["cut_events.scan_cut_events.logs"] += enumerated_logs(a["model"], hn)
        counts["cut_events.scan_cut_events.pairs_checked"] += result.pairs_checked
    elif name == "certify.certify_modularity_bound":
        counts["certify.certify_modularity_bound.grid_points"] += round(0.5 / a["grid_step"])
    elif name == "experiment.emit_report":
        counts["experiment.emit_report.bytes"] += len(result.encode())


class LayerTrace:
    """Context manager that traces the ``TRACED`` functions while it is open."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_s: list[float] = []  # per open span: time spent in traced children
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            _count(name, bound.arguments, result, self.counts)
            return result

        return wrapper

    def __enter__(self) -> "LayerTrace":
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"pamod.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "pamod" and not modname.startswith("pamod."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Every span's calls and self time, and every count."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def hit_rate(self) -> float | None:
        """Cut-event hits over trials, or None when no estimate ran.

        An output of the sampler, fixed by the seed, not a cost: it is
        reported beside the metrics, and the sweep reports that carry each
        cell's ``p_hat`` are checked against the reference.
        """
        trials = self.counts["cut_events.estimate_cut_event.trials"]
        hits = self.counts["cut_events.estimate_cut_event.hits"]
        return hits / trials if trials else None
