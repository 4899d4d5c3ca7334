"""Reproducible sweeps over generated graphs, with reports.

A sweep runs per-trial analyses over a (h, n) grid for one model.  Each
row's seed is derived from the root seed by the documented counter
scheme (``derive_seed(root_seed, row_index)``), so any row can be
regenerated in isolation; sub-streams for the sampled-expansion and
greedy tie-break randomness hang off the row seed the same way.

Deterministic inequalities (exact q* against the exact bounds, and the
exhaustive cut-event scans) are flagged per row and counted in the
summary; a run with any such violation is marked FAILED.  Monte-Carlo
quantities (sampled expansion, greedy scores, cut-event frequencies at
h*n > 8) are reported with their method labels and never counted as
violations.  Large-n behavior such as "expansion at least 0.03418*h" is
likewise summarized as empirical frequencies only; no pass/fail
threshold is attached to it.

Reports serialize to JSON (config + rows + summary) and CSV (rows
only).  Floats are canonicalized to 12 significant digits when rows are
built, rationals render as "p/q" strings, so identical configs yield
byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from itertools import product

from pamod.cut_events import CutEventSpec, estimate_cut_event, scan_cut_events
from pamod.cuts import (
    EXACT_SUBSET_LIMIT, SearchMethod, expansion_profile, sampled_expansion
)
from pamod.models import (
    Model, _check_model, _check_seed, _json_int, derive_seed, generate
)
from pamod.modularity import (
    EXACT_PARTITION_LIMIT,
    bound_from_expansion_profile,
    exact_modularity,
    expansion_modularity_bound,
    greedy_modularity,
)

EXPANSION_CONSTANT = 0.03418
CERTIFIED_BOUND = 0.92383

# Largest h*n whose lemma2 cell is an exact scan rather than Monte Carlo.
EXACT_EVENT_LIMIT = 8

TASKS = ("expansion", "modularity", "bounds", "lemma2")

ROW_COLUMNS = (
    "seed",
    "h",
    "n",
    "model",
    "alpha",
    "alpha_method",
    "q",
    "q_method",
    "profile_bound",
    "global_bound",
    "q_above_profile",
    "q_above_global",
)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _frac_str(x) -> str | None:
    """Exact "p/q" form of anything ``Fraction()`` accepts; inf gives "inf"."""
    if x is None:
        return None
    if x == math.inf:
        return "inf"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class ExperimentConfig:
    model: Model
    h_list: tuple[int, ...]
    n_list: tuple[int, ...]
    trials: int
    root_seed: int
    tasks: tuple[str, ...] = ("expansion", "modularity", "bounds")
    exact_expansion_limit: int = 16
    exact_modularity_limit: int = 12
    sample_trials: int = 64
    event_trials: int = 20000

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _check_model(self.model))
        # ints only, as in graph files: no bool, float or string is coerced
        for name in ("h_list", "n_list"):
            values = tuple(_json_int(v, f"{name} entry") for v in getattr(self, name))
            object.__setattr__(self, name, values)
        counts = ("trials", "sample_trials", "event_trials")
        for name in (*counts, "exact_expansion_limit", "exact_modularity_limit"):
            _json_int(getattr(self, name), name)
        object.__setattr__(
            self, "tasks", tuple(dict.fromkeys(str(t) for t in self.tasks))
        )
        if not self.h_list or min(self.h_list) < 1:
            raise ValueError("h_list must be nonempty with h >= 1")
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError("n_list must be nonempty with n >= 1")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"need {name} >= 1, got {getattr(self, name)}")
        _check_seed(self.root_seed)
        bad = [t for t in self.tasks if t not in TASKS]
        if bad:
            raise ValueError(f"unknown tasks {bad}; valid tasks are {TASKS}")
        if not self.tasks:
            raise ValueError("tasks must be nonempty")
        if (limit := self.exact_expansion_limit) > EXACT_SUBSET_LIMIT:
            cap = f"EXACT_SUBSET_LIMIT={EXACT_SUBSET_LIMIT}, the 2^n tables' memory cap"
            raise ValueError(f"exact_expansion_limit={limit} exceeds {cap}")
        if (limit := self.exact_modularity_limit) > EXACT_PARTITION_LIMIT:
            cap = f"{EXACT_PARTITION_LIMIT}, the 3^n partition DP's time cap"
            raise ValueError(f"exact_modularity_limit={limit} exceeds {cap}")

    def to_dict(self) -> dict:
        """Fields in declaration order; the model as its value, tuples as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Model):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            kind = type(payload).__name__
            raise ValueError(f"a config must be a JSON object, got {kind}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        required = {
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        }
        missing = required - set(payload)
        if missing:
            raise ValueError(f"missing config keys {sorted(missing)}")
        try:
            return cls(**payload)
        except TypeError as exc:  # e.g. "h_list": 3
            raise ValueError(f"malformed config: {exc}") from None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[dict, ...]
    summary: dict


def _compute_row(config: ExperimentConfig, h: int, n: int, seed: int) -> dict:
    _log, graph = generate(config.model, h, n, seed)
    row: dict = dict.fromkeys(ROW_COLUMNS)
    row.update(seed=seed, h=h, n=n, model=config.model.value)
    alpha = None
    profile = None
    if "expansion" in config.tasks or "bounds" in config.tasks:
        if n <= config.exact_expansion_limit:
            profile = expansion_profile(graph)
            alpha = profile[n // 2] if n >= 2 else math.inf
            method = SearchMethod.EXHAUSTIVE
        else:
            res = sampled_expansion(
                graph,
                Fraction(1, 2),
                trials=config.sample_trials,
                seed=derive_seed(seed, 1),
            )
            alpha = res.alpha
            method = SearchMethod.SAMPLED
        if "expansion" in config.tasks:
            row["alpha"] = _frac_str(alpha)
            row["alpha_method"] = method.value
    q = None
    if "modularity" in config.tasks:
        if n <= config.exact_modularity_limit:
            q, _parts = exact_modularity(graph)
            row["q_method"] = "exact"
        else:
            q, _parts = greedy_modularity(graph, seed=derive_seed(seed, 2))
            row["q_method"] = "greedy"
        row["q"] = _frac_str(q)
    if "bounds" in config.tasks and profile is not None:
        q_exact = row["q_method"] == "exact"
        if n >= 2:
            pbound = bound_from_expansion_profile(profile, h, n)
            row["profile_bound"] = _frac_str(pbound)
            row["q_above_profile"] = bool(q > pbound) if q_exact else None
        gbound = expansion_modularity_bound(graph, alpha)
        row["global_bound"] = _frac_str(gbound)
        row["q_above_global"] = bool(q > gbound) if q_exact else None
    return row


def _cut_event_cell(config: ExperimentConfig, h: int, n: int, index: int) -> dict:
    cell: dict = {"h": h, "n": n}
    if h * n <= EXACT_EVENT_LIMIT and n >= 2:
        scan = scan_cut_events(config.model, h, n)
        cell["mode"] = "exact"
        cell["pairs_checked"] = scan.pairs_checked
        cell["violations"] = len(scan.violations)
    else:
        arrivals = frozenset({h * n}) if h >= 2 else frozenset()
        spec = CutEventSpec(h=h, n=n, subset=frozenset({n}), arrivals=arrivals)
        est = estimate_cut_event(
            config.model,
            spec,
            trials=config.event_trials,
            seed=derive_seed(config.root_seed, 10**6 + index),
        )
        cell["mode"] = "mc"
        cell["trials"] = est.trials
        cell["p_hat"] = _round12(est.p_hat)
        cell["bound"] = _frac_str(est.bound)
        cell["exceeds_3se"] = bool(est.p_hat > float(est.bound) + 3.0 * est.std_err)
    return cell


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep; deterministic for a fixed config.

    Row order follows h_list x n_list x trials; row i has the seed
    ``derive_seed(root_seed, i)``.
    """
    rows = [
        _compute_row(config, h, n, derive_seed(config.root_seed, i))
        for i, (h, n, _trial) in enumerate(
            product(config.h_list, config.n_list, range(config.trials))
        )
    ]
    cells = []
    if "lemma2" in config.tasks:
        cells = [
            _cut_event_cell(config, h, n, i)
            for i, (h, n) in enumerate(product(config.h_list, config.n_list))
        ]
    summary = _summarize(rows, cells)
    return ExperimentReport(config=config, rows=tuple(rows), summary=summary)


def _ratio(part, total: int) -> float | None:
    return _round12(part / total) if total else None


def _summarize(rows, cells) -> dict:
    violations = {
        "q_above_profile_bound": sum(r["q_above_profile"] is True for r in rows),
        "q_above_global_bound": sum(r["q_above_global"] is True for r in rows),
        "cut_event": sum(c.get("violations", 0) for c in cells),
    }
    alpha_ratios = []
    alpha_hits = 0
    for r in rows:
        if r["alpha"] not in (None, "inf"):
            a = float(Fraction(r["alpha"]))
            alpha_ratios.append(a / r["h"])
            alpha_hits += a >= EXPANSION_CONSTANT * r["h"]
    qs_exact = [float(Fraction(r["q"])) for r in rows if r["q_method"] == "exact"]
    qs_all = [float(Fraction(r["q"])) for r in rows if r["q"] is not None]
    summary: dict = {
        "rows": len(rows),
        "violations": violations,
        "status": "FAILED" if any(violations.values()) else "ok",
        "min_alpha_over_h": _round12(min(alpha_ratios)) if alpha_ratios else None,
        "mean_alpha_over_h": _ratio(sum(alpha_ratios), len(alpha_ratios)),
        "max_q": _round12(max(qs_all)) if qs_all else None,
        "frac_alpha_ge_constant_h": _ratio(alpha_hits, len(alpha_ratios)),
        "frac_exact_q_le_certified": _ratio(
            sum(q <= CERTIFIED_BOUND for q in qs_exact), len(qs_exact)
        ),
        "expansion_constant": EXPANSION_CONSTANT,
        "certified_bound": CERTIFIED_BOUND,
    }
    if cells:
        summary["cut_event_cells"] = cells
    return summary


def emit_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report; "json" carries config+rows+summary, "csv" rows."""
    if fmt == "json":
        payload = {
            "config": report.config.to_dict(),
            "rows": list(report.rows),
            "summary": report.summary,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_COLUMNS)
        for row in report.rows:
            out = []
            for col in ROW_COLUMNS:
                val = row[col]
                if val is None:
                    out.append("")
                elif isinstance(val, bool):
                    out.append("1" if val else "0")
                else:
                    out.append(str(val))
            writer.writerow(out)
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_json(text: str) -> ExperimentReport:
    payload = json.loads(text)
    config = ExperimentConfig.from_dict(payload["config"])
    return ExperimentReport(
        config=config,
        rows=tuple(payload["rows"]),
        summary=payload["summary"],
    )
