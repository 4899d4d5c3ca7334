"""One-shot listing of the ROADMAP's baseline table, plus generate at 10^4
and 10^5.  Ungated: nothing checks these numbers, and the gated benchmark
(``run.py``) does not run them.

    python3 perfbench/baseline.py

Each row's inputs are built first, untimed; then its call runs three
times in this process and the median, minimum and maximum wall times are
written to ``perfbench/baseline.json``.  The rows take about four minutes on a 2-core
Xeon, a minute of it for the three calls of generate at n=10^6.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pamod import certify, cli, cut_events, cuts, models, modularity  # noqa: E402

import run  # noqa: E402
from workloads import ALL_TASKS  # noqa: E402

SEED = 1
REPEATS = 3
OUT = HERE / "baseline.json"


def graph(n: int):
    return models.generate("standard", 2, n, SEED)[1]


def sweep(tmp: str, n_list: str, h_list: str, trials: str):
    argv = ["sweep", "--model", "standard", "--h-list", h_list, "--n-list", n_list,
            "--trials", trials, "--root-seed", str(SEED), "--tasks", ALL_TASKS,
            "--out-json", f"{tmp}/r.json", "--out-csv", f"{tmp}/r.csv"]
    return lambda: cli.main(argv)


def rows(tmp: str):
    """(label, size, zero-argument call) per row; inputs are built here."""
    half = Fraction(1, 2)
    g16, g20, g12, g100, g200 = graph(16), graph(20), graph(12), graph(100), graph(200)
    spec = cut_events.CutEventSpec(h=2, n=100, subset={100}, arrivals={200})
    for n in (10**4, 10**5, 10**6):
        yield ("generate (standard)", f"h=4, n={n}",
               lambda n=n: models.generate("standard", 4, n, SEED))
    yield "expansion_profile", "n=16", lambda: cuts.expansion_profile(g16)
    yield "expansion_profile", "n=20", lambda: cuts.expansion_profile(g20)
    yield "exact_expansion, u=1/2", "n=20", lambda: cuts.exact_expansion(g20, half)
    yield "exact_modularity", "n=12", lambda: modularity.exact_modularity(g12)
    yield "greedy_modularity", "n=200", lambda: modularity.greedy_modularity(g200, SEED)
    yield ("sampled_expansion", "n=100 x 64 trials",
           lambda: cuts.sampled_expansion(g100, half, 64, SEED))
    yield ("sampled_expansion", "n=200 x 8 trials",
           lambda: cuts.sampled_expansion(g200, half, 8, SEED))
    yield ("estimate_cut_event", "h*n=200, 20000 trials",
           lambda: cut_events.estimate_cut_event("standard", spec, 20000, SEED))
    yield ("scan_cut_events (standard)", "h=1, n=8",
           lambda: cut_events.scan_cut_events("standard", 1, 8))
    yield "certify_modularity_bound (default)", "-", certify.certify_modularity_bound
    yield ("pamod sweep, all tasks", "h=2,3; n=8,10,12; 10 trials",
           sweep(tmp, "8,10,12", "2,3", "10"))
    yield "pamod sweep, all tasks", "h=2; n=100; 2 trials", sweep(tmp, "100", "2", "2")


def main() -> int:
    listing = []
    tmp = HERE.parent / ".perfbench_tmp" / "baseline"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for label, size, call in rows(str(tmp)):
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            median = statistics.median(times)
            listing.append({
                "layer_or_run": label, "size": size, "median_s": median,
                "min_s": min(times), "max_s": max(times), "repeats": len(times),
            })
            print(f"{label:36} {size:30} {median:9.3f} s", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {"environment": run.environment(), "seed": SEED, "rows": listing}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
