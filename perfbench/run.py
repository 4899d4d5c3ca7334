"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports pamod from
``src/`` there and nowhere else, and exits with code 2 when that is
missing.  ``PAMOD_THREADS`` is removed from the environment, so sweeps
run in this one process.

The run measures set-up time in fresh interpreters (``probe.py``), then
repeats passes of the workload for ``--seconds`` and checks every pass's
outputs.  With ``--trace 0`` every pass is untraced and the result holds
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the result holds the per-layer metrics of ``layertrace``.

The end-to-end timings are reported at a nominal host speed.  A shared
host runs the same code up to ~1.6x slower for seconds to minutes at a
time, so next to every set-up sample and every untraced pass the run
times a fixed loop, the yardstick, and scales the sample by
``NOMINAL_YARDSTICK_S / yardstick time``.  pamod's code does not touch
the yardstick, so a faster pamod still reads faster.  The raw wall
times, the yardstick times and a flag for a run during which the host
changed speed are in the detail line.

Detail lines (environment, samples, host speed, error rate, slowest
layer) come first; the last line of standard output is the result
object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5
# The yardstick's time on the 2-core Intel Xeon the benchmark was written
# on, at that host's faster speed: a scaled time reads about as a wall
# time read there.
NOMINAL_YARDSTICK_S = 0.060
# yardstick ratio (second half of the passes / first half) beyond which a
# run is marked as one during which the host changed speed
SPEED_CHANGE = 1.25
# random-walk target of the yardstick: larger than a core's private
# caches, so the yardstick also feels neighbours that evict shared cache
_YARDSTICK_BUF = bytearray(1 << 22)
TIMING_NOTE = (
    "process-local timing only: time.perf_counter around each public call and "
    "getrusage of this process; no system-wide tracing or hardware counters"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, tmp: Path) -> float:
    """Seconds from starting an interpreter until pamod and the inputs are ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(tmp)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def yardstick_s() -> float:
    """Seconds a fixed pure-Python random walk over 4 MiB takes now.

    Its time follows the host's speed for pamod's kind of work: on a
    shared 2-core host, ten runs of a workload spread 0.04-0.14
    (IQR / median) in pass times divided by the yardstick, against
    0.08-0.26 in raw pass times.
    """
    buf = _YARDSTICK_BUF
    mask = len(buf) - 1
    total = j = 0
    start = time.perf_counter()
    for i in range(250_000):
        j = (j * 1103515245 + 12345) & mask
        total += buf[j] ^ (i & 7)
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, yardstick: float) -> float:
    return seconds * NOMINAL_YARDSTICK_S / yardstick


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pamod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "pamod_threads": int(os.environ.get("PAMOD_THREADS", "1")),
        "timing": TIMING_NOTE,
    }


def tail(values: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ranked = sorted(values)
    rank = len(ranked) - 10
    if rank < 1:
        return None
    return {"percentile": 100 * rank // len(ranked), "value": ranked[rank - 1]}


@dataclass
class Passes:
    plain: list[float] = field(default_factory=list)  # untraced pass times
    yardstick: list[float] = field(default_factory=list)  # mean around each untraced pass
    layered: list = field(default_factory=list)  # (traced pass time, LayerTrace)
    attempted: int = 0
    failed: int = 0
    problems: dict[str, str] = field(default_factory=dict)  # first problem per op


def run_passes(wl, seconds: float, expected, traced: bool) -> Passes:
    """Repeat passes for ``seconds``; with ``traced`` every second pass is traced.

    ``expected`` holds the outputs every pass must reproduce; without a
    recorded reference the first pass's outputs stand in for it.
    """
    from layertrace import LayerTrace
    from workloads import check, run_pass

    out = Passes()
    deadline = time.perf_counter() + seconds
    before = None  # yardstick right before the next untraced pass
    while True:
        started = time.perf_counter()
        for trace_this in (False, True) if traced else (False,):
            gc.collect()
            if trace_this:
                with LayerTrace() as lt:
                    result = run_pass(wl)
                out.layered.append((result.seconds, lt))
                before = None
            else:
                before = before or yardstick_s()
                result = run_pass(wl)
                after = yardstick_s()
                out.plain.append(result.seconds)
                out.yardstick.append((before + after) / 2)
                before = after
            problems = check(wl, result, expected)
            out.attempted += len(wl.ops)
            out.failed += len(problems)
            for op, problem in problems.items():
                out.problems.setdefault(op, problem)
            if expected is None:
                expected = result.outputs
        now = time.perf_counter()
        # stop before a pass that would end past the deadline
        if now + (now - started) > deadline:
            return out


def layer_metrics(plain: list[float], layered: list) -> dict[str, float]:
    """Per-pass layer metrics: counts from the first traced pass, medians of times."""
    per_pass = [lt.metrics() for _, lt in layered]
    traced = [seconds for seconds, _ in layered]
    out = dict(per_pass[0])
    for name in out:
        if name.endswith(".self_s"):
            out[name] = statistics.median(m[name] for m in per_pass)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["trace.coverage"] = statistics.median(
        sum(v for k, v in m.items() if k.endswith(".self_s")) / seconds
        for m, seconds in zip(per_pass, traced)
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pamod" / "__init__.py").is_file():
        print(f"error: no pamod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("PAMOD_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    recorded = json.loads(REFERENCE.read_text())["workloads"]
    expected = recorded.get(args.workload, {}).get(str(args.seed))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup = [], []
        for _ in range(SETUP_SAMPLES):
            yardstick = yardstick_s()
            setup_raw.append(measure_setup(args.workload, args.seed, tmp))
            setup.append(at_nominal_speed(setup_raw[-1], yardstick))
        wl = workloads.build(args.workload, args.seed, tmp)
        passes = run_passes(wl, args.seconds, expected, traced=bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wall = [at_nominal_speed(*pair) for pair in zip(passes.plain, passes.yardstick)]
    half = len(passes.yardstick) // 2
    speed_ratio = (statistics.median(passes.yardstick[half:])
                   / statistics.median(passes.yardstick[: half or 1]))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "checked_against": "recorded reference" if expected else "invariants and first pass",
        "error_rate": passes.failed / passes.attempted,
        "problems": passes.problems,
        "wall_s": {
            "median": statistics.median(wall),
            "samples": len(wall),
            "tail": tail(wall),
            "values": wall,
            "raw_median": statistics.median(passes.plain),
            "raw_min": min(passes.plain),
            "raw_values": passes.plain,
        },
        "setup_s": {
            "median": statistics.median(setup),
            "values": setup,
            "raw_median": statistics.median(setup_raw),
        },
        "yardstick_s": {
            "nominal": NOMINAL_YARDSTICK_S,
            "median": statistics.median(passes.yardstick),
            "values": passes.yardstick,
            "second_half_over_first": speed_ratio,
            "host_speed_changed": not 1 / SPEED_CHANGE <= speed_ratio <= SPEED_CHANGE,
        },
    }
    print(json.dumps(detail))
    if args.trace:
        from layertrace import UNITS

        metrics = layer_metrics(passes.plain, passes.layered)
        slowest = max((k for k in metrics if k.endswith(".self_s")), key=metrics.get)
        traced_wall = statistics.median(s for s, _ in passes.layered)
        print(f"slowest layer: {slowest[: -len('.self_s')]} "
              f"({metrics[slowest]:.3f} s self time of a {traced_wall:.3f} s traced pass, "
              f"{100 * metrics[slowest] / traced_wall:.0f}%)")
        print(f"cut_events.estimate_cut_event.hit_rate (an output, not a metric): "
              f"{passes.layered[0][1].hit_rate()}")
        result_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result_metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
