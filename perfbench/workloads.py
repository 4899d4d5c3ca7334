"""The four benchmark workloads: inputs made from a seed, the public pamod
calls each one makes, and the outputs each call is checked on.

A workload is a list of operations.  One pass runs every operation once,
in order; only the public call inside an operation is timed, and the
outputs it produced are turned into short strings afterwards, outside
the timed region.  An operation fails when its call raises, or when one
of its outputs differs from the recorded reference, from a value every
seed must give (``fixed``), or from another operation's output that it
must equal (``same_as``).

Calls look pamod functions up when they run, not when the workload is
built, so that the traced run's wrappers see them.  Sizes are chosen so
that one pass takes a few seconds on a 2-core machine; README.md says
why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from pamod import certify, cli, cut_events, cuts, models, modularity

WORKLOADS = ("sweep_exact", "sweep_heuristic", "graph_bulk", "exact_claims")

# graph_bulk size: h * n arrivals per model and pass
BULK_H = 4
BULK_N = 25_000

# exact_claims sizes
CLAIM_EXPANSION_N = 20
CLAIM_MODULARITY_N = 12
CLAIM_SCANS = ((1, 8), (2, 4))

ALL_TASKS = "expansion,modularity,bounds,lemma2"

# the certificate every seed must reproduce (README, certify docstring)
CERTIFICATE = {"bound": "0.92383", "minimizer_u": "0.0142", "minimizer_delta": "0.14851"}


def sha256_text(obj: Any) -> str:
    """Digest of an object's repr; reprs of ints, tuples and strings are canonical."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class Op:
    """One public call and the checks on what it returns.

    ``call`` performs the call and returns its raw result (timed);
    ``outputs`` turns that result into named strings (untimed).
    ``fixed`` maps output names to the value every seed must give;
    ``same_as`` maps output names to the (operation, output) they must
    equal within the same pass.
    """

    name: str
    call: Callable[[], Any]
    outputs: Callable[[Any], dict[str, str]]
    fixed: dict[str, str] = field(default_factory=dict)
    same_as: dict[str, tuple[str, str]] = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    state: dict = field(default_factory=dict)  # results shared between ops of a pass


def input_seeds(workload: str, seed: int, count: int) -> list[int]:
    """The program seeds a workload uses, drawn from the benchmark seed."""
    rng = random.Random(f"pamod-bench:{workload}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


# ---------------------------------------------------------------- sweeps


def _sweep_op(name: str, argv: list[str], out_json: Path, out_csv: Path, rows: int) -> Op:
    def outputs(code: int) -> dict[str, str]:
        report = json.loads(out_json.read_text())
        return {
            "exit": str(code),
            "status": report["summary"]["status"],
            "rows": str(len(report["rows"])),
            "json_sha256": sha256_file(out_json),
            "csv_sha256": sha256_file(out_csv),
        }

    full = argv + ["--out-json", str(out_json), "--out-csv", str(out_csv)]
    return Op(
        name=name,
        call=lambda: cli.main(full),
        outputs=outputs,
        fixed={"exit": "0", "status": "ok", "rows": str(rows)},
    )


def _sweep_exact(seed: int, tmp: Path) -> list[Op]:
    (root,) = input_seeds("sweep_exact", seed, 1)
    argv = [
        "sweep", "--model", "standard", "--h-list", "2,3", "--n-list", "8,10,12",
        "--trials", "10", "--root-seed", str(root), "--tasks", ALL_TASKS,
    ]
    return [_sweep_op("sweep", argv, tmp / "exact.json", tmp / "exact.csv", rows=60)]


def _sweep_heuristic(seed: int, tmp: Path) -> list[Op]:
    root_tilde, root_standard = input_seeds("sweep_heuristic", seed, 2)
    tilde = [
        "sweep", "--model", "tilde", "--h-list", "2", "--n-list", "32",
        "--trials", "4", "--root-seed", str(root_tilde), "--tasks", ALL_TASKS,
    ]
    standard = [
        "sweep", "--model", "standard", "--h-list", "2", "--n-list", "500",
        "--trials", "4", "--root-seed", str(root_standard), "--tasks", "modularity",
    ]
    return [
        _sweep_op("sweep_tilde", tilde, tmp / "tilde.json", tmp / "tilde.csv", rows=4),
        _sweep_op("sweep_standard", standard, tmp / "std.json", tmp / "std.csv", rows=4),
    ]


# ------------------------------------------------------------ graph_bulk


def _graph_bulk(seed: int, tmp: Path, state: dict) -> list[Op]:
    ops = []
    for model, gseed in zip(models.Model, input_seeds("graph_bulk", seed, 2)):
        m = model.value
        path = tmp / f"{m}.json"

        def generate(m=m, gseed=gseed):
            state[m] = models.generate(m, BULK_H, BULK_N, gseed)
            return state[m]

        def save(m=m, path=path):
            return models.save_graph(state[m][1], path)

        def load(path=path):
            return models.load_graph(path)

        ops += [
            Op(
                name=f"generate/{m}",
                call=generate,
                outputs=lambda res: {
                    "targets_sha256": sha256_text(res[0].targets),
                    "edges_sha256": sha256_text(res[1].edges),
                },
            ),
            Op(
                name=f"save_graph/{m}",
                call=save,
                outputs=lambda _res, path=path: {"file_sha256": sha256_file(path)},
            ),
            Op(
                name=f"load_graph/{m}",
                call=load,
                outputs=lambda g, m=m: {
                    "edges_sha256": sha256_text(g.edges),
                    "equals_saved": str(g == state[m][1]),
                },
                fixed={"equals_saved": "True"},
                same_as={"edges_sha256": (f"generate/{m}", "edges_sha256")},
            ),
        ]
    return ops


# ---------------------------------------------------------- exact_claims


def _exact_claims(seed: int) -> list[Op]:
    ops = [
        Op(
            name="certify_modularity_bound",
            call=lambda: certify.certify_modularity_bound(),
            outputs=lambda c: {
                "bound": repr(c.bound),
                "minimizer_u": repr(c.minimizer_u),
                "minimizer_delta": repr(c.minimizer_delta),
            },
            fixed=CERTIFICATE,
        ),
        Op(
            name="check_expansion_constant",
            call=lambda: certify.check_expansion_constant(),
            outputs=lambda ok: {"ok": str(ok)},
            fixed={"ok": "True"},
        ),
    ]
    for model in models.Model:
        for h, n in CLAIM_SCANS:
            ops.append(
                Op(
                    name=f"scan_cut_events/{model.value}/h{h}n{n}",
                    call=lambda model=model, h=h, n=n: cut_events.scan_cut_events(model, h, n),
                    outputs=lambda s: {
                        "pairs_checked": str(s.pairs_checked),
                        "violations": str(len(s.violations)),
                    },
                    fixed={"violations": "0"},
                )
            )
    seeds = input_seeds("exact_claims", seed, 4)
    limit = cuts.EXACT_SUBSET_LIMIT
    for i, model in enumerate(models.Model):
        m = model.value
        _, g_exp = models.generate(model, 2, CLAIM_EXPANSION_N, seeds[2 * i])
        _, g_mod = models.generate(model, 2, CLAIM_MODULARITY_N, seeds[2 * i + 1])
        half = CLAIM_EXPANSION_N // 2
        ops += [
            Op(
                name=f"exact_expansion/{m}",
                call=lambda g=g_exp: cuts.exact_expansion(g, Fraction(1, 2), limit=limit),
                outputs=lambda r: {"alpha": frac(r.alpha), "witness": repr(sorted(r.witness))},
                same_as={"alpha": (f"expansion_profile/{m}", "alpha_half")},
            ),
            Op(
                name=f"expansion_profile/{m}",
                call=lambda g=g_exp: cuts.expansion_profile(g, limit=limit),
                outputs=lambda p: {
                    "profile": ",".join(frac(p[k]) for k in sorted(p)),
                    "alpha_half": frac(p[half]),
                },
            ),
            Op(
                name=f"exact_modularity/{m}",
                call=lambda g=g_mod: modularity.exact_modularity(g),
                outputs=lambda r: {
                    "q_star": frac(r[0]),
                    "partition": repr([sorted(p) for p in r[1]]),
                },
            ),
        ]
    return ops


def build(name: str, seed: int, tmp: Path) -> Workload:
    """Make a workload's inputs from ``seed``; files go under ``tmp``."""
    if name == "sweep_exact":
        return Workload(_sweep_exact(seed, tmp))
    if name == "sweep_heuristic":
        return Workload(_sweep_heuristic(seed, tmp))
    if name == "graph_bulk":
        state: dict = {}
        return Workload(_graph_bulk(seed, tmp, state), state)
    if name == "exact_claims":
        return Workload(_exact_claims(seed))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


@dataclass
class PassResult:
    seconds: float  # sum of the timed call durations
    outputs: dict[str, dict[str, str]]  # op name -> outputs, for calls that returned
    errors: dict[str, str]  # op name -> why the call or its output read failed


def run_pass(workload: Workload) -> PassResult:
    """Run every operation once; only the public calls are timed."""
    seconds = 0.0
    outputs: dict[str, dict[str, str]] = {}
    errors: dict[str, str] = {}
    for op in workload.ops:
        start = time.perf_counter()
        try:
            result = op.call()
        # argparse exits through SystemExit; any failure is counted, not fatal
        except (Exception, SystemExit) as exc:
            seconds += time.perf_counter() - start
            where = traceback.extract_tb(exc.__traceback__)[-1]
            errors[op.name] = (
                f"raised {type(exc).__name__}: {exc} "
                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
            )
            continue
        seconds += time.perf_counter() - start
        try:
            outputs[op.name] = op.outputs(result)
        except Exception as exc:
            errors[op.name] = f"output unreadable: {type(exc).__name__}: {exc}"
    workload.state.clear()
    return PassResult(seconds, outputs, errors)


def check(workload: Workload, result: PassResult, expected: dict | None) -> dict[str, str]:
    """Op name -> problem for every operation of the pass that failed.

    ``expected`` maps op names to the outputs they must reproduce (the
    recorded reference, or the first pass when the seed has none).
    """
    problems = dict(result.errors)
    for op in workload.ops:
        out = result.outputs.get(op.name)
        if out is None:
            continue
        for key, want in op.fixed.items():
            if out.get(key) != want:
                problems[op.name] = f"{key}={out.get(key)!r}, every seed gives {want!r}"
        for key, (other, other_key) in op.same_as.items():
            want = result.outputs.get(other, {}).get(other_key)
            if out.get(key) != want:
                problems[op.name] = f"{key}={out.get(key)!r} but {other} {other_key}={want!r}"
        if expected is not None and out != expected.get(op.name):
            keys = sorted(k for k in out if out[k] != expected.get(op.name, {}).get(k))
            problems[op.name] = f"differs from the reference in {keys}"
    return problems
