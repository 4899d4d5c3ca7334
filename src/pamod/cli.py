"""Command line interface.

Subcommands: gen, expand, mod, certify, lemma2, sweep.  Exit codes:
0 on success, 1 when a deterministic inequality is violated, 2 on usage
errors (argparse errors and invalid parameters).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from pamod import certify as cert
from pamod import cut_events as events
from pamod import cuts, modularity, models
from pamod.experiment import (
    TASKS,
    ExperimentConfig,
    _frac_str,
    _round12,
    emit_report,
    run_experiment,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# What a string option needs instead of "" (a file path if not listed).
_NONEMPTY = {"subset": "at least one vertex", "u": "a size fraction",
             "spec": "a JSON spec", "h_list": "at least one h",
             "n_list": "at least one n", "tasks": "at least one task"}


def _write_or_print(text: str, path: str | None) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _log, graph = models.generate(
        models.Model(args.model), args.h, args.n, args.seed
    )
    _write_or_print(models.graph_to_text(graph), args.out)
    return EXIT_OK


def _cmd_expand(args) -> int:
    graph = models.load_graph(args.graph)
    if args.subset is not None:
        subset = [int(v) for v in args.subset.split(",")]
        report = cuts.edge_boundary(graph, subset)
        payload = {
            "subset": sorted(report.subset),
            "e_inner": report.e_inner,
            "e_boundary": report.e_boundary,
            "vol": report.vol,
            "ratio": _frac_str(report.ratio),
        }
    else:
        if args.trials is not None:
            res = cuts.sampled_expansion(graph, args.u, args.trials, args.seed)
        else:
            res = cuts.exact_expansion(graph, args.u, limit=args.limit)
        payload = {
            "u": _frac_str(res.u),
            "alpha": _frac_str(res.alpha),
            "witness": None if res.witness is None else sorted(res.witness),
            "method": res.method.value,
        }
    _write_or_print(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_mod(args) -> int:
    graph = models.load_graph(args.graph)
    if args.greedy:
        q, parts = modularity.greedy_modularity(graph, seed=args.seed)
        method = "greedy"
    else:
        q, parts = modularity.exact_modularity(graph, limit=args.limit)
        method = "exact"
    payload = {
        "q": _frac_str(q),
        "method": method,
        "partition": [sorted(p) for p in parts],
    }
    _write_or_print(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    result = cert.certify_modularity_bound(
        grid_step=args.grid_step,
        precision=args.precision,
        with_trace=args.trace is not None,
    )
    eta = cert.EXPANSION_CONSTANT
    payload = {
        "bound": result.bound,
        "minimizer_u": result.minimizer_u,
        "minimizer_delta": result.minimizer_delta,
        "grid_step": result.grid_step,
        "delta_precision": result.delta_precision,
        "constant_ok": cert.check_expansion_constant(eta),
        "constant_value": _round12(cert.expansion_constant_value(eta)),
    }
    _write_or_print(json.dumps(payload) + "\n", args.out)
    if args.trace is not None:
        np.savetxt(args.trace, result.trace, fmt="%.12g", delimiter=",",
                   header="u,delta,term", comments="")
    return EXIT_OK


def _cmd_lemma2(args) -> int:
    model = models.Model(args.model)
    raw = models._parse_json(args.spec)
    try:
        subset = frozenset(models._json_int(v, "S entry") for v in raw["S"])
        arrivals = frozenset(models._json_int(t, "A entry") for t in raw["A"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f'spec must look like {{"S": [...], "A": [...]}}: {exc}')
    spec = events.CutEventSpec(h=args.h, n=args.n, subset=subset, arrivals=arrivals)
    bound = events.spec_bound(spec)
    payload: dict = {
        "model": model.value,
        "h": args.h,
        "n": args.n,
        "S": sorted(subset),
        "A": sorted(arrivals),
        "bound": _frac_str(bound),
    }
    violated = False
    if args.trials is not None:
        est = events.estimate_cut_event(model, spec, args.trials, args.seed)
        payload.update(method="mc", trials=est.trials, hits=est.hits,
                       p_hat=_round12(est.p_hat), std_err=_round12(est.std_err))
    else:
        p = events.exact_cut_event(model, spec)
        violated = bool(p > bound)
        payload.update(method="exact", p=_frac_str(p), violated=violated)
    _write_or_print(json.dumps(payload) + "\n", args.out)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_sweep(args) -> int:
    payload = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = models._parse_json(fh.read())
    overrides = {
        "model": args.model,
        "h_list": _split(args.h_list, int),
        "n_list": _split(args.n_list, int),
        "trials": args.trials,
        "root_seed": args.root_seed,
        "tasks": _split(args.tasks, str),
    }
    if isinstance(payload, dict):  # from_dict refuses anything else
        payload.update((key, val) for key, val in overrides.items() if val is not None)
    config = ExperimentConfig.from_dict(payload)
    report = run_experiment(config)
    outs = [("json", args.out_json), ("csv", args.out_csv)]
    for fmt, path in [o for o in outs if o[1] is not None] or [("json", None)]:
        _write_or_print(emit_report(report, fmt), path)  # None: stdout
    if report.summary["status"] != "ok":
        print("deterministic inequality violated; see report", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _split(text: str | None, cast):
    return None if text is None else [cast(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamod",
        description=(
            "Preferential attachment multigraphs: generation, exact expansion "
            "and modularity, bound certification, cut-event checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a graph and write its JSON form")
    p.add_argument("--model", choices=[m.value for m in models.Model], required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("expand", help="edge boundary of a subset, or alpha_u")
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.add_argument("--subset", help="comma-separated vertices; reports the cut")
    p.add_argument("--u", default="1/2", help="size fraction, e.g. 1/2 or 0.25")
    p.add_argument("--trials", type=int, help="sampled search instead of exhaustive")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled search")
    p.add_argument("--limit", type=int, default=cuts.EXACT_SUBSET_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("mod", help="maximum modularity, exact or greedy")
    p.add_argument("--graph", required=True)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="greedy tie-break seed")
    p.add_argument("--limit", type=int, default=modularity.EXACT_PARTITION_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mod)

    p = sub.add_parser("certify", help="certify the modularity bound constant")
    p.add_argument("--grid-step", type=float, default=1e-4)
    p.add_argument("--precision", type=float, default=1e-5)
    p.add_argument("--trace", help="write the per-gridpoint CSV trace here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("lemma2", help="cut-event probability against its bound")
    p.add_argument("--model", choices=[m.value for m in models.Model], required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", required=True, help='JSON {"S": [...], "A": [...]}')
    p.add_argument("--trials", type=int, help="Monte-Carlo instead of exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lemma2)

    p = sub.add_parser("sweep", help="run a sweep and write reports")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--model", choices=[m.value for m in models.Model])
    p.add_argument("--h-list", help="comma-separated, e.g. 2,3")
    p.add_argument("--n-list", help="comma-separated, e.g. 8,10,12")
    p.add_argument("--trials", type=int)
    p.add_argument("--root-seed", type=int)
    p.add_argument("--tasks", help=f"comma-separated from {','.join(TASKS)}")
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if value == "":
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} needs {_NONEMPTY.get(name, 'a file path')}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
