"""The names the benchmark under ``perfbench/`` binds in ``pamod``.

The benchmark runs from its own checkout and fails when one of these
goes, so each is pinned here, in the suite that runs on every change.
The names are written out below rather than read from ``perfbench/``,
which this suite does not import.
"""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import pamod
from pamod import Model, generate
from pamod import certify, cli, cut_events, cuts, experiment, models, modularity

# Traced functions, each with the arguments its per-layer counts read by
# name from the bound call (perfbench/layertrace.py).
TRACED = {
    (models, "generate"): ("h", "n"),
    (models, "merge"): (),
    (models, "save_graph"): (),
    (models, "load_graph"): (),
    (models, "sample_target_matrix"): ("length", "trials"),
    (cuts, "exact_expansion"): ("graph",),
    (cuts, "expansion_profile"): ("graph",),
    (cuts, "sampled_expansion"): ("graph", "trials"),
    (modularity, "exact_modularity"): ("graph",),
    (modularity, "greedy_modularity"): ("graph",),
    (cut_events, "estimate_cut_event"): (),
    (cut_events, "scan_cut_events"): ("model", "h", "n"),
    (certify, "certify_modularity_bound"): ("grid_step",),
    (experiment, "run_experiment"): (),
    (experiment, "emit_report"): (),
    (cli, "main"): (),
}

# Other names the workloads and the benchmark's own tests read.
BOUND = [
    (cuts, "_gray_flip_order"),
    (cut_events, "_enumerate_logs"),
    # the tracer wraps a function in every namespace that binds it
    (experiment, "generate"),
    (cut_events, "sample_target_matrix"),
    (cuts, "EXACT_SUBSET_LIMIT"),
    (certify, "check_expansion_constant"),
    (cut_events, "CutEventSpec"),
    (models, "Model"),
]


@pytest.mark.parametrize(
    "module,name,args",
    [(m, name, args) for (m, name), args in TRACED.items()],
    ids=[f"{m.__name__}.{name}" for m, name in TRACED],
)
def test_each_traced_function_keeps_its_name_and_arguments(module, name, args):
    params = inspect.signature(getattr(module, name)).parameters
    assert set(args) <= set(params)


@pytest.mark.parametrize(
    "module,name", BOUND, ids=[f"{m.__name__}.{name}" for m, name in BOUND]
)
def test_each_bound_name_is_kept(module, name):
    assert hasattr(module, name)


def test_the_tuple_views_are_kept():
    # the workloads digest the repr of these tuples of Python ints
    log, graph = generate(Model.STANDARD, 2, 3, 1)
    assert type(log.targets) is tuple and all(type(t) is int for t in log.targets)
    assert type(graph.edges) is tuple
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in graph.edges)


# The top-level modules ``import pamod`` may add to ``import numpy``:
# every workload's setup_s pays for them, so a new one (or import-time
# work behind it) is a benchmark change.
IMPORTED = set(
    "__future__ _csv _decimal _heapq _json copy csv dataclasses decimal "
    "fractions gc heapq json pamod".split()
)
# test-only or optional packages; none may load with the package
NEVER_IMPORTED = {"mpmath", "scipy", "networkx", "hypothesis"}
IMPORT_SCRIPT = """
import sys
import numpy
def tops():
    return {name.partition(".")[0] for name in sys.modules}
before = tops()
import pamod
print(" ".join(sorted(tops() - before)))
print(" ".join(sorted(tops())))
"""


def test_import_pamod_adds_only_the_modules_it_needs():
    src = str(pathlib.Path(pamod.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    added, loaded = (set(line.split()) for line in out.stdout.splitlines())
    assert "pamod" in added
    assert added <= IMPORTED, sorted(added - IMPORTED)
    assert not loaded & NEVER_IMPORTED
