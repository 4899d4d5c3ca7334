"""Tests of the benchmark's own machinery: wrapper install and restore,
the computed work-count formulas, the output checks, and the refusal to
run without pamod sources.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from pamod import cli, cut_events, cuts, models  # noqa: E402

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402


def _bindings():
    """Every (namespace, attribute) in pamod that holds a traced function."""
    originals = {
        id(getattr(sys.modules[f"pamod.{mod}"], fn)) for mod, fns in layertrace.TRACED.items()
        for fn in fns
    }
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "pamod" or name.startswith("pamod.")
        for attr, value in vars(module).items()
        if id(value) in originals
    }


def test_wrappers_cover_every_namespace_and_are_restored():
    before = _bindings()
    assert ("pamod.experiment", "generate") in before
    assert ("pamod.cut_events", "sample_target_matrix") in before
    assert ("pamod", "generate") in before
    with pytest.raises(RuntimeError):
        with LayerTrace():
            for (name, attr), original in before.items():
                wrapped = getattr(sys.modules[name], attr)
                assert wrapped is not original and wrapped.__wrapped__ is original
            raise RuntimeError("restore must survive an exception")
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_traced_children():
    with LayerTrace() as lt:
        models.generate("standard", 2, 50, 3)
    m = lt.metrics()
    assert m["models.generate.calls"] == 1 and m["models.merge.calls"] == 1
    assert m["models.generate.arrivals"] == 100
    assert 0 < m["models.merge.self_s"] and 0 < m["models.generate.self_s"]


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_subsets_counts_the_gray_code_sweep(n):
    assert layertrace.exhaustive_subsets(n) == sum(1 for _ in cuts._gray_flip_order(n))


@pytest.mark.parametrize("n", range(0, 7))
def test_dp_pairs_counts_mask_submask_pairs(n):
    pairs = sum(
        1 for mask in range(1 << n) for sub in range(1 << n) if sub & mask == sub
    )
    assert layertrace.dp_pairs(n) == pairs


@pytest.mark.parametrize("model", ["standard", "tilde"])
@pytest.mark.parametrize("hn", range(1, 7))
def test_enumerated_logs_matches_the_enumeration(model, hn):
    _targets, nums, _denom = cut_events._enumerate_logs(models.Model(model), hn)
    assert layertrace.enumerated_logs(model, hn) == len(nums)


def test_traced_sweep_counts(tmp_path):
    out_json = tmp_path / "r.json"
    argv = ["sweep", "--model", "standard", "--h-list", "1", "--n-list", "4",
            "--trials", "2", "--root-seed", "5", "--tasks", workloads.ALL_TASKS,
            "--out-json", str(out_json)]
    start = time.perf_counter()
    with LayerTrace() as lt:
        assert cli.main(argv) == 0
    elapsed = time.perf_counter() - start
    m = lt.metrics()
    assert m["cli.main.calls"] == 1 and m["models.generate.calls"] == 2
    assert m["cuts.exhaustive.subsets"] == 2 * (2**4 - 1)
    assert m["modularity.exact_modularity.dp_pairs"] == 2 * 3**4
    assert m["cut_events.scan_cut_events.logs"] == 24  # (h*n)! for h=1, n=4
    assert m["experiment.emit_report.bytes"] == out_json.stat().st_size
    # cli.main is the outermost span, so the self times add up to its span
    assert 0 < sum(v for k, v in m.items() if k.endswith(".self_s")) <= elapsed


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layertrace.UNITS
    reported = set(LayerTrace().metrics()) | {"trace.overhead_s", "trace.coverage"}
    assert reported == set(layertrace.UNITS)


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail([1.0] * 10) is None
    values = [float(v) for v in range(20)]
    assert run.tail(values) == {"percentile": 50, "value": 9.0}
    assert sum(v > 9.0 for v in values) == 10


@pytest.mark.parametrize("traced", [False, True])
def test_every_untraced_pass_has_its_yardstick(traced):
    wl = workloads.Workload([workloads.Op("nap", lambda: time.sleep(0.01), lambda r: {})])
    passes = run.run_passes(wl, 0.5, None, traced)
    assert len(passes.yardstick) == len(passes.plain) >= 1
    assert len(passes.layered) == (len(passes.plain) if traced else 0)
    assert all(y > 0 for y in passes.yardstick)
    assert run.at_nominal_speed(3.0, 2 * run.NOMINAL_YARDSTICK_S) == 1.5


def test_check_counts_each_kind_of_failure():
    def boom():
        raise ValueError("no")

    ops = [
        workloads.Op("same", lambda: 1, lambda r: {"v": str(r)}),
        workloads.Op("differs", lambda: 2, lambda r: {"v": str(r)}),
        workloads.Op("fixed", lambda: 3, lambda r: {"v": str(r)}, fixed={"v": "4"}),
        workloads.Op("raises", boom, lambda r: {}),
        workloads.Op("linked", lambda: 1, lambda r: {"v": str(r)},
                     same_as={"v": ("differs", "v")}),
    ]
    wl = workloads.Workload(ops)
    result = workloads.run_pass(wl)
    expected = {"same": {"v": "1"}, "differs": {"v": "9"}, "fixed": {"v": "3"},
                "linked": {"v": "1"}}
    problems = workloads.check(wl, result, expected)
    assert set(problems) == {"differs", "fixed", "raises", "linked"}
    assert "ValueError: no" in problems["raises"] and "in boom" in problems["raises"]


def test_workload_inputs_depend_only_on_the_seed():
    assert workloads.input_seeds("graph_bulk", 7, 2) == workloads.input_seeds("graph_bulk", 7, 2)
    assert workloads.input_seeds("graph_bulk", 7, 2) != workloads.input_seeds("graph_bulk", 8, 2)


def test_refuses_to_run_without_pamod_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

