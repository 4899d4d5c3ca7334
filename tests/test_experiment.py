"""Sweep configs, row computation, reports, and reproducibility."""

import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from pamod.experiment import (
    ROW_COLUMNS,
    TASKS,
    ExperimentConfig,
    _frac_str,
    emit_report,
    parse_report_json,
    run_experiment,
)

DATA = pathlib.Path(__file__).parent / "data"

BASE = dict(
    model="standard",
    h_list=[2],
    n_list=[6, 8],
    trials=2,
    root_seed=20240817,
    tasks=("expansion", "modularity", "bounds", "lemma2"),
)


# ---------------------------------------------------------------- config


def test_frac_str_takes_none_inf_and_fraction_inputs():
    assert _frac_str(None) is None
    assert _frac_str(math.inf) == "inf"
    assert _frac_str(Fraction(6, 4)) == "3/2"
    assert _frac_str(2) == "2/1"
    assert _frac_str("0.25") == "1/4"
    assert _frac_str(0.5) == "1/2"


def test_config_roundtrip():
    cfg = ExperimentConfig(**BASE)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "model": "bogus"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "h_list": []})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "n_list": [0]})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "trials": 0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "root_seed": -1})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**BASE, "tasks": ("expansion", "nope")})


def test_config_refuses_an_expansion_limit_above_the_table_cap():
    # at n = 25 the 2^n boundary table alone would take 128 MiB
    big = {**BASE, "n_list": [25], "tasks": ("expansion",)}
    with pytest.raises(ValueError, match="exact_expansion_limit=25 exceeds"):
        ExperimentConfig(**big, exact_expansion_limit=25)
    assert ExperimentConfig(**big, exact_expansion_limit=24).exact_expansion_limit == 24


def test_config_refuses_a_modularity_limit_above_the_dp_cap():
    big = {**BASE, "n_list": [17], "tasks": ("modularity",)}
    with pytest.raises(ValueError, match="exact_modularity_limit=17 exceeds 16"):
        ExperimentConfig(**big, exact_modularity_limit=17)
    config = ExperimentConfig(**big, exact_modularity_limit=16)
    assert config.exact_modularity_limit == 16


def test_config_from_dict_rejects_unknown_and_missing_keys():
    payload = ExperimentConfig(**BASE).to_dict()
    payload["extra"] = 1
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(payload)
    payload = ExperimentConfig(**BASE).to_dict()
    del payload["root_seed"]
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"trials": "3"}, "trials must be an integer, got '3'"),
        ({"trials": 2.0}, "trials must be an integer, got 2.0"),
        ({"h_list": [2.7]}, "h_list entry must be an integer, got 2.7"),
        ({"n_list": [True, "8"]}, "n_list entry must be an integer, got True"),
        ({"n_list": [6, "8"]}, "n_list entry must be an integer, got '8'"),
        ({"exact_expansion_limit": None}, "exact_expansion_limit must be an integer"),
        ({"exact_modularity_limit": 12.0}, "exact_modularity_limit must be an integer"),
        ({"sample_trials": False}, "sample_trials must be an integer, got False"),
        ({"event_trials": "20000"}, "event_trials must be an integer"),
        ({"sample_trials": 0}, "need sample_trials >= 1, got 0"),
        ({"event_trials": -1}, "need event_trials >= 1, got -1"),
    ],
)
def test_config_takes_ints_only(edit, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ExperimentConfig(**{**BASE, **edit})


def test_config_from_dict_refuses_non_objects_and_malformed_values():
    for payload in ([1, 2], "standard", None, 3):
        with pytest.raises(ValueError, match="a config must be a JSON object"):
            ExperimentConfig.from_dict(payload)
    with pytest.raises(ValueError, match="malformed config: 'int' object is not iterable"):
        ExperimentConfig.from_dict({**BASE, "h_list": 3})


def test_task_names_are_the_documented_set():
    assert TASKS == ("expansion", "modularity", "bounds", "lemma2")


# ------------------------------------------------------------------ runs


@pytest.fixture(scope="module")
def report():
    return run_experiment(ExperimentConfig(**BASE))


def test_rows_have_expected_shape(report):
    assert len(report.rows) == 4  # 1 h * 2 n * 2 trials
    for row in report.rows:
        assert tuple(row) == ROW_COLUMNS
        assert row["model"] == "standard"
        # at these sizes everything is exact
        assert row["alpha_method"] == "exhaustive"
        assert row["q_method"] == "exact"
        assert row["q_above_profile"] is False
        assert row["q_above_global"] is False


def test_summary_counts_and_frequencies(report):
    s = report.summary
    assert s["rows"] == 4
    assert s["status"] == "ok"
    assert s["violations"] == {
        "q_above_profile_bound": 0,
        "q_above_global_bound": 0,
        "cut_event": 0,
    }
    for key in ("frac_alpha_ge_constant_h", "frac_exact_q_le_certified"):
        assert 0.0 <= s[key] <= 1.0
    assert s["expansion_constant"] == 0.03418
    assert s["certified_bound"] == 0.92383
    assert len(s["cut_event_cells"]) == 2  # one per (h, n)


def test_report_is_deterministic(report):
    again = run_experiment(ExperimentConfig(**BASE))
    assert emit_report(again, "json") == emit_report(report, "json")
    assert emit_report(again, "csv") == emit_report(report, "csv")


def test_report_matches_golden_file(report):
    golden = (DATA / "golden_sweep.json").read_text()
    assert emit_report(report, "json") == golden


def test_parse_report_json_roundtrip(report):
    text = emit_report(report, "json")
    back = parse_report_json(text)
    assert back.config == report.config
    assert back.rows == report.rows
    assert back.summary == report.summary


def test_csv_shape(report):
    lines = emit_report(report, "csv").strip().splitlines()
    assert lines[0] == ",".join(ROW_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    # booleans are 1/0 and rationals are p/q in the csv
    assert lines[1].endswith(",0,0")
    assert "/" in lines[1].split(",")[4]


def test_emit_report_rejects_unknown_format(report):
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_sampled_paths_kick_in_above_limits():
    cfg = ExperimentConfig(
        model="tilde",
        h_list=[2],
        n_list=[18],
        trials=1,
        root_seed=7,
        tasks=("expansion", "modularity", "bounds"),
        sample_trials=8,
    )
    rows = run_experiment(cfg).rows
    assert rows[0]["alpha_method"] == "sampled"
    assert rows[0]["q_method"] == "greedy"
    # no exact bound comparison is possible, so no violation flags
    assert rows[0]["q_above_profile"] is None
    assert rows[0]["q_above_global"] is None


def test_exact_scan_cells_at_tiny_sizes():
    cfg = ExperimentConfig(
        model="standard",
        h_list=[2],
        n_list=[3],
        trials=1,
        root_seed=7,
        tasks=("lemma2",),
    )
    rep = run_experiment(cfg)
    (cell,) = rep.summary["cut_event_cells"]
    assert cell["mode"] == "exact"
    assert cell["violations"] == 0
    assert cell["pairs_checked"] > 0


def test_importing_the_package_loads_no_process_pool_modules():
    # sweeps run in the calling process, so no import pays for a pool
    code = (
        "import sys, pamod, pamod.cli\n"
        "roots = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(roots & {'multiprocessing', 'concurrent'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
