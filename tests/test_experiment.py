"""Sweep configs, row computation, reports, and reproducibility."""

import hashlib
import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from pamod import experiment
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


def test_config_dict_holds_the_fields_as_json_writes_them():
    payload = ExperimentConfig(**BASE).to_dict()
    assert payload["model"] is experiment.Model.STANDARD
    assert payload["h_list"] == (2,) and payload["tasks"] == TASKS
    assert json.loads(json.dumps(payload))["model"] == "standard"


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
    with pytest.raises(ValueError, match="^h_list must be a JSON array, got int$"):
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


README_SWEEP = dict(
    h_list=[2, 3], n_list=[8, 10, 12], trials=10, root_seed=20240817, tasks=TASKS
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_match_their_pinned_digests(report):
    # the golden JSON is pinned whole above; its CSV and the README's two
    # sweeps (JSON and CSV, as `pamod sweep` writes them) by sha256
    assert _sha256(emit_report(report, "csv")) == (
        "b6ab713b5095c73dd4c250ddac1b9101464f7b7568cbbf0b85747840248ab085"
    )
    pinned = {
        "standard": (
            "f7e5bebae4615e387dd1135c8308fc5967a73cc342d0a14ebd21b5965ccb121a",
            "af82fc787f947ef06776c441ddc4351d00b5683bbc99e3e2771404a3d540da6c",
        ),
        "tilde": (
            "3319f87972950128e0cc2556806d709dab82a0c5cda309a8722fb1af95191a06",
            "8948d774615226f9bf0f8738fc46d6147e2074b0710af0edc992c1a8a1e58a47",
        ),
    }
    for model, digests in pinned.items():
        sweep = run_experiment(ExperimentConfig(model=model, **README_SWEEP))
        assert tuple(_sha256(emit_report(sweep, fmt)) for fmt in ("json", "csv")) == digests


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


def test_bounds_alone_above_the_limit_run_no_sampled_search(monkeypatch):
    # the bounds read only the exact profile, so a sampled alpha would be unused
    def refuse(*_args, **_kwargs):
        raise AssertionError("sampled_expansion was called")

    monkeypatch.setattr(experiment, "sampled_expansion", refuse)
    cfg = ExperimentConfig(
        model="standard", h_list=[2], n_list=[20], trials=1, root_seed=7,
        tasks=("bounds",),
    )
    (row,) = run_experiment(cfg).rows
    assert (row["alpha"], row["profile_bound"], row["global_bound"]) == (None,) * 3


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
