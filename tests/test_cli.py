"""End-to-end CLI behavior: every subcommand plus the exit-code contract."""

import json
import pathlib
import subprocess
import sys

import pytest

from pamod import certify as cert
from pamod import cuts, load_graph, modularity
from pamod.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run_main(*argv):
    return main(list(argv))


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert run_main(
        "gen", "--model", "standard", "--h", "2", "--n", "8",
        "--seed", "5", "--out", str(path),
    ) == 0
    return path


# ------------------------------------------------------------------- gen


def test_gen_writes_loadable_graph(graph_file):
    g = load_graph(graph_file)
    assert g.n == 8 and g.h == 2 and g.seed == 5
    assert g.volume == 2 * 2 * 8


def test_gen_deterministic(tmp_path, graph_file):
    other = tmp_path / "g2.json"
    run_main("gen", "--model", "standard", "--h", "2", "--n", "8",
             "--seed", "5", "--out", str(other))
    assert other.read_bytes() == graph_file.read_bytes()


def test_gen_stdout(capsys):
    assert run_main("gen", "--model", "tilde", "--h", "1", "--n", "3", "--seed", "0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "tilde"
    assert len(payload["edges"]) == 3


# ---------------------------------------------------------------- expand


def test_expand_exact(graph_file, capsys):
    assert run_main("expand", "--graph", str(graph_file), "--u", "1/2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exhaustive"
    assert payload["alpha"] == "1/1"
    assert payload["witness"] == [1, 3, 4, 7]


def test_expand_subset(graph_file, capsys):
    assert run_main("expand", "--graph", str(graph_file), "--subset", "1,2,3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "subset": [1, 2, 3],
        "e_inner": 6,
        "e_boundary": 9,
        "vol": 21,
        "ratio": "3/1",
    }


def test_expand_refuses_an_empty_subset(graph_file, capsys):
    # an empty --subset used to fall through to the exact alpha_{1/2}
    assert run_main("expand", "--graph", str(graph_file), "--subset", "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --subset needs at least one vertex\n"


def test_expand_sampled(graph_file, capsys):
    assert run_main(
        "expand", "--graph", str(graph_file), "--u", "1/2",
        "--trials", "16", "--seed", "1",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "sampled"
    # sampled search can only sit at or above the exact value, 1
    num, den = payload["alpha"].split("/")
    assert int(num) >= int(den)


def test_expand_missing_file(tmp_path):
    assert run_main("expand", "--graph", str(tmp_path / "no.json")) == 2


# ------------------------------------------------------------------- mod


def test_mod_exact(graph_file, capsys):
    assert run_main("mod", "--graph", str(graph_file)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exact"
    assert payload["q"] == "137/512"
    flat = sorted(v for part in payload["partition"] for v in part)
    assert flat == list(range(1, 9))


def test_mod_greedy(graph_file, capsys):
    assert run_main("mod", "--graph", str(graph_file), "--greedy", "--seed", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "greedy"


def test_mod_over_limit(tmp_path, capsys):
    big = tmp_path / "big.json"
    run_main("gen", "--model", "standard", "--h", "2", "--n", "13",
             "--seed", "0", "--out", str(big))
    capsys.readouterr()
    # the default is the DP's cap of 16, and --limit can only lower it
    assert run_main("mod", "--graph", str(big)) == 0
    assert run_main("mod", "--graph", str(big), "--limit", "12") == 2
    assert "exact partition limit 12" in capsys.readouterr().err


def test_expand_limit_cannot_lift_the_memory_cap(tmp_path, capsys):
    big = tmp_path / "big.json"
    run_main("gen", "--model", "standard", "--h", "1", "--n", "25",
             "--seed", "0", "--out", str(big))
    capsys.readouterr()
    assert run_main("expand", "--graph", str(big), "--limit", "30") == 2
    assert "exhaustive limit 24" in capsys.readouterr().err


def test_mod_limit_cannot_lift_the_partition_cap(tmp_path, capsys, monkeypatch):
    big = tmp_path / "big.json"
    run_main("gen", "--model", "standard", "--h", "1", "--n", "20",
             "--seed", "0", "--out", str(big))
    capsys.readouterr()

    def no_table(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(cuts, "_subset_sums", no_table)
    monkeypatch.setattr(modularity, "_subset_sums", no_table)
    assert run_main("mod", "--graph", str(big), "--limit", "20") == 2
    assert "exact partition limit 16" in capsys.readouterr().err


# --------------------------------------------------------------- certify


def test_certify_defaults_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run_main("certify", "--trace", str(trace)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 0.92383
    assert payload["minimizer_u"] == 0.0142
    assert payload["minimizer_delta"] == 0.14851
    assert payload["constant_ok"] is True
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "u,delta,term"
    assert len(lines) == 1 + 5000
    row = lines[142].split(",")  # u_s = 0.0142 is the 142nd grid point
    assert row[0] == "0.0142" and row[1] == "0.14851"


def test_certify_refuses_an_empty_trace_path(capsys):
    # an empty --trace used to skip the CSV without a word and exit 0
    assert run_main("certify", "--grid-step", "0.001", "--trace", "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace needs a file path\n"


def test_certify_coarse_grid(capsys):
    assert run_main("certify", "--grid-step", "0.001") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 0.92428


def test_certify_trace_matches_the_joined_lines(tmp_path):
    # the CSV is streamed row by row; its bytes are those of one string
    # of newline-joined lines
    trace = tmp_path / "trace.csv"
    assert run_main("certify", "--grid-step", "0.001", "--trace", str(trace)) == 0
    rows = cert.certify_modularity_bound(grid_step=0.001, with_trace=True).trace
    lines = ["u,delta,term"]
    for u_s, delta, term in rows:
        lines.append(f"{u_s:.12g},{delta:.12g},{term:.12g}")
    assert trace.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_certify_bad_grid():
    assert run_main("certify", "--grid-step", "0.3") == 2


def test_certify_refuses_a_precision_below_two_to_the_minus_55(capsys):
    # 5e-324 used to end in an OverflowError traceback and exit 1
    assert run_main("certify", "--precision", "5e-324") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 2^-55 <= precision <= 1/4, got 5e-324\n"


def test_certify_refuses_a_grid_over_the_point_cap(monkeypatch, capsys):
    def no_delta(u, precision):
        raise AssertionError("max_certified_delta was called")

    monkeypatch.setattr(cert, "max_certified_delta", no_delta)
    assert run_main("certify", "--grid-step", "1e-300") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: grid_step 1e-300 gives more than GRID_POINT_CAP = 1000000 grid points\n"
    )


# ---------------------------------------------------------------- lemma2


def test_lemma2_exact(capsys):
    code = run_main(
        "lemma2", "--model", "standard", "--h", "2", "--n", "2",
        "--spec", '{"S": [2], "A": [3]}',
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == "8/35"
    assert payload["bound"] == "2/3"
    assert payload["violated"] is False


def test_lemma2_mc(capsys):
    code = run_main(
        "lemma2", "--model", "tilde", "--h", "2", "--n", "6",
        "--spec", '{"S": [6], "A": [12]}', "--trials", "2000", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mc"
    assert payload["trials"] == 2000
    assert 0 <= payload["p_hat"] <= 1


def test_lemma2_rejects_malformed_spec(capsys):
    assert run_main(
        "lemma2", "--model", "standard", "--h", "2", "--n", "2",
        "--spec", '{"S": [2]}',
    ) == 2
    assert run_main(
        "lemma2", "--model", "standard", "--h", "2", "--n", "2",
        "--spec", '{"S": [2], "A": [3, 4]}',
    ) == 2  # |A| = h|S|


@pytest.mark.parametrize(
    "spec,message",
    [
        ('{"S": ["1"], "A": []}', "S entry must be an integer, got '1'"),
        ('{"S": [1.5], "A": []}', "S entry must be an integer, got 1.5"),
        ('{"S": [true], "A": []}', "S entry must be an integer, got True"),
        ('{"S": [2], "A": [3.9]}', "A entry must be an integer, got 3.9"),
    ],
)
def test_lemma2_spec_takes_integers_only(capsys, spec, message):
    code = run_main(
        "lemma2", "--model", "standard", "--h", "2", "--n", "2", "--spec", spec,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_zero_trials_are_refused_not_read_as_exact(graph_file, capsys):
    expand = ("expand", "--graph", str(graph_file), "--u", "1/2")
    lemma2 = ("lemma2", "--model", "standard", "--h", "2", "--n", "2",
              "--spec", '{"S": [2], "A": [3]}')
    for argv in (expand, lemma2):
        assert run_main(*argv, "--trials", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need trials >= 1, got 0\n"


GEN = ("gen", "--model", "standard", "--h", "2", "--n", "4", "--seed", "1")
LEMMA2 = ("lemma2", "--model", "standard", "--h", "2", "--n", "2",
          "--spec", '{"S": [2], "A": [3]}')
SWEEP = ("sweep", "--model", "standard", "--h-list", "2", "--n-list", "4",
         "--trials", "1", "--root-seed", "5")


@pytest.mark.parametrize(
    "argv, flag, needs",
    [
        (GEN, "--out", "a file path"),
        (("expand", "--graph", "g.json"), "--out", "a file path"),
        (("expand",), "--graph", "a file path"),
        (("expand", "--graph", "g.json"), "--u", "a size fraction"),
        (("mod", "--graph", "g.json"), "--out", "a file path"),
        (("certify", "--grid-step", "0.5"), "--out", "a file path"),
        (LEMMA2, "--out", "a file path"),
        (LEMMA2[:-2], "--spec", "a JSON spec"),
        (SWEEP, "--out-json", "a file path"),
        (SWEEP, "--out-csv", "a file path"),
        (SWEEP, "--config", "a file path"),
        (SWEEP, "--tasks", "at least one task"),
        (SWEEP[:3], "--h-list", "at least one h"),
        (SWEEP[:5], "--n-list", "at least one n"),
    ],
)
def test_empty_string_options_are_refused(tmp_path, monkeypatch, capsys, argv, flag, needs):
    # "" used to read as an unset option: gen --out "" printed the graph and
    # sweep --tasks "" ran the default tasks, both with exit 0
    monkeypatch.chdir(tmp_path)
    assert run_main(*argv, flag, "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} needs {needs}\n"
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------ deep JSON nesting

DEEP = "[" * 100_000 + "]" * 100_000
DEEP_EDGE = (
    '{"model": "standard", "h": 1, "n": 1, "seed": 0, "edges": ['
    + "[" * 50_000 + "1, 1, 1" + "]" * 50_000 + "]}"
)
DEEP_ERROR = "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("text", [DEEP, DEEP_EDGE], ids=["deep", "deep_edge"])
@pytest.mark.parametrize("argv", [("expand", "--graph"), ("mod", "--graph"),
                                  ("sweep", "--config")])
def test_deeply_nested_files_are_usage_errors(tmp_path, capsys, argv, text):
    # they used to end in a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert run_main(*argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == DEEP_ERROR


def test_deeply_nested_lemma2_spec_is_a_usage_error(capsys):
    spec = "[" * 20_000 + "]" * 20_000
    assert run_main(*LEMMA2[:-1], spec) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == DEEP_ERROR


# ----------------------------------------------------------------- sweep


def test_sweep_flags_only(tmp_path):
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    code = run_main(
        "sweep", "--model", "standard", "--h-list", "2", "--n-list", "6,8",
        "--trials", "2", "--root-seed", "20240817",
        "--tasks", "expansion,modularity,bounds,lemma2",
        "--out-json", str(out_json), "--out-csv", str(out_csv),
    )
    assert code == 0
    assert out_json.read_text() == (DATA / "golden_sweep.json").read_text()
    assert out_csv.read_text().startswith("seed,h,n,model,")


def test_sweep_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "standard",
        "h_list": [2],
        "n_list": [6, 8],
        "trials": 1,
        "root_seed": 20240817,
        "tasks": ["expansion", "modularity", "bounds", "lemma2"],
        "exact_expansion_limit": 16,
        "exact_modularity_limit": 12,
        "sample_trials": 64,
        "event_trials": 20000,
    }))
    # --trials overrides the file; result must equal the golden config
    assert run_main("sweep", "--config", str(cfg), "--trials", "2") == 0
    assert capsys.readouterr().out == (DATA / "golden_sweep.json").read_text()


def test_sweep_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "standard"}')
    assert run_main("sweep", "--config", str(cfg)) == 2


GOOD_CONFIG = {
    "model": "standard", "h_list": [2], "n_list": [4], "trials": 1, "root_seed": 5,
}


@pytest.mark.parametrize(
    "payload",
    [
        {**GOOD_CONFIG, "trials": "3"},
        {**GOOD_CONFIG, "h_list": [2.7]},
        {**GOOD_CONFIG, "n_list": [True, "8"]},
        {**GOOD_CONFIG, "sample_trials": 0},
        {**GOOD_CONFIG, "event_trials": 0},
        {**GOOD_CONFIG, "h_list": 3},
        [1, 2],
    ],
)
@pytest.mark.parametrize("flags", [(), ("--root-seed", "6")])
def test_sweep_malformed_config_is_a_usage_error(tmp_path, capsys, payload, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert run_main("sweep", "--config", str(cfg), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ------------------------------------------------------- console script


def test_console_script_and_module_entry(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "pamod", "certify", "--grid-step", "0.5"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["bound"] == 0.9832
    usage = subprocess.run(
        [sys.executable, "-m", "pamod"], capture_output=True, text=True
    )
    assert usage.returncode == 2
