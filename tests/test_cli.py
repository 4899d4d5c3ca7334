"""End-to-end CLI behavior: every subcommand plus the exit-code contract."""

import csv
import hashlib
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pamod import certify as cert
from pamod import cuts, experiment, load_graph, models, modularity
from pamod.cli import main
from pamod.experiment import ExperimentConfig

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


@pytest.mark.parametrize("trials", [(), ("--trials", "4")], ids=["exact", "sampled"])
@pytest.mark.parametrize(
    "u, message",
    [
        ("1/0", "cannot interpret '1/0' as a rational"),
        ("0/0", "cannot interpret '0/0' as a rational"),
        ("abc", "Invalid literal for Fraction: 'abc'"),
        ("0", "need 0 < u <= 1/2, got 0"),
        ("0.75", "need 0 < u <= 1/2, got 3/4"),
    ],
)
def test_expand_u_errors_are_usage_errors(graph_file, capsys, u, message, trials):
    # 1/0 and 0/0 used to end in a ZeroDivisionError traceback and exit 1
    assert run_main("expand", "--graph", str(graph_file), "--u", u, *trials) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("model", ["standard", "tilde"])
def test_a_saved_and_an_indented_graph_file_give_the_same_output(tmp_path, capsys, model):
    # gen's own bytes are read without json's list per edge, an indented
    # copy through json: expand and mod must print the same lines for both
    saved, indented = tmp_path / "g.json", tmp_path / "indented.json"
    gen = ("gen", "--model", model, "--h", "2", "--n", "8", "--seed", "5")
    assert run_main(*gen, "--out", str(saved)) == 0
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(json.loads(saved.read_text()), fh, indent=2)
    assert models._saved_payload(saved.read_bytes()) is not None
    assert models._saved_payload(indented.read_bytes()) is None
    printed = {}
    for path in (saved, indented):
        for command in ("expand", "mod"):
            assert run_main(command, "--graph", str(path)) == 0
            printed[path, command] = capsys.readouterr().out
    for command in ("expand", "mod"):
        assert printed[saved, command] == printed[indented, command]
        assert json.loads(printed[saved, command])["method"] in ("exhaustive", "exact")


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


@pytest.mark.parametrize(
    "step, lines, digest",
    [
        ("1e-4", 5001, "93e5225e064abc9ea7dc37411a7ef4db5585e978f1900c46b20dee728ab3cbd0"),
        ("1e-3", 501, "f778489d7e6cda7a23fc5e26bf7ce3a326f6880fc93cfaf1602d1fa2832a7447"),
        ("2.5e-5", 20001, "b3f2a7d4ab4ba7b228f9857511ebed1cf4ea8b3b0668cb4ae5046fcfbfac1bb6"),
    ],
)
def test_certify_trace_bytes_are_pinned(tmp_path, step, lines, digest):
    # the CSV's bytes as the per-block column form of the trace wrote them
    trace = tmp_path / "trace.csv"
    assert run_main("certify", "--grid-step", step, "--trace", str(trace)) == 0
    data = trace.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "step", ["0.001", repr(0.5 / (cert._BLOCK - 1)), repr(0.5 / cert._BLOCK),
             repr(0.5 / (cert._BLOCK + 1))],
)
def test_certify_trace_bytes_are_those_of_savetxt(tmp_path, step):
    # the writer formats a block of rows per % operation; a grid of one
    # row under, at and over a block must still give np.savetxt's bytes
    trace, want = tmp_path / "trace.csv", tmp_path / "savetxt.csv"
    assert run_main("certify", "--grid-step", step, "--trace", str(trace)) == 0
    rows = cert.certify_modularity_bound(grid_step=float(step), with_trace=True).trace
    np.savetxt(want, rows, fmt="%.12g", delimiter=",", header="u,delta,term", comments="")
    assert trace.read_bytes() == want.read_bytes()
    assert trace.read_bytes().count(b"\n") == 1 + round(0.5 / float(step))


def test_certify_refuses_an_unwritable_trace_path(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "trace.csv"
    for path in (missing, tmp_path):
        assert run_main("certify", "--grid-step", "0.001", "--trace", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not missing.parent.exists()


def test_certify_bad_grid():
    assert run_main("certify", "--grid-step", "0.3") == 2


def test_certify_refuses_a_precision_below_two_to_the_minus_55(capsys):
    # 5e-324 used to end in an OverflowError traceback and exit 1
    assert run_main("certify", "--precision", "5e-324") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 2^-55 <= precision <= 1/4, got 5e-324\n"


def test_certify_refuses_a_grid_over_the_point_cap(monkeypatch, capsys):
    def no_js(us, precision):
        raise AssertionError("_certified_js was called")

    monkeypatch.setattr(cert, "_certified_js", no_js)
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


def test_lemma2_seed_needs_trials(capsys):
    # the exact check used to print its result and exit 0, the seed unread
    spec = ("--spec", '{"S": [6], "A": [12]}')
    args = ("lemma2", "--model", "tilde", "--h", "2", "--n", "6", *spec)
    for seed in ("0", "1"):
        assert run_main(*args, "--seed", seed) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed needs --trials: the exact check draws nothing\n"
    # --trials alone still runs, with seed 0
    assert run_main(*args, "--trials", "500") == 0
    alone = capsys.readouterr().out
    assert run_main(*args, "--trials", "500", "--seed", "0") == 0
    assert capsys.readouterr().out == alone
    assert json.loads(alone)["method"] == "mc"


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


def test_sweep_exits_1_when_an_inequality_is_violated(tmp_path, capsys, monkeypatch):
    # a profile bound of 0 puts every positive exact q above it
    monkeypatch.setattr(
        experiment, "bound_from_expansion_profile", lambda *args: Fraction(0)
    )
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    argv = ("sweep", "--model", "standard", "--h-list", "2", "--n-list", "6",
            "--trials", "2", "--root-seed", "5", "--tasks", "modularity,bounds")
    violated = "deterministic inequality violated; see report\n"
    assert run_main(*argv, "--out-json", str(out_json), "--out-csv", str(out_csv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == violated
    assert json.loads(out_json.read_text())["summary"]["status"] == "FAILED"
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert [row["q_above_profile"] for row in rows] == ["1", "1"]
    assert run_main(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == violated
    report = json.loads(captured.out)
    assert report["summary"]["status"] == "FAILED"
    assert report["summary"]["violations"]["q_above_profile_bound"] == 2


NESTED_MODEL_SCRIPT = """
import contextlib, io, json, runpy, sys
path = sys.argv[1]
for depth in range(980, 991):
    with open(path, "w") as fh:
        fh.write('{"model": ' + "[" * depth + "]" * depth
                 + ', "h_list": [2], "n_list": [4], "trials": 1, "root_seed": 1}')
    sys.argv = ["pamod", "sweep", "--config", path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("pamod", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([depth, code, err.getvalue()]))
"""


def test_a_deeply_nested_sweep_model_is_a_short_usage_error(tmp_path):
    # A config whose model is a list nested 987-988 deep (just inside the
    # parser's limit at the CLI's stack depth) ended in a RecursionError,
    # raised where Model() repr'd the list; at depth 900 the repr made a
    # 1,800-character error line.  Run as the CLI runs, in a fresh process.
    out = subprocess.run(
        [sys.executable, "-c", NESTED_MODEL_SCRIPT, str(tmp_path / "cfg.json")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr[-500:]
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert [depth for depth, _code, _err in results] == list(range(980, 991))
    for _depth, code, err in results:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 80
    assert "error: model must be a string, got list\n" in [e for _d, _c, e in results]


def test_sweep_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "standard"}')
    assert run_main("sweep", "--config", str(cfg)) == 2


GOOD_CONFIG = {
    "model": "standard", "h_list": [2], "n_list": [4], "trials": 1, "root_seed": 5,
}


@pytest.mark.parametrize("field", ["model", "tasks"])
def test_a_100000_character_model_or_task_gives_a_short_error_line(tmp_path, capsys, field):
    # The whole value was echoed: a line of about 100,000 characters.
    long = "x" * 100_000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**GOOD_CONFIG, field: long if field == "model" else [long]}))
    assert run_main("sweep", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and err.count("\n") == 1
    assert len(err) < 200


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


def test_a_non_string_model_is_refused_by_its_type(tmp_path, capsys):
    deep = []
    for _ in range(900):
        deep = [deep]
    for model in (3, None, deep):
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict({**GOOD_CONFIG, "model": model})
        assert str(info.value) == f"model must be a string, got {type(model).__name__}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**GOOD_CONFIG, "model": "bogus"}))
    assert run_main("sweep", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "error: unknown model 'bogus'\n"


NESTED_FIELD_SCRIPT = """
import contextlib, io, json, runpy, sys
path, command, flag, base = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
deep = "[" * 950 + "]" * 950
for field in list(base):
    text = json.dumps({**base, field: None}).replace("null", deep)
    with open(path, "w") as fh:
        fh.write(text)
    sys.argv = ["pamod", command, flag, path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("pamod", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([field, code, err.getvalue()]))
"""

GRAPH_FIELDS = {"model": "standard", "h": 1, "n": 1, "seed": 0, "edges": [[1, 1, 1]]}
SWEEP_FIELDS = {
    **GOOD_CONFIG, "tasks": ["expansion"], "sample_trials": 2, "event_trials": 2,
    "exact_expansion_limit": 16,
}
MALFORMED = "malformed graph payload: "
NESTED_FIELD_ERRORS = {
    "expand": {
        "model": MALFORMED + "model must be a string, got list",
        "h": MALFORMED + "h must be an integer, got list",
        "n": MALFORMED + "n must be an integer, got list",
        "seed": "seed must be an integer, got list",
        "edges": MALFORMED + "edge entries must be integers, found list",
    },
    "sweep": {
        "model": "model must be a string, got list",
        "h_list": "h_list entry must be an integer, got list",
        "n_list": "n_list entry must be an integer, got list",
        "trials": "trials must be an integer, got list",
        "root_seed": "seed must be an integer, got list",
        "tasks": f"unknown tasks ['list']; valid tasks are {experiment.TASKS}",
        "sample_trials": "sample_trials must be an integer, got list",
        "event_trials": "event_trials must be an integer, got list",
        "exact_expansion_limit": "exact_expansion_limit must be an integer, got list",
    },
}


@pytest.mark.parametrize(
    "command, flag, base",
    [("expand", "--graph", GRAPH_FIELDS), ("sweep", "--config", SWEEP_FIELDS)],
    ids=["expand", "sweep"],
)
def test_a_field_nested_950_deep_gives_a_short_error_line(tmp_path, command, flag, base):
    # Each field in turn is a list nested 950 deep, inside the parser's
    # limit at the CLI's stack depth.  Messages that repr'd such a value
    # made lines of about 1,900 characters; a list is now named by its type.
    out = subprocess.run(
        [sys.executable, "-c", NESTED_FIELD_SCRIPT, str(tmp_path / "in.json"),
         command, flag, json.dumps(base)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr[-500:]
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert [field for field, _code, _err in results] == list(base)
    for field, code, err in results:
        assert code == 2, field
        assert len(err) < 200, (field, err[:200])
        assert err == f"error: {NESTED_FIELD_ERRORS[command][field]}\n"


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
