"""Generation, merging, and the exact small-step target distributions."""

import ast
import dataclasses
import gc
import itertools
import json
import pathlib
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pamod
from pamod import (
    ArrivalLog,
    Model,
    MultiGraph,
    derive_seed,
    exact_small_t_distribution,
    generate,
    load_graph,
    merge,
    save_graph,
)
from pamod import cuts, modularity
from pamod.cli import main
from pamod.cuts import (
    EXACT_SUBSET_LIMIT,
    _part_tallies,
    _subset_sums,
    expansion_profile,
)
from pamod.models import (
    _enumerate_logs,
    _IntColumns,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    sample_target_matrix,
    vertex_of,
)
from pamod.modularity import (
    _inner_table,
    _require_pa_shape,
    bound_from_expansion_profile,
    profile_modularity_bound,
)

DATA = pathlib.Path(__file__).parent / "data"
MODELS = list(Model)
small_params = st.tuples(
    st.sampled_from(MODELS),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)


# ---------------------------------------------------------------- merging


def test_merge_standard_fixture():
    # minis 1..4, vertices 1..2; targets: loop, mini 1, mini 2, mini 1.
    log = ArrivalLog(Model.STANDARD, h=2, n=2, targets=(1, 1, 2, 1))
    g = merge(log)
    assert g.n == 2
    assert g.m == 4
    assert g.degree(1) == 6
    assert g.degree(2) == 2
    assert g.volume == 8
    assert g.edges == ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 4))


def test_merge_tilde_fixture():
    log = ArrivalLog(Model.TILDE, h=2, n=2, targets=(1, 1, 2, 3))
    g = merge(log)
    assert g.first_loop_weight1
    assert g.degree(1) == 4
    assert g.degree(2) == 3
    assert g.volume == 7


def test_merge_maps_minis_to_vertices():
    # mini m belongs to vertex ceil(m/h); targets 5 and 6 both mean vertex 2
    log = ArrivalLog(Model.STANDARD, h=3, n=2, targets=(1, 1, 2, 3, 5, 6))
    g = merge(log)
    assert g.edges[4] == (2, 2, 5)
    assert g.edges[5] == (2, 2, 6)


def test_arrival_log_validates_targets():
    with pytest.raises(ValueError):
        ArrivalLog(Model.STANDARD, h=2, n=2, targets=(1, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        ArrivalLog(Model.STANDARD, h=2, n=2, targets=(2, 1, 2, 1))  # e_1 not a loop
    with pytest.raises(ValueError):
        ArrivalLog(Model.STANDARD, h=2, n=2, targets=(1, 1, 4, 1))  # 4 > t at t=3
    with pytest.raises(ValueError):
        ArrivalLog(Model.TILDE, h=2, n=2, targets=(1, 1, 3, 1))  # self loop at t=3


def test_tilde_allows_no_later_self_loops():
    # at t >= 2 the tilde target range is 1..t-1
    ArrivalLog(Model.TILDE, h=2, n=2, targets=(1, 1, 2, 3))
    with pytest.raises(ValueError):
        ArrivalLog(Model.TILDE, h=2, n=2, targets=(1, 2, 2, 3))


# ------------------------------------------------------------- generation


@given(small_params)
def test_generate_is_deterministic(params):
    model, h, n, seed = params
    log_a, g_a = generate(model, h, n, seed)
    log_b, g_b = generate(model, h, n, seed)
    assert log_a == log_b
    assert g_a == g_b
    assert g_a.seed == seed
    assert g_a.model is model and g_a.h == h


@given(small_params)
def test_generate_records_its_seed_in_one_merge(params):
    model, h, n, seed = params
    log, g = generate(model, h, n, seed)
    assert g == dataclasses.replace(merge(log), seed=seed)
    assert merge(log).seed is None


@given(small_params)
def test_volume_identity(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    target = 2 * h * n - (1 if model is Model.TILDE else 0)
    assert g.volume == target
    assert g.volume == sum(g.degree(v) for v in range(1, n + 1))


@given(small_params)
def test_min_degree_at_least_h(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    assert min(g.degree(v) for v in range(1, n + 1)) >= h


@given(small_params)
def test_edge_count_and_arrival_ordering(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    assert g.m == h * n
    assert [e[2] for e in g.edges] == list(range(1, h * n + 1))
    for u, v, _ in g.edges:
        assert 1 <= u <= v <= n


def test_different_seeds_differ():
    # not guaranteed in principle, but a collision here would mean the
    # seed is being ignored
    logs = {generate(Model.STANDARD, 2, 20, s)[0].targets for s in range(10)}
    assert len(logs) == 10


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        generate(Model.STANDARD, 0, 4, 1)
    with pytest.raises(ValueError):
        generate(Model.STANDARD, 2, 0, 1)
    with pytest.raises(ValueError):
        generate(Model.STANDARD, 2, 4, -1)
    with pytest.raises(ValueError):
        generate(Model.STANDARD, 2, 4, 2**64)
    with pytest.raises(ValueError):
        generate("bogus", 2, 4, 1)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(12345, 0)
    assert a == derive_seed(12345, 0)
    seen = {derive_seed(12345, i) for i in range(100)}
    assert len(seen) == 100
    assert all(0 <= s < 2**64 for s in seen)


# ------------------------------------------- exact target distributions


def _brute_force_distribution(model, t_max):
    """Independent enumeration straight from the process definition.

    Tracks mini degrees explicitly and multiplies step probabilities,
    with no shared code with the implementation under test.
    """
    first_deg = 1 if model is Model.TILDE else 2
    out = {}

    def rec(t, targets, degs, prob):
        if t > t_max:
            key = tuple(targets)
            out[key] = out.get(key, Fraction(0)) + prob
            return
        # standard: targets 1..t-1 by degree plus one unit of mass for
        # the self loop (denominator 2t-1); tilde: 1..t-1 only (2t-3)
        denom = sum(degs) + (1 if model is Model.STANDARD else 0)
        for s in range(1, t):
            new_degs = list(degs)
            new_degs[s - 1] += 1
            rec(t + 1, targets + [s], new_degs + [1], prob * Fraction(degs[s - 1], denom))
        if model is Model.STANDARD:
            rec(t + 1, targets + [t], list(degs) + [2], prob * Fraction(1, denom))

    rec(2, [1], [first_deg], Fraction(1))
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("t_max", [1, 2, 3, 4, 5])
def test_exact_distribution_matches_brute_force(model, t_max):
    got = exact_small_t_distribution(model, t_max)
    want = _brute_force_distribution(model, t_max)
    assert got == want
    assert sum(got.values()) == 1


def test_exact_distribution_fixtures():
    assert exact_small_t_distribution(Model.STANDARD, 2) == {
        (1, 1): Fraction(2, 3),
        (1, 2): Fraction(1, 3),
    }
    assert exact_small_t_distribution(Model.TILDE, 2) == {(1, 1): Fraction(1)}


def test_exact_distribution_respects_limit():
    # no per-call limit: t_max = 7 runs, and the enumerator's level cap
    # refuses 10! standard logs before allocating them
    law = exact_small_t_distribution(Model.STANDARD, 7)
    assert len(law) == 5040 and sum(law.values()) == 1
    with pytest.raises(ValueError, match="step 10 would hold 3628800 logs"):
        exact_small_t_distribution(Model.STANDARD, 10)


@pytest.mark.parametrize("model", MODELS)
def test_sampled_targets_match_exact_distribution(model):
    # 4 sigma per outcome; a few dozen outcomes, so flakes are ~never
    t_max, trials = 3, 40_000
    mat = sample_target_matrix(model, t_max, trials, seed=99)
    assert mat.shape == (trials, t_max)
    exact = exact_small_t_distribution(model, t_max)
    counts = {}
    for row in mat:
        key = tuple(int(x) for x in row)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        p = float(p)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(counts.get(key, 0) / trials - p) <= 4 * se + 1e-12


# ------------------------------------------------- stream-pinning oracle
#
# Scalar reference samplers: one rng.integers call per step, endpoint list
# built explicitly.  The array sampler must reproduce their streams exactly.


def _reference_targets(model, length, rng):
    targets = [1]
    if model is Model.STANDARD:
        ends = [1, 1]
        for tau in range(2, length + 1):
            r = int(rng.integers(1, 2 * tau))
            s = ends[r - 1] if r <= 2 * tau - 2 else tau
            targets.append(s)
            ends.append(tau)
            ends.append(s)
    else:
        ends = [1]
        for tau in range(2, length + 1):
            s = ends[int(rng.integers(0, 2 * tau - 3))]
            targets.append(s)
            ends.append(tau)
            ends.append(s)
    return targets


def _reference_matrix(model, length, trials, seed):
    rng = np.random.default_rng(seed)
    draws = {}
    for tau in range(2, length + 1):
        if model is Model.STANDARD:
            draws[tau] = rng.integers(1, 2 * tau, size=trials)
        else:
            draws[tau] = rng.integers(0, 2 * tau - 3, size=trials)
    out = np.empty((trials, length), dtype=np.int64)
    out[:, 0] = 1
    for i in range(trials):
        if model is Model.STANDARD:
            ends = [1, 1]
            for tau in range(2, length + 1):
                r = draws[tau][i]
                s = ends[r - 1] if r <= 2 * tau - 2 else tau
                out[i, tau - 1] = s
                ends.append(tau)
                ends.append(s)
        else:
            ends = [1]
            for tau in range(2, length + 1):
                s = ends[draws[tau][i]]
                out[i, tau - 1] = s
                ends.append(tau)
                ends.append(s)
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("length", [1, 2, 3, 36, 63])
@pytest.mark.parametrize("trials", [1, 3, 2049])
def test_target_matrix_matches_scalar_reference(model, length, trials):
    # 36 x 2049 and 63 x 2049 span more than one 2^16-element chunk
    seed = 1000 * length + trials
    mat = sample_target_matrix(model, length, trials, seed)
    assert mat.dtype == np.int64
    assert mat.shape == (trials, length)
    assert np.array_equal(mat, _reference_matrix(model, length, trials, seed))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("length, trials", [(3, 70_000), (70_000, 2)])
def test_target_matrix_chunks_keep_the_stream(model, length, trials):
    # steps wider than a chunk, and runs longer than a chunk
    mat = sample_target_matrix(model, length, trials, 8)
    assert np.array_equal(mat, _reference_matrix(model, length, trials, 8))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("h, n", [(1, 1), (1, 2), (3, 12), (4, 25_000)])
def test_generate_matches_scalar_reference(model, h, n):
    log, _g = generate(model, h, n, 21)
    ref = _reference_targets(model, h * n, np.random.default_rng(21))
    assert log.targets == tuple(ref)
    assert all(type(s) is int for s in log.targets)


# ----------------------------------------------------------- persistence


@given(small_params)
def test_json_round_trip(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    payload = graph_to_json(g)
    assert list(payload) == ["model", "h", "n", "seed", "edges"]
    back = graph_from_json(json.loads(json.dumps(payload)))
    assert back == g


def test_save_load_round_trip(tmp_path):
    _, g = generate(Model.TILDE, 3, 5, 77)
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g


def test_from_json_validates():
    _, g = generate(Model.STANDARD, 2, 3, 1)
    payload = graph_to_json(g)
    bad = dict(payload)
    bad["edges"] = payload["edges"][:-1]
    with pytest.raises(ValueError):
        graph_from_json(bad)
    bad = dict(payload)
    bad["edges"] = [[u, v, 1] for u, v, _ in payload["edges"]]
    with pytest.raises(ValueError):
        graph_from_json(bad)


def _payload(h, n, edges, model="standard"):
    return {"model": model, "h": h, "n": n, "seed": 0, "edges": edges}


def test_from_json_rejects_edges_no_log_produces():
    # 7 edges inside {2, 3, 4} at h = 2: only 6 can end at those vertices
    edges = [[1, 1, 1], [1, 2, 2], [3, 4, 3], [3, 4, 4], [3, 4, 5],
             [2, 3, 6], [2, 4, 7], [2, 3, 8]]  # fmt: skip
    with pytest.raises(ValueError, match="cannot arise from attachment"):
        graph_from_json(_payload(2, 4, edges))


@pytest.mark.parametrize("model", ["standard", "tilde"])
@pytest.mark.parametrize(
    "edges",
    [
        [[1, 2, 1], [1, 2, 2]],  # e_1 must be the loop at vertex 1
        [[1, 1, 1], [1, 1, 2]],  # e_2 must end at vertex ceil(2/1) = 2
        [[1, 1, 2], [1, 2, 1]],  # arrival 2 ends at vertex 1
    ],
)
def test_from_json_requires_larger_endpoint_ceil_t_over_h(model, edges):
    with pytest.raises(ValueError, match="ceil"):
        graph_from_json(_payload(1, 2, edges, model))


def test_from_json_accepts_reversed_endpoints():
    g = graph_from_json(_payload(2, 2, [[1, 1, 1], [1, 1, 2], [1, 2, 3], [2, 1, 4]]))
    assert g.edges == ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 4))


def test_from_pairs_counts_loops():
    g = MultiGraph.from_pairs(2, [(1, 1), (1, 2)])
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    g1 = MultiGraph.from_pairs(2, [(1, 1), (1, 2)], first_loop_weight1=True)
    assert g1.degree(1) == 2
    assert g1.volume == 3


def test_arrival_log_rejects_non_integer_targets():
    # merge maps the targets through int64, which would truncate or
    # overflow on these
    for targets in [(1, 1.5), (1, 2**70), (1, "1")]:
        with pytest.raises(ValueError, match="targets must be integers"):
            ArrivalLog(Model.STANDARD, h=1, n=2, targets=targets)


# ------------------------------------------------------ loader strictness


def _valid_payload(**changes):
    payload = _payload(1, 2, [[1, 1, 1], [1, 2, 2]])
    payload.update(changes)
    return payload


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"edges": [[1.9, 1, 1], [1, 2.5, 2]]}, "edge entries must be integers"),
        ({"edges": [[1, 1, 1], [1, "2", 2]]}, "edge entries must be integers"),
        ({"edges": [[1, 1, 1], [True, 2, 2]]}, "edge entries must be integers"),
        ({"edges": [[1, 1, 1], [1, 2, 2.0]]}, "edge entries must be integers"),
        ({"edges": [[1, 1, 1], [1, 2, 2**70]]}, "malformed"),
        ({"edges": [[1, 1, 1], [-(2**63) - 1, 2, 2]]}, "malformed"),
        ({"edges": [[1, 1, 1], [1, 2]]}, "malformed"),
        ({"edges": [[1, 1, 1, 1], [1, 2, 2, 2]]}, "malformed"),
        ({"edges": [1, 1, 1]}, "malformed"),
        ({"h": 2.7}, "h must be an integer"),
        ({"h": "1"}, "h must be an integer"),
        ({"h": True}, "h must be an integer"),
        ({"n": 2.0}, "n must be an integer"),
        ({"n": "2"}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"h": 0, "n": 3, "edges": []}, "need h >= 1"),
        ({"h": -1, "n": -2, "edges": [[1, 1, 1], [1, 2, 2]]}, "need h >= 1"),
        ({"seed": -5}, "seed must be a 64-bit unsigned integer"),
        ({"seed": 2**70}, "seed must be a 64-bit unsigned integer"),
        ({"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
    ],
)
def test_from_json_accepts_only_integers(changes, match):
    with pytest.raises(ValueError, match=match):
        graph_from_json(_valid_payload(**changes))


def test_from_json_accepts_the_seed_range():
    for seed in (0, 2**64 - 1):
        assert graph_from_json(_valid_payload(seed=seed)).seed == seed


def test_load_graph_rejects_non_integer_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_valid_payload(edges=[[1, 1, 1], [1, 2, True]])))
    with pytest.raises(ValueError, match="edge entries must be integers, found bool"):
        load_graph(path)


# ------------------------------------------------------ golden graph file


def test_golden_graph_file(tmp_path):
    # the README command's output, pinned as the reference file format
    golden = (DATA / "graph_standard_h2_n12_seed7.json").read_bytes()
    out = tmp_path / "gen.json"
    assert main(["gen", "--model", "standard", "--h", "2", "--n", "12",
                 "--seed", "7", "--out", str(out)]) == 0  # fmt: skip
    assert out.read_bytes() == golden
    _log, g = generate(Model.STANDARD, 2, 12, 7)
    saved = tmp_path / "saved.json"
    save_graph(g, saved)
    assert saved.read_bytes() == golden
    assert load_graph(DATA / "graph_standard_h2_n12_seed7.json") == g


# ------------------------------------------------------ graph file codec


def _list_encoding(graph):
    """The graph file as ``json.dumps`` writes the list-of-lists form."""
    return json.dumps(graph_to_json(graph)) + "\n"


I64 = 2**63 - 1


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "n, edges",
    [
        (1, []),
        (1, [(1, 1, 1)]),
        (3, [(1, 2, -1), (2, 3, -40), (1, 1, 0)]),
        (2, [(1, 2, I64), (1, 1, -I64), (2, 2, -I64 - 1)]),
        (12345, [(9, 10, 11), (99, 12345, 100), (1000, 1000, 123456789)]),
    ],
)
def test_graph_to_text_matches_the_list_encoding(model, n, edges):
    for h, seed in [(1, 0), (7, 2**64 - 1)]:
        g = MultiGraph(n=n, edges=edges, model=model, h=h, seed=seed)
        assert graph_to_text(g) == _list_encoding(g)


def test_graph_to_text_matches_the_golden_file():
    golden = DATA / "graph_standard_h2_n12_seed7.json"
    g = load_graph(golden)
    assert graph_to_text(g) == _list_encoding(g) == golden.read_text()


def test_graph_encoders_refuse_graphs_without_metadata():
    g = MultiGraph.from_pairs(2, [(1, 1), (1, 2)])
    for encode in (graph_to_json, graph_to_text):
        with pytest.raises(ValueError, match="only generated graphs"):
            encode(g)


@pytest.fixture()
def restore_collector():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, error",
    [
        (None, None),
        ('{"model": "standard", "h": ', "Expecting value"),
        ("[" * 100_000 + "]" * 100_000, "JSON input is nested too deeply"),
    ],
    ids=["valid", "malformed", "deep"],
)
def test_load_graph_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, restore_collector, enabled, text, error
):
    path = tmp_path / "g.json"
    if text is None:
        save_graph(generate(Model.TILDE, 2, 5, 3)[1], path)
    else:
        path.write_text(text)
    during = []
    loads = json.loads

    def spy(*args, **kwargs):
        during.append(gc.isenabled())
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    (gc.enable if enabled else gc.disable)()
    if error is None:
        assert load_graph(path).m == 10
    else:
        with pytest.raises(ValueError, match=error):
            load_graph(path)
    assert gc.isenabled() is enabled
    assert during == [False]


@pytest.mark.parametrize("model", MODELS)
def test_graph_codec_peaks_per_edge(model, tmp_path):
    # the encoder formats one flat list of ints, with no list per edge; a
    # load holds json's parse, a list per edge, while it builds the array
    _, g = generate(model, 4, 25_000, 1)
    path = tmp_path / "g.json"
    save_graph(g, path)
    calls = {
        "graph_to_text": (lambda: graph_to_text(g), 190),
        "load_graph": (lambda: load_graph(path), 232),
    }
    for name, (call, cap) in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap * g.m, (name, peak / g.m)


# ------------------------------------------------ graph path oracle
#
# The scalar merge, target check, loader and writer that the array code
# replaced, kept verbatim.  The array code must give the same edges (as
# Python ints, in the same order), the same file bytes, and the same
# error type and message on every invalid input they were tested with.


def _reference_check_log(model, h, n, targets):
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={h}, n={n}")
    if len(targets) != h * n:
        raise ValueError(f"log length {len(targets)} != h*n = {h * n}")
    if targets[0] != 1:
        raise ValueError("edge e_1 is always the initial loop at mini-vertex 1")
    for t, s in enumerate(targets, start=1):
        hi = t if model is Model.STANDARD else max(t - 1, 1)
        if not 1 <= s <= hi:
            raise ValueError(f"target {s} out of range at arrival {t}")


def _reference_merge(log: ArrivalLog, *, seed: int | None = None) -> MultiGraph:
    h = log.h
    edges = []
    for t, s in enumerate(log.targets, start=1):
        a = vertex_of(t, h)
        b = vertex_of(s, h)
        edges.append((min(a, b), max(a, b), t))
    return MultiGraph(
        n=log.n,
        edges=tuple(edges),
        first_loop_weight1=(log.model is Model.TILDE),
        model=log.model,
        h=h,
        seed=seed,
    )


def _reference_save_graph(graph: MultiGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph), fh)
        fh.write("\n")


def _reference_graph_from_json(payload: dict) -> MultiGraph:
    try:
        model = Model(payload["model"])
        h = int(payload["h"])
        n = int(payload["n"])
        seed = int(payload["seed"])
        edges = tuple(
            (u, v, t) if u <= v else (v, u, t)
            for u, v, t in ((int(u), int(v), int(t)) for u, v, t in payload["edges"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph payload: {exc}") from None
    if len(edges) != h * n:
        raise ValueError(f"expected {h * n} edges, found {len(edges)}")
    arrivals = sorted(t for _u, _v, t in edges)
    if arrivals != list(range(1, h * n + 1)):
        raise ValueError("edge arrival indices must be exactly 1..h*n")
    for u, v, t in edges:
        if v != vertex_of(t, h):
            raise ValueError(
                f"edge ({u},{v},{t}) cannot arise from attachment: its larger "
                f"endpoint must be ceil(t/h) = {vertex_of(t, h)}"
            )
    return MultiGraph(
        n=n,
        edges=edges,
        first_loop_weight1=(model is Model.TILDE),
        model=model,
        h=h,
        seed=seed,
    )


def _outcome(fn, *args):
    """What a call gives: its result, or its error's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any error
        return (type(exc), str(exc))


def _assert_int_edges(graph):
    assert all(type(x) is int for edge in graph.edges for x in edge)


def _check_graph_path(model, h, n, seed, tmp_path):
    log, g = generate(model, h, n, seed)
    _reference_check_log(log.model, h, n, log.targets)
    assert all(type(s) is int for s in log.targets)
    ref = _reference_merge(log, seed=seed)
    assert g.edges == ref.edges
    assert g == ref
    _assert_int_edges(g)
    new_path, ref_path = tmp_path / "new.json", tmp_path / "ref.json"
    save_graph(g, new_path)
    _reference_save_graph(g, ref_path)
    assert new_path.read_bytes() == ref_path.read_bytes()
    loaded = load_graph(new_path)
    payload = json.loads(ref_path.read_text())
    want = _reference_graph_from_json(payload)
    assert loaded.edges == want.edges
    assert loaded == want == graph_from_json(payload) == g
    _assert_int_edges(loaded)


@given(small_params)
def test_graph_path_matches_reference(tmp_path_factory, params):
    _check_graph_path(*params, tmp_path_factory.mktemp("graph"))


@pytest.mark.parametrize("model", MODELS)
def test_graph_path_matches_reference_at_bulk_size(model, tmp_path):
    _check_graph_path(model, 4, 25_000, 2024, tmp_path)


INVALID_LOGS = [
    (Model.STANDARD, 0, 2, ()),
    (Model.STANDARD, 2, 2, (1, 1, 2)),
    (Model.STANDARD, 2, 2, (2, 1, 2, 1)),
    (Model.STANDARD, 2, 2, (1, 1, 4, 1)),
    (Model.TILDE, 2, 2, (1, 1, 3, 1)),
    (Model.TILDE, 2, 2, (1, 2, 2, 3)),
    (Model.STANDARD, 1, 3, (1, 0, 3)),
    (Model.TILDE, 1, 3, (1, 1, -4)),
    (Model.STANDARD, 1, 4, (1, 3, 9, 1)),
]


@pytest.mark.parametrize("model, h, n, targets", INVALID_LOGS)
def test_arrival_log_errors_match_reference(model, h, n, targets):
    got = _outcome(ArrivalLog, model, h, n, targets)
    assert isinstance(got, tuple)
    assert got == _outcome(_reference_check_log, model, h, n, targets)


@given(
    st.sampled_from(MODELS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(-1, 10), min_size=1, max_size=9),
)
def test_arrival_log_outcomes_match_reference_on_random_targets(model, h, n, targets):
    targets = (1, *targets[1:])
    got = _outcome(ArrivalLog, model, h, n, targets)
    want = _outcome(_reference_check_log, model, h, n, targets)
    assert got == want if isinstance(got, tuple) else want is None


def _invalid_payloads():
    _, g = generate(Model.STANDARD, 2, 3, 1)
    payload = graph_to_json(g)
    yield dict(payload, edges=payload["edges"][:-1])
    yield dict(payload, edges=[[u, v, 1] for u, v, _ in payload["edges"]])
    yield _payload(2, 4, [[1, 1, 1], [1, 2, 2], [3, 4, 3], [3, 4, 4], [3, 4, 5],
                          [2, 3, 6], [2, 4, 7], [2, 3, 8]])  # fmt: skip
    for model in ("standard", "tilde"):
        yield _payload(1, 2, [[1, 2, 1], [1, 2, 2]], model)
        yield _payload(1, 2, [[1, 1, 1], [1, 1, 2]], model)
        yield _payload(1, 2, [[1, 1, 2], [1, 2, 1]], model)
    yield _valid_payload(edges=[[1, 1, 1], [2, 0, 2]])
    yield _valid_payload(edges=[[1, 1, 1], [-1, 2, 2]])
    yield _valid_payload(n=0, edges=[])
    yield _valid_payload(model="bogus")
    yield {"model": "standard", "h": 1, "n": 2, "edges": []}


@pytest.mark.parametrize("payload", list(_invalid_payloads()))
def test_from_json_errors_match_reference(payload):
    got = _outcome(graph_from_json, payload)
    assert isinstance(got, tuple)
    assert got == _outcome(_reference_graph_from_json, payload)


@given(small_params, st.data())
def test_from_json_outcomes_match_reference_on_edited_payloads(params, data):
    # integer-only edits of a valid payload: reorder, swap endpoints,
    # overwrite entries, drop or repeat edges
    model, h, n, seed = params
    edges = graph_to_json(generate(model, h, n, seed)[1])["edges"]
    edges = data.draw(st.permutations(edges))
    ints = st.integers(min_value=-2, max_value=h * n + 2)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(edges) - 1))
        kind = data.draw(st.sampled_from(["swap", "set", "drop", "repeat"]))
        if kind == "swap":
            edges[i] = [edges[i][1], edges[i][0], edges[i][2]]
        elif kind == "set":
            edges[i] = list(edges[i])
            edges[i][data.draw(st.integers(0, 2))] = data.draw(ints)
        elif kind == "drop" and len(edges) > 1:
            edges.pop(i)
        else:
            edges.append(list(edges[i]))
    payload = {"model": model.value, "h": h, "n": n, "seed": seed, "edges": edges}
    got = _outcome(graph_from_json, payload)
    want = _outcome(_reference_graph_from_json, payload)
    if isinstance(want, MultiGraph):
        # the one rule the reference lacks: tilde loops no tilde run makes
        want = _tilde_loop_error(want) or want
    assert got == want
    if isinstance(got, MultiGraph):
        assert got.edges == want.edges
        _assert_int_edges(got)


# ------------------------------------------------------ tilde loop rule


def _tilde_loop_error(graph):
    """The loader's error for the first tilde loop no tilde run makes, or None.

    Tilde arrivals never target themselves, so a loop (v, v, t) with t > 1
    needs an earlier mini-vertex in v's block: t must not start the block.
    """
    if graph.model is not Model.TILDE:
        return None
    for u, v, t in graph.edges:
        if u == v and t > 1 and (t - 1) % graph.h == 0:
            return (
                ValueError,
                f"edge ({u},{v},{t}) cannot arise from tilde attachment: a "
                f"loop at arrival {t} needs an earlier mini-vertex of vertex {v}",
            )
    return None


@pytest.mark.parametrize(
    "h, n, edges",
    [
        (1, 2, [[1, 1, 1], [2, 2, 2]]),
        (2, 2, [[1, 1, 1], [1, 1, 2], [2, 2, 3], [1, 2, 4]]),
        (2, 2, [[2, 2, 3], [1, 2, 4], [1, 1, 2], [1, 1, 1]]),
        (3, 2, [[1, 1, 1], [1, 1, 2], [1, 1, 3], [2, 2, 4], [1, 2, 5], [2, 2, 6]]),
        (1, 3, [[1, 1, 1], [1, 2, 2], [3, 3, 3]]),
    ],
)
def test_from_json_refuses_tilde_loops_no_tilde_run_makes(h, n, edges):
    with pytest.raises(ValueError, match="cannot arise from tilde attachment"):
        graph_from_json(_payload(h, n, edges, "tilde"))
    # the standard model's lazy self-loop makes each of them
    assert graph_from_json(_payload(h, n, edges)).m == h * n


def test_from_json_accepts_tilde_loops_inside_a_block():
    # e_2 and e_4 target an earlier mini-vertex of their own vertex
    edges = [[1, 1, 1], [1, 1, 2], [1, 2, 3], [2, 2, 4]]
    g = graph_from_json(_payload(2, 2, edges, "tilde"))
    assert g == merge(ArrivalLog(Model.TILDE, 2, 2, (1, 1, 2, 3)), seed=0)


def _edge_lists(h, n, any_larger_end):
    """Every edge list in arrival order with u <= v in 1..n.

    The larger endpoint of e_t is ceil(t/h) unless ``any_larger_end``.
    """
    per_arrival = []
    for t in range(1, h * n + 1):
        ends = range(1, n + 1) if any_larger_end else [vertex_of(t, h)]
        per_arrival.append([[u, v, t] for v in ends for u in range(1, v + 1)])
    return itertools.product(*per_arrival)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "h, n", [(h, n) for h in range(1, 7) for n in range(1, 7) if h * n <= 6]
)
def test_loader_accepts_exactly_the_merged_logs(model, h, n):
    targets, _nums, _denom = _enumerate_logs(model, h * n)
    made = {merge(ArrivalLog(model, h, n, row)).edges for row in targets}
    accepted = set()
    for edges in _edge_lists(h, n, any_larger_end=h * n <= 4):
        try:
            graph = graph_from_json(_payload(h, n, list(edges), model.value))
        except ValueError:
            continue
        accepted.add(graph.edges)
    assert accepted == made


# ----------------------------------------------------- column store oracle
#
# MultiGraph's tuple-loop check and views, cuts._part_tallies and
# modularity.profile_modularity_bound as they were before the edges became
# one int64 array, kept verbatim but for the inlined MultiGraph.vol_of.
# The array code must give the same values, and the same error type and
# message on invalid edge sets.


def _reference_check_graph(n, edges):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for u, v, t in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u > v:
            raise ValueError(f"edge ({u},{v},{t}) must be stored with u <= v")


def _reference_degrees(self) -> tuple[int, ...]:
    """Degree per vertex, index 0 unused."""
    deg = [0] * (self.n + 1)
    for u, v, t in self.edges:
        if u == v:
            deg[u] += 1 if (self.first_loop_weight1 and t == 1) else 2
        else:
            deg[u] += 1
            deg[v] += 1
    return tuple(deg)


def _reference_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Non-loop neighbor multiplicities: adjacency[v] = ((nb, mult), ...)."""
    counts: list[dict[int, int]] = [dict() for _ in range(self.n + 1)]
    for u, v, _t in self.edges:
        if u != v:
            counts[u][v] = counts[u].get(v, 0) + 1
            counts[v][u] = counts[v].get(u, 0) + 1
    return tuple(tuple(sorted(c.items())) for c in counts)


def _reference_loop_counts(self) -> tuple[int, ...]:
    loops = [0] * (self.n + 1)
    for u, v, _t in self.edges:
        if u == v:
            loops[u] += 1
    return tuple(loops)


def _reference_part_tallies(graph: MultiGraph, parts):
    """Per-part (inner edges, boundary edges, volume) in one edge scan.

    ``parts`` must cover every vertex; loops count as inner edges.
    """
    idx = [0] * (graph.n + 1)
    for i, p in enumerate(parts):
        for v in p:
            idx[v] = i
    inner = [0] * len(parts)
    boundary = [0] * len(parts)
    for u, v, _t in graph.edges:
        pu, pv = idx[u], idx[v]
        if pu == pv:
            inner[pu] += 1
        else:
            boundary[pu] += 1
            boundary[pv] += 1
    return inner, boundary, [sum(graph.degrees[v] for v in p) for p in parts]


# modularity._check_inner_edge_cap as it was with two int64 tables and a
# size cap of its own, kept verbatim as the oracle for the one-table check.
_INNER_EDGE_CAP_LIMIT = 16


def _check_inner_edge_cap(graph: MultiGraph, h: int) -> None:
    if graph.n > _INNER_EDGE_CAP_LIMIT:
        raise ValueError(
            "cannot verify e(S) <= h|S| exhaustively for "
            f"n={graph.n} > {_INNER_EDGE_CAP_LIMIT}"
        )
    inner = _inner_table(graph)
    cap = _subset_sums(graph.n, [h] * graph.n, None, np.int64)  # h|S|
    bad = np.flatnonzero(inner > cap)
    if bad.size:
        mask = int(bad[0])
        raise ValueError(
            f"subset mask {mask:b} has {inner[mask]} inner edges, "
            f"over the cap h*|S| = {cap[mask]}"
        )


def _reference_profile_modularity_bound(
    graph: MultiGraph, limit: int = EXACT_SUBSET_LIMIT
) -> Fraction:
    h = _require_pa_shape(graph)
    if graph.n < 2:
        raise ValueError("profile bound needs n >= 2")
    upper = [0] * (graph.n + 1)
    for _u, v, _t in graph.edges:
        upper[v] += 1
    if max(upper) > h:
        _check_inner_edge_cap(graph, h)
    profile = expansion_profile(graph, limit=limit)
    return bound_from_expansion_profile(profile, h, graph.n)


def _oracle_graphs(corpus, multigraphs):
    return [*corpus.values(), *multigraphs]


def test_graph_views_match_tuple_loops(corpus, multigraphs):
    for g in _oracle_graphs(corpus, multigraphs):
        assert _outcome(_reference_check_graph, g.n, g.edges) is None
        assert g.degrees == _reference_degrees(g)
        assert g.adjacency == _reference_adjacency(g)
        assert g.loop_counts == _reference_loop_counts(g)
        assert all(type(x) is int for x in g.degrees + g.loop_counts)
        assert all(type(x) is int for row in g.adjacency for pair in row for x in pair)


def test_part_tallies_match_tuple_loop(corpus, multigraphs):
    rnd = random.Random(5)
    for g in _oracle_graphs(corpus, multigraphs):
        for k in (1, 2, 3, g.n):
            labels = [rnd.randrange(k) for _ in range(g.n)]
            parts = [
                frozenset(v for v in range(1, g.n + 1) if labels[v - 1] == i)
                for i in range(k)
            ]
            assert _part_tallies(g, parts) == _reference_part_tallies(g, parts)


def test_profile_bound_matches_tuple_count(corpus, multigraphs):
    # multigraphs carry no h, so each gets h = 1..3; many then fail the
    # degree or e(S) <= h|S| checks, whose errors must match too.  At
    # n = 18 no exhaustive fallback exists, so only the count decides.
    graphs = [*corpus.values(), *(generate(m, 2, 18, 3)[1] for m in MODELS)]
    graphs += [dataclasses.replace(g, h=h) for g in multigraphs for h in (1, 2, 3)]
    for g in graphs:
        got = _outcome(profile_modularity_bound, g)
        assert got == _outcome(_reference_profile_modularity_bound, g)


def test_inner_edge_cap_check_matches_the_two_table_oracle(multigraphs):
    # loops and multi-edges up to n = 16 under h = 1..3: the int32 table
    # of e(S) - h|S| must refuse the same first mask with the same counts
    rnd = random.Random(23)
    graphs = list(multigraphs)
    for i in range(150):
        n = rnd.randint(1, 16)
        pairs = [
            (rnd.randint(1, n), rnd.randint(1, n)) for _ in range(rnd.randint(1, 3 * n))
        ]
        graphs.append(MultiGraph.from_pairs(n, pairs, first_loop_weight1=bool(i % 2)))
    # counts past int16
    graphs.append(MultiGraph.from_pairs(3, [(1, 1)] * 40000 + [(1, 2)] * 40000))
    refused = 0
    for g in graphs:
        for h in (1, 2, 3):
            got = _outcome(modularity._check_inner_edge_cap, g, h)
            assert got == _outcome(_check_inner_edge_cap, g, h)
            refused += got is not None
    assert 0 < refused < 3 * len(graphs)


def _looped_cycle(n: int) -> MultiGraph:
    """A cycle on 1..n with three loops at vertex 1, labelled h = 2.

    It passes the degree checks, but e({1}) = 3 > h|S| = 2.
    """
    pairs = [(1, 1)] * 3 + [(v, v % n + 1) for v in range(1, n + 1)]
    return dataclasses.replace(MultiGraph.from_pairs(n, pairs), h=2)


def test_profile_bound_checks_the_inner_edge_cap_under_the_table_cap():
    # the profile's size rule (n <= 24) is the check's too: at n = 20 the
    # check runs and names the mask, where the oracle refused for size
    g = _looped_cycle(20)
    message = "subset mask 1 has 3 inner edges, over the cap h*|S| = 2"
    assert _outcome(profile_modularity_bound, g) == (ValueError, message)
    assert _outcome(_reference_profile_modularity_bound, g) == (
        ValueError,
        "cannot verify e(S) <= h|S| exhaustively for n=20 > 16",
    )


def test_profile_bound_refuses_n25_before_building_a_table(monkeypatch):
    g = _looped_cycle(25)

    def no_table(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(cuts, "_subset_sums", no_table)
    monkeypatch.setattr(modularity, "_subset_sums", no_table)
    with pytest.raises(ValueError, match=f"exhaustive limit {EXACT_SUBSET_LIMIT}"):
        profile_modularity_bound(g)


INVALID_EDGE_SETS = [
    (0, ()),
    (-1, ((1, 1, 1),)),
    (3, ((1, 1, 1), (2, 1, 2))),
    (3, ((1, 4, 1),)),
    (3, ((0, 1, 1),)),
    (2, ((-1, -2, 1),)),
    (2, ((3, 1, 1),)),
    (3, ((1, 2, 1), (3, 2, 2), (0, 1, 3))),
    (3, ((1, 2, 1), (0, 1, 2), (3, 2, 3))),
    (3, ((1, 2, 1), (2, 3, 2), (2, 2, 3), (3, 1, 4))),
]


@pytest.mark.parametrize("n, edges", INVALID_EDGE_SETS)
def test_graph_errors_match_tuple_loop(n, edges):
    got = _outcome(MultiGraph, n, edges)
    assert isinstance(got, tuple)
    assert got == _outcome(_reference_check_graph, n, edges)


@given(
    st.integers(1, 4),
    st.lists(st.tuples(*[st.integers(-1, 5)] * 3), max_size=6),
)
def test_graph_outcomes_match_tuple_loop_on_random_edges(n, edges):
    got = _outcome(MultiGraph, n, edges)
    want = _outcome(_reference_check_graph, n, edges)
    assert got == want if isinstance(got, tuple) else want is None


@pytest.mark.parametrize(
    "edges",
    [
        ((1, 1, 1.5),),
        ((1, 1, 2**70),),
        ((1, 1, "1"),),
        ((True, True, True),),
        ((1, 1),),
    ],
)
def test_graph_rejects_non_integer_triples(edges):
    with pytest.raises(ValueError, match="edges must be rows of 3 integers"):
        MultiGraph(2, edges)
    with pytest.raises(ValueError):  # ragged rows
        MultiGraph(2, ((1, 1, 1), edges[0][:2]))


def test_column_store_keeps_dataclass_semantics(corpus):
    for (model, h, n, seed), g in corpus.items():
        log, _g = generate(model, h, n, seed)
        for obj in (log, g):
            back = pickle.loads(pickle.dumps(obj))
            copy = dataclasses.replace(obj)
            assert back == obj == copy
            assert hash(back) == hash(obj) == hash(copy)
        back = pickle.loads(pickle.dumps(g, protocol=5))
        assert not back.edge_array.flags.writeable
        assert g.edges == back.edges and g.edges is not g.edges
        assert dataclasses.replace(g, seed=None) == merge(log)
        assert dataclasses.replace(g, seed=seed + 1) != g
        twin = MultiGraph(g.n, g.edges, g.first_loop_weight1, g.model, g.h, g.seed)
        assert twin == g and hash(twin) == hash(g)


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_unpickled_columns_are_read_only(corpus, protocol):
    for (model, h, n, seed), g in corpus.items():
        log, _g = generate(model, h, n, seed)
        back_log = pickle.loads(pickle.dumps(log, protocol=protocol))
        back = pickle.loads(pickle.dumps(g, protocol=protocol))
        assert back_log == log and back == g
        assert not back_log.target_array.flags.writeable
        assert not back.edge_array.flags.writeable


@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_tampered_pickles_are_refused(protocol):
    # the int64 rows appear as raw bytes in the payload; rewrite one
    cases = [
        (ArrivalLog(Model.STANDARD, 1, 3, (1, 1, 2)), (1, 1, 2), (1, 1, 9),
         "target 9 out of range at arrival 3"),
        (MultiGraph(2, ((1, 1, 1), (1, 2, 2))), (1, 2, 2), (2, 1, 2),
         "must be stored with u <= v"),
    ]
    for obj, row, forged, message in cases:
        payload = pickle.dumps(obj, protocol=protocol)
        old = np.array(row, dtype="<i8").tobytes()
        assert payload.count(old) == 1
        payload = payload.replace(old, np.array(forged, dtype="<i8").tobytes())
        with pytest.raises(ValueError, match=message):
            pickle.loads(payload)


def _tuple_key(g: MultiGraph) -> tuple:
    """The fields as the dataclass-generated ``__eq__`` compared them."""
    return (g.n, g.edges, g.first_loop_weight1, g.model, g.h, g.seed)


def test_graph_equality_and_hash_match_the_field_tuples(corpus, multigraphs):
    graphs = list(corpus.values()) + list(multigraphs)
    variants = []
    for g in graphs[::7]:
        variants += [
            dataclasses.replace(g, seed=None),
            dataclasses.replace(g, h=7),
            dataclasses.replace(g, first_loop_weight1=not g.first_loop_weight1),
            dataclasses.replace(g, n=g.n + 1),
            MultiGraph(g.n, g.edge_array[::-1], *_tuple_key(g)[2:]),
            MultiGraph(g.n, g.edge_array.copy(), *_tuple_key(g)[2:]),
        ]
    graphs += variants
    _check_against_tuple_keys(graphs, _tuple_key)
    g = graphs[0]
    assert g.__eq__(_tuple_key(g)) is NotImplemented and g != _tuple_key(g)


def _check_against_tuple_keys(records, key) -> None:
    keys = [key(r) for r in records]
    for a, key_a in zip(records, keys):
        for b, key_b in zip(records, keys):
            assert (a == b) == (key_a == key_b)
            assert (a != b) == (key_a != key_b)
            if key_a == key_b:
                assert hash(a) == hash(b)


def _log_tuple_key(log: ArrivalLog) -> tuple:
    return (log.model, log.h, log.n, log.targets)


def test_log_equality_and_hash_match_the_field_tuples(corpus):
    logs = [generate(*key)[0] for key in corpus]
    variants = []
    for log in logs[::5]:
        s = log.target_array
        variants += [
            # tilde targets are valid standard ones
            ArrivalLog(Model.STANDARD, log.h, log.n, s),
            ArrivalLog(log.model, log.n, log.h, s),
            ArrivalLog(log.model, log.h, log.n, s.copy()),
            ArrivalLog(log.model, log.h, log.n, np.r_[s[:-1], 1]),
        ]
    logs += variants
    _check_against_tuple_keys(logs, _log_tuple_key)
    log = logs[0]
    assert log.__eq__(_log_tuple_key(log)) is NotImplemented
    assert log != _log_tuple_key(log) and log != merge(log)


def test_equality_hash_and_pickle_read_the_arrays(corpus, monkeypatch):
    keys = list(corpus)[::5]
    records = [r for key in keys for r in generate(*key)]
    twins = [r for key in keys for r in generate(*key)]
    hashes = [hash(r) for r in records]
    edited = [dataclasses.replace(g, seed=None) for g in records[1::2]]

    def refuse(self, obj, objtype=None):
        raise AssertionError(f"{self.name} built its tuple view")

    monkeypatch.setattr(_IntColumns, "__get__", refuse)
    for a, b, h in zip(records, twins, hashes):
        assert a == b and not a != b and hash(b) == h
        assert pickle.loads(pickle.dumps(a)) == a
    assert all(g != e for g, e in zip(records[1::2], edited))


def test_column_store_copies_writable_arrays():
    cols = np.array([[1, 1, 1], [1, 2, 2]])
    g = MultiGraph(2, cols)
    cols[0, 0] = 2
    assert g.edges == ((1, 1, 1), (1, 2, 2))
    assert not g.edge_array.flags.writeable
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 2
    row = np.array([1, 1, 2])
    log = ArrivalLog(Model.STANDARD, 1, 3, row)
    row[2] = 9
    assert log.targets == (1, 1, 2)


# ------------------------------------------------------------ guard


def test_package_reads_the_arrays_not_the_tuple_views():
    # .edges and .targets rebuild tuples of Python ints on every read; only
    # the descriptor that stores them may name them
    readers = []
    for path in sorted(pathlib.Path(pamod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_IntColumns"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            named = (
                isinstance(node, ast.Attribute)
                and node.attr in ("edges", "targets")
                or isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "getattr"
                and any(
                    isinstance(a, ast.Constant) and a.value in ("edges", "targets")
                    for a in node.args
                )
            )
            if named and id(node) not in exempt:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
