"""Generation, merging, and the exact small-step target distributions."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from pamod.models import graph_from_json, graph_to_json, sample_target_matrix

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
    with pytest.raises(ValueError):
        exact_small_t_distribution(Model.STANDARD, 7)
    exact_small_t_distribution(Model.STANDARD, 7, limit=7)


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
