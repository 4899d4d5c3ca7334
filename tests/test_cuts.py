"""Edge boundary counts and exact/sampled u-bounded expansion."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pamod import (
    Model,
    MultiGraph,
    edge_boundary,
    exact_expansion,
    expansion_profile,
    generate,
    sampled_expansion,
)
from pamod import cuts, modularity
from pamod.cuts import (
    EXACT_SUBSET_LIMIT,
    ExpansionResult,
    SearchMethod,
    _boundary_table,
    _check_u,
    _subset_sums,
    as_fraction,
)
from pamod.models import _check_seed
from pamod.modularity import _inner_table, profile_modularity_bound

K4 = MultiGraph.from_pairs(4, list(itertools.combinations(range(1, 5), 2)))

graph_params = st.tuples(
    st.sampled_from(list(Model)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)


def _brute_force_alpha(graph, u):
    """Reference: scan every subset with itertools, recount every cut."""
    k_max = math.floor(as_fraction(u) * graph.n)
    best = None
    witness = None
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(range(1, graph.n + 1), k):
            sset = set(combo)
            bnd = sum(
                1
                for a, b, _ in graph.edges
                if (a in sset) != (b in sset)
            )
            ratio = Fraction(bnd, k)
            if best is None or ratio < best or (ratio == best and sorted(sset) < sorted(witness)):
                best = ratio
                witness = sset
    return best, witness


# -------------------------------------------------------------- boundary


def test_edge_boundary_fixture():
    rep = edge_boundary(K4, {1, 2})
    assert rep.e_inner == 1
    assert rep.e_boundary == 4
    assert rep.vol == 6
    assert rep.ratio == 2


def test_edge_boundary_loops_never_cross():
    g = MultiGraph.from_pairs(2, [(1, 1), (1, 2)])
    rep = edge_boundary(g, {1})
    assert rep.e_inner == 1
    assert rep.e_boundary == 1
    assert rep.vol == 3


def test_edge_boundary_empty_and_full():
    rep = edge_boundary(K4, set())
    assert rep.ratio is None and rep.e_boundary == 0
    rep = edge_boundary(K4, {1, 2, 3, 4})
    assert rep.e_boundary == 0 and rep.e_inner == K4.m


def test_edge_boundary_rejects_out_of_range():
    with pytest.raises(ValueError):
        edge_boundary(K4, {0})
    with pytest.raises(ValueError):
        edge_boundary(K4, {5})


@given(graph_params, st.integers(min_value=0, max_value=2**16))
def test_cut_identity(params, mask_seed):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    subset = {v for v in range(1, n + 1) if (mask_seed >> (v - 1)) & 1}
    rep = edge_boundary(g, subset)
    shift = 1 if (model is Model.TILDE and 1 in subset) else 0
    assert 2 * rep.e_inner + rep.e_boundary == rep.vol + shift


# ---------------------------------------------------------- subset tables

# loops, multi-edges, and a vertex with no edges at all
MULTI = MultiGraph.from_pairs(
    6, [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (3, 5), (5, 3), (5, 3), (1, 5), (4, 4)]
)
MULTI_W1 = MultiGraph.from_pairs(
    5, [(1, 1), (1, 1), (1, 3), (3, 4), (4, 3), (2, 5), (5, 5)], first_loop_weight1=True
)


def _table_graphs():
    for model in Model:
        for h in (1, 2, 3):
            for n in range(1, 9):
                yield generate(model, h, n, 100 * h + n)[1]
    yield MULTI
    yield MULTI_W1


@pytest.mark.parametrize("graph", list(_table_graphs()))
def test_subset_tables_match_edge_boundary_on_every_mask(graph):
    n = graph.n
    tables = {
        "e_boundary": _boundary_table(graph),
        "e_inner": _inner_table(graph),
        "vol": _subset_sums(n, graph.degrees[1:], None, np.int64),
        "size": _subset_sums(n, [1] * n, None, np.uint8),
    }
    assert tables["e_boundary"].dtype == np.int32
    for mask in range(1 << n):
        rep = edge_boundary(graph, {v for v in range(1, n + 1) if (mask >> (v - 1)) & 1})
        want = {
            "e_boundary": rep.e_boundary,
            "e_inner": rep.e_inner,
            "vol": rep.vol,
            "size": len(rep.subset),
        }
        assert {name: int(t[mask]) for name, t in tables.items()} == want


# ------------------------------------------------------- exact expansion


def test_k4_expansion():
    res = exact_expansion(K4, Fraction(1, 2))
    assert res.alpha == 2
    assert res.witness == frozenset({1, 2})
    assert res.method is SearchMethod.EXHAUSTIVE
    assert expansion_profile(K4) == {1: Fraction(3), 2: Fraction(2)}


def test_expansion_small_u_is_infinite():
    # floor(u*n) = 0 leaves nothing to minimize over
    res = exact_expansion(K4, Fraction(1, 5))
    assert res.alpha == math.inf
    assert res.witness is None


def test_expansion_u_validation():
    for bad in (0, Fraction(3, 4), -1, 1):
        with pytest.raises(ValueError):
            exact_expansion(K4, bad)
    with pytest.raises(ValueError):
        exact_expansion(K4, float("nan"))


@pytest.mark.parametrize("u", ["1/0", "0/0"])
def test_a_zero_denominator_is_not_a_rational(u):
    # Fraction("1/0") raises ZeroDivisionError, which no caller expects
    message = f"cannot interpret '{u}' as a rational"
    for call in (
        lambda: exact_expansion(K4, u),
        lambda: sampled_expansion(K4, u, trials=2, seed=0),
        lambda: cuts.as_fraction(u),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message


def test_expansion_refuses_large_graphs():
    _, g = generate(Model.STANDARD, 1, 30, 0)
    with pytest.raises(ValueError, match="sampled_expansion"):
        exact_expansion(g, Fraction(1, 2))
    with pytest.raises(ValueError):
        expansion_profile(g)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: exact_expansion(g, Fraction(1, 2), limit=30),
        lambda g: expansion_profile(g, limit=30),
        lambda g: profile_modularity_bound(g, limit=30),
    ],
    ids=["exact_expansion", "expansion_profile", "profile_modularity_bound"],
)
def test_no_limit_lifts_the_subset_table_cap(monkeypatch, call):
    # n = 25 would need 2^25-entry tables; the refusal must come first
    _, g = generate(Model.STANDARD, 1, 25, 0)

    def no_table(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(cuts, "_subset_sums", no_table)
    monkeypatch.setattr(modularity, "_subset_sums", no_table)
    with pytest.raises(ValueError, match=f"exhaustive limit {EXACT_SUBSET_LIMIT}"):
        call(g)


def test_expansion_refuses_n25_even_when_no_subset_qualifies(monkeypatch):
    # floor(u*n) = 0 is answered +inf without a table, but only after the
    # size refusal
    _, g = generate(Model.STANDARD, 1, 25, 0)

    def no_table(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(cuts, "_subset_sums", no_table)
    assert math.floor(Fraction(1, 1000) * 25) == 0
    with pytest.raises(ValueError, match=f"exhaustive limit {EXACT_SUBSET_LIMIT}"):
        exact_expansion(g, Fraction(1, 1000))


@pytest.mark.parametrize("model", list(Model))
def test_subset_table_peaks_per_mask(model):
    # the profile holds an int32 boundary and a uint8 size table, 5 bytes
    # per mask; exact expansion's witness search adds one boolean table
    n = 22
    _, g = generate(model, 2, n, 1)
    calls = {
        "exact_expansion": (lambda: exact_expansion(g, Fraction(1, 2)), 6.25),
        "expansion_profile": (lambda: expansion_profile(g), 5.25),
    }
    for name, (call, cap) in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap * 2**n, (name, peak / 2**n)


@given(graph_params, st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
@example((Model.STANDARD, 2, 13, 4), Fraction(1, 2))
@example((Model.TILDE, 1, 14, 9), Fraction(1, 2))
@example((Model.STANDARD, 1, 14, 2), Fraction(1, 3))
@example((Model.TILDE, 3, 13, 5), Fraction(1, 4))
def test_exact_expansion_matches_brute_force(params, u):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    res = exact_expansion(g, u)
    want_alpha, want_witness = _brute_force_alpha(g, u)
    if want_alpha is None:
        assert res.alpha == math.inf and res.witness is None
    else:
        assert res.alpha == want_alpha
        assert res.witness == frozenset(want_witness)
        # the witness really attains alpha
        assert edge_boundary(g, res.witness).ratio == res.alpha


@given(graph_params)
@example((Model.STANDARD, 2, 14, 4))
@example((Model.TILDE, 1, 13, 9))
def test_profile_matches_brute_force_and_is_monotone(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    prof = expansion_profile(g)
    if n // 2 < 1:
        assert prof == {}
        return
    assert sorted(prof) == list(range(1, n // 2 + 1))
    last = None
    for k in range(1, n // 2 + 1):
        want, _ = _brute_force_alpha(g, Fraction(k, n))
        assert prof[k] == want
        if last is not None:
            assert prof[k] <= last
        last = prof[k]


# ----------------------------------------------------- sampled expansion


@given(graph_params, st.integers(min_value=0, max_value=2**32))
def test_sampled_never_below_exact(params, sseed):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    exact = exact_expansion(g, Fraction(1, 2))
    samp = sampled_expansion(g, Fraction(1, 2), trials=8, seed=sseed)
    assert samp.method is SearchMethod.SAMPLED
    assert samp.alpha >= exact.alpha
    if samp.witness is not None:
        rep = edge_boundary(g, samp.witness)
        assert rep.ratio == samp.alpha
        assert 1 <= len(samp.witness) <= n // 2


def test_sampled_is_deterministic():
    _, g = generate(Model.STANDARD, 2, 14, 5)
    a = sampled_expansion(g, Fraction(1, 2), trials=32, seed=9)
    b = sampled_expansion(g, Fraction(1, 2), trials=32, seed=9)
    assert a == b


def test_sampled_finds_k4_optimum():
    res = sampled_expansion(K4, Fraction(1, 2), trials=64, seed=0)
    assert res.alpha == 2


def _boundary_of(graph, in_s):
    boundary = 0
    for u, v, _t in graph.edges:
        if u != v and in_s[u] != in_s[v]:
            boundary += 1
    return boundary


def _flip_delta(adj, in_s, w):
    """Boundary change if vertex w flips (enter when outside, leave when in)."""
    delta = 0
    if in_s[w]:
        for nb, mult in adj[w]:
            delta += mult if in_s[nb] else -mult
    else:
        for nb, mult in adj[w]:
            delta += -mult if in_s[nb] else mult
    return delta


def _reference_sampled_expansion(graph, u, trials, seed):
    """The local search with a fresh Fraction per candidate, kept as an oracle."""
    uf = _check_u(u)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    seed = _check_seed(seed)
    n = graph.n
    k_max = (uf * n).numerator // (uf * n).denominator
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.SAMPLED
        )
    rng = np.random.default_rng(seed)
    adj = graph.adjacency
    best_ratio = None
    best_subset = None
    for _ in range(trials):
        size = int(rng.integers(1, k_max + 1))
        members = rng.choice(n, size=size, replace=False) + 1
        in_s = [False] * (n + 1)
        for v in members:
            in_s[v] = True
        boundary = _boundary_of(graph, in_s)
        while True:
            cur_ratio = Fraction(boundary, size)
            move = None  # (new_boundary, new_size, kind, w, w2)
            move_ratio = cur_ratio
            for w in range(1, n + 1):
                d = _flip_delta(adj, in_s, w)
                if in_s[w]:
                    if size > 1:
                        cand = Fraction(boundary + d, size - 1)
                        if cand < move_ratio:
                            move_ratio = cand
                            move = (boundary + d, size - 1, "rem", w, 0)
                else:
                    if size < k_max:
                        cand = Fraction(boundary + d, size + 1)
                        if cand < move_ratio:
                            move_ratio = cand
                            move = (boundary + d, size + 1, "add", w, 0)
            # swaps keep the size; evaluate remove w then add w2 exactly
            for w in range(1, n + 1):
                if not in_s[w]:
                    continue
                d1 = _flip_delta(adj, in_s, w)
                in_s[w] = False
                for w2 in range(1, n + 1):
                    if in_s[w2] or w2 == w:
                        continue
                    d2 = _flip_delta(adj, in_s, w2)
                    cand = Fraction(boundary + d1 + d2, size)
                    if cand < move_ratio:
                        move_ratio = cand
                        move = (boundary + d1 + d2, size, "swap", w, w2)
                in_s[w] = True
            if move is None:
                break
            boundary, size, kind, w, w2 = move
            if kind == "rem":
                in_s[w] = False
            elif kind == "add":
                in_s[w] = True
            else:
                in_s[w] = False
                in_s[w2] = True
        subset = tuple(v for v in range(1, n + 1) if in_s[v])
        ratio = Fraction(boundary, size)
        if (
            best_ratio is None
            or ratio < best_ratio
            or (ratio == best_ratio and subset < best_subset)
        ):
            best_ratio = ratio
            best_subset = subset
    assert best_subset is not None and best_ratio is not None
    return ExpansionResult(
        u=uf,
        alpha=best_ratio,
        witness=frozenset(best_subset),
        method=SearchMethod.SAMPLED,
    )


ORACLE_US = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_sampled_matches_reference_on_generated_graphs(model, h):
    for n in (1, 2, 3, 5, 8, 13, 20, 32):
        for seed in range(6):
            _, g = generate(model, h, n, 1000 * h + 10 * n + seed)
            for u in ORACLE_US:
                got = sampled_expansion(g, u, trials=4, seed=seed + 7)
                assert got == _reference_sampled_expansion(g, u, 4, seed + 7)


def test_sampled_matches_reference_on_multigraphs(multigraphs):
    graphs = [MULTI, MULTI_W1, K4, *multigraphs]
    for i, g in enumerate(graphs):
        for u in ORACLE_US:
            got = sampled_expansion(g, u, trials=5, seed=i)
            assert got == _reference_sampled_expansion(g, u, 5, i)


def test_as_fraction_forms():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert as_fraction(1) == 1
    with pytest.raises(ValueError):
        as_fraction(float("inf"))
    with pytest.raises(ValueError):
        as_fraction(object())
