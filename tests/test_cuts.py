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
    5, [(1, 1), (1, 1), (1, 3), (3, 4), (4, 3), (2, 5), (5, 5)], model=Model.TILDE
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
    # the boundary table holds the masks without vertex n; a mask with it
    # reads its complement's entry, bnd[full ^ mask]
    n = graph.n
    full = (1 << n) - 1
    bnd = _boundary_table(graph)
    assert bnd.dtype == np.int32 and bnd.shape == (1 << (n - 1),)
    tables = {
        "e_inner": _inner_table(graph),
        "vol": _subset_sums(n, graph.degrees[1:], None, np.int64),
        "size": _subset_sums(n, [1] * n, None, np.uint8),
    }
    for mask in range(1 << n):
        rep = edge_boundary(graph, {v for v in range(1, n + 1) if (mask >> (v - 1)) & 1})
        want = {
            "e_boundary": rep.e_boundary,
            "e_inner": rep.e_inner,
            "vol": rep.vol,
            "size": len(rep.subset),
        }
        got = {name: int(t[mask]) for name, t in tables.items()}
        got["e_boundary"] = int(bnd[mask if mask >> (n - 1) == 0 else full ^ mask])
        assert got == want


# ------------------------------------- the full-table oracle, np.minimum.at


def _full_boundary_table(graph):
    """e(S, S-complement) over all 2^n masks, the table the half table halves."""
    own = cuts._outside_gains(graph)[1:]
    return _subset_sums(graph.n, own, cuts._pair_weights(graph, -2), np.int32)


def _oracle_size_profile(graph):
    """Boundary and size tables, best[k] = least boundary of size k (one
    np.minimum.at, no 2^n temporary), and profile k -> min_{j<=k} best[j]/j."""
    bnd = _full_boundary_table(graph)
    pop = _subset_sums(graph.n, [1] * graph.n, None, np.uint8)
    best = np.full(graph.n + 1, np.iinfo(np.int32).max, dtype=np.int32)
    np.minimum.at(best, pop, bnd)
    ks = range(1, graph.n // 2 + 1)
    running = itertools.accumulate((Fraction(int(best[k]), k) for k in ks), min)
    return bnd, pop, best, dict(zip(ks, running))


def _oracle_expansion(graph, u):
    """(alpha, witness) as the full tables give them."""
    k_max = math.floor(u * graph.n)
    if k_max < 1:
        return math.inf, None
    bnd, pop, best, profile = _oracle_size_profile(graph)
    alpha = profile[k_max]
    masks = []
    for k in range(1, k_max + 1):
        if Fraction(int(best[k]), k) == alpha:
            hits = np.flatnonzero(bnd == best[k])
            masks += hits[pop[hits] == k].tolist()
    return alpha, frozenset(min(map(cuts._members, masks)))


ORACLE_US = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]
# vertices 1 and 5 (= n) have no edges at all
ISOLATED_ENDS = MultiGraph.from_pairs(5, [(2, 3), (3, 4), (2, 4), (3, 3)])
# {1, 4} and {2, 3} each have boundary 1; the half table holds {2, 3},
# and the least witness {1, 4} is its complement
COMPLEMENT_TIE = MultiGraph.from_pairs(4, [(1, 4), (1, 4), (2, 3), (2, 3), (1, 2)])


def _assert_matches_oracle(graph):
    assert expansion_profile(graph) == _oracle_size_profile(graph)[3]
    for u in ORACLE_US:
        res = exact_expansion(graph, u)
        assert (res.alpha, res.witness) == _oracle_expansion(graph, u), u


@pytest.mark.parametrize("n", range(1, 19))
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("model", list(Model))
def test_half_table_matches_the_full_table_oracle(model, h, n):
    for seed in range(3):
        _assert_matches_oracle(generate(model, h, n, 1000 * h + 10 * n + seed)[1])


@pytest.mark.parametrize(
    "graph", [MULTI, MULTI_W1, ISOLATED_ENDS, COMPLEMENT_TIE],
    ids=["multi", "multi_w1", "isolated_ends", "complement_tie"],
)
def test_half_table_matches_the_oracle_on_hand_built_graphs(graph):
    _assert_matches_oracle(graph)


def test_a_complement_of_half_size_wins_the_witness_tie():
    res = exact_expansion(COMPLEMENT_TIE, Fraction(1, 2))
    assert res.alpha == Fraction(1, 2)
    assert res.witness == frozenset({1, 4})
    assert edge_boundary(COMPLEMENT_TIE, {2, 3}).e_boundary == 1


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
    # a loose cap: the tables take about 2.5 bytes per mask (see the
    # half-table test below)
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


@pytest.mark.parametrize("model", list(Model))
def test_half_boundary_table_peaks_under_three_bytes_per_mask(model):
    # an int32 boundary over the 2^(n-1) masks without vertex n is 2 bytes
    # per mask of 2^n; the per-size minima and the witness search's boolean
    # table add about half a byte
    n = 22
    _, g = generate(model, 2, n, 1)
    calls = {
        "exact_expansion": lambda: exact_expansion(g, Fraction(1, 2)),
        "expansion_profile": lambda: expansion_profile(g),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 2**n, (name, peak / 2**n)


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


# The full scan over every add, remove and swap that sampled_expansion ran
# before each move was read off a gain-ordered list; kept verbatim as the
# oracle for the move order (first strict minimum in scan order).
def _full_scan_flip(adj, in_s: list[bool], gain: list[int], w: int) -> None:
    """Move w to the other side and update the flip gains it changes."""
    in_s[w] = not in_s[w]
    gain[w] = -gain[w]
    for nb, m in adj[w]:
        gain[nb] += 2 * m if in_s[nb] == in_s[w] else -2 * m


def _full_scan_sampled_expansion(
    graph: MultiGraph, u, trials: int, seed: int
) -> ExpansionResult:
    """Randomized upper estimate of alpha_u.

    Each trial draws a random admissible subset and runs greedy local
    descent (vertex adds, removes, swaps) until the ratio stops
    improving.  Every candidate is an admissible subset, so the returned
    value is always >= the true alpha_u.

    The descent keeps integer flip gains, gain[w] = the boundary change
    if w switches sides (Fiduccia-Mattheyses style), and compares ratios
    by cross-multiplication.  A move scans n adds/removes and |S|(n-|S|)
    swaps in O(1) each, then updates the gains of the moved vertices'
    neighbours.  The first best candidate in scan order wins.
    """
    uf = _check_u(u)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    seed = _check_seed(seed)
    n = graph.n
    k_max = math.floor(uf * n)
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.SAMPLED
        )
    rng = np.random.default_rng(seed)
    adj = graph.adjacency
    mult = [dict(nbrs) for nbrs in adj]
    best_ratio: Fraction | None = None
    best_subset: tuple[int, ...] | None = None
    for _ in range(trials):
        size = int(rng.integers(1, k_max + 1))
        members = (rng.choice(n, size=size, replace=False) + 1).tolist()
        in_s = [False] * (n + 1)
        for v in members:
            in_s[v] = True
        gain = [
            sum(m if in_s[nb] == in_s[w] else -m for nb, m in adj[w])
            for w in range(n + 1)
        ]
        boundary = sum(m for w in members for nb, m in adj[w] if not in_s[nb])
        while True:
            move: tuple[int, ...] = ()  # the vertices to flip
            mb, ms = boundary, size  # best ratio so far, mb/ms
            for w in range(1, n + 1):
                s = size - 1 if in_s[w] else size + 1
                if 1 <= s <= k_max and (boundary + gain[w]) * ms < mb * s:
                    mb, ms = boundary + gain[w], s
                    move = (w,)
            # swaps keep the size: w leaves, w2 enters
            inside = [w for w in range(1, n + 1) if in_s[w]]
            outside = [w for w in range(1, n + 1) if not in_s[w]]
            for w in inside:
                base = boundary + gain[w]
                mw = mult[w]
                for w2 in outside:
                    b = base + gain[w2] + 2 * mw.get(w2, 0)
                    if b * ms < mb * size:
                        mb, ms = b, size
                        move = (w, w2)
            if not move:
                break
            boundary, size = mb, ms
            for w in move:
                _full_scan_flip(adj, in_s, gain, w)
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


def _assert_matches_oracles(graph, u, trials, seed, oracles):
    got = sampled_expansion(graph, u, trials=trials, seed=seed)
    for oracle in oracles:
        assert got == oracle(graph, u, trials, seed)


BOTH_ORACLES = (_reference_sampled_expansion, _full_scan_sampled_expansion)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_sampled_matches_reference_on_generated_graphs(model, h):
    for n in (1, 2, 3, 5, 8, 13, 20, 32, 47, 64):
        # the Fraction reference takes about 0.1 s a graph at n = 64
        for seed in range(6 if n <= 32 else 2):
            _, g = generate(model, h, n, 1000 * h + 10 * n + seed)
            for u in ORACLE_US:
                _assert_matches_oracles(g, u, 4, seed + 7, BOTH_ORACLES)


def test_sampled_matches_reference_on_multigraphs(multigraphs):
    graphs = [MULTI, MULTI_W1, K4, *multigraphs]
    for i, g in enumerate(graphs):
        for u in ORACLE_US:
            _assert_matches_oracles(g, u, 5, i, BOTH_ORACLES)


@pytest.mark.parametrize("model", list(Model))
def test_sampled_matches_the_full_scan_at_n200(model):
    for h, seed in ((2, 0), (3, 1)):
        _, g = generate(model, h, 200, 7000 + seed)
        for u in (Fraction(1, 2), Fraction(1, 10)):
            _assert_matches_oracles(g, u, 4, seed, (_full_scan_sampled_expansion,))


def _descent_state(graph, subset):
    """(adj, mult, in_s, gain, boundary) as sampled_expansion keeps them."""
    adj = graph.adjacency
    in_s = [v in subset for v in range(graph.n + 1)]
    gain = [
        sum(m if in_s[nb] == in_s[w] else -m for nb, m in adj[w])
        for w in range(graph.n + 1)
    ]
    boundary = _boundary_of(graph, in_s)
    return adj, [dict(nbrs) for nbrs in adj], in_s, gain, boundary


def _full_scan_move(adj, mult, in_s, gain, boundary, size, k_max):
    """One move of the full scan above: (boundary, size, vertices to flip)."""
    n = len(in_s) - 1
    move = ()
    mb, ms = boundary, size
    for w in range(1, n + 1):
        s = size - 1 if in_s[w] else size + 1
        if 1 <= s <= k_max and (boundary + gain[w]) * ms < mb * s:
            mb, ms = boundary + gain[w], s
            move = (w,)
    outside = [w for w in range(1, n + 1) if not in_s[w]]
    for w in (w for w in range(1, n + 1) if in_s[w]):
        for w2 in outside:
            b = boundary + gain[w] + gain[w2] + 2 * mult[w].get(w2, 0)
            if b * ms < mb * size:
                mb, ms = b, size
                move = (w, w2)
    return mb, ms, move


# From S = {w} with k_max = 1 only swaps are admissible, and the swap of w
# for x leaves boundary deg(x): the best partner is the vertex of least
# degree, the lower one on a tie.
NEIGHBOUR_TIE = MultiGraph.from_pairs(5, [(1, 5), (2, 3), (3, 5), (4, 5), (3, 4)])
ALL_NEIGHBOURS = MultiGraph.from_pairs(4, [(1, 4), (2, 4), (3, 4), (1, 2), (2, 3)])
TWO_EDGES = MultiGraph.from_pairs(6, [(1, 2), (5, 6)])


@pytest.mark.parametrize(
    "graph,subset,k_max,want",
    [
        # w = 5's outside neighbour 1 (gain -1, +2 once 5 leaves) ties the
        # best non-neighbour 2 (gain 1), ahead of 4 in the gain order
        (NEIGHBOUR_TIE, {5}, 1, (1, 1, (5, 1))),
        # the same tie from w = 3, whose neighbour is 2 and non-neighbour 1
        (NEIGHBOUR_TIE, {3}, 1, (1, 1, (3, 1))),
        # every outside vertex is a neighbour of w = 4: no non-neighbour
        # partner, and the list's head (1, gain 0) is worth 2, not 0
        (ALL_NEIGHBOURS, {4}, 1, (2, 1, (4, 1))),
        # adding 1 and removing 2 both reach ratio 0 (so does swapping 3
        # for 1, later in scan order): the lower vertex, the add, wins
        (TWO_EDGES, {2, 3}, 3, (0, 3, (1,))),
        # adding 2 and removing 1 tie at 0: the remove of 1 wins
        (TWO_EDGES, {1, 3}, 3, (0, 1, (1,))),
        # the same ties on the far edge: remove 5 before adding 6
        (TWO_EDGES, {3, 5}, 3, (0, 1, (5,))),
        (TWO_EDGES, {3, 6}, 3, (0, 3, (5,))),
    ],
    ids=["nbr-first", "nonnbr-first", "all-nbrs", "add-first", "remove-first",
         "remove-5", "add-5"],
)
def test_best_move_breaks_ties_as_the_full_scan(graph, subset, k_max, want):
    adj, mult, in_s, gain, boundary = _descent_state(graph, subset)
    args = (adj, mult, in_s, gain, boundary, len(subset), k_max)
    assert _full_scan_move(*args) == want
    assert cuts._best_move(*args[1:]) == want


def _small_graphs():
    graphs = [NEIGHBOUR_TIE, ALL_NEIGHBOURS, TWO_EDGES, K4, MULTI, MULTI_W1]
    return graphs + [generate(model, h, 8, h)[1] for model in Model for h in (1, 2, 3)]


def test_best_move_matches_the_full_scan_on_every_state():
    # every admissible subset of small graphs, every k_max it admits
    for g in _small_graphs():
        for size in range(1, g.n // 2 + 1):
            for subset in itertools.combinations(range(1, g.n + 1), size):
                adj, mult, in_s, gain, boundary = _descent_state(g, set(subset))
                for k_max in range(size, g.n // 2 + 1):
                    args = (adj, mult, in_s, gain, boundary, size, k_max)
                    assert cuts._best_move(*args[1:]) == _full_scan_move(*args)


def test_flips_from_the_empty_set_build_the_from_scratch_state():
    # every subset, its members entering in either order
    for g in _small_graphs():
        outside_gains = cuts._outside_gains(g)
        for size in range(g.n + 1):
            for subset in itertools.combinations(range(1, g.n + 1), size):
                _adj, mult, in_s, gain, boundary = _descent_state(g, set(subset))
                for members in (subset, subset[::-1]):
                    got = cuts._enter(mult, outside_gains, members)
                    assert got == (in_s, gain, boundary)


# standard h=2, n=500, graph seed 2026, u=1/2, 8 trials from seed 18, as the
# full scan found them in 4.6 s (the gain-ordered moves take under 0.1 s)
PINNED_N500_WITNESS = (
    6, 11, 15, 16, 17, 18, 21, 23, 24, 26, 35, 36, 37, 38, 39, 42, 43, 47, 50, 51, 52,
    55, 57, 58, 59, 67, 70, 74, 76, 77, 83, 85, 91, 92, 93, 94, 98, 99, 100, 101, 102,
    107, 109, 114, 115, 116, 117, 119, 123, 127, 128, 130, 132, 133, 134, 136, 138,
    140, 143, 144, 148, 149, 150, 152, 158, 159, 161, 167, 172, 173, 174, 175, 178,
    180, 183, 185, 186, 200, 201, 204, 206, 208, 210, 211, 212, 214, 218, 219, 220,
    222, 224, 227, 235, 236, 237, 238, 239, 245, 250, 251, 252, 253, 256, 261, 262,
    263, 264, 265, 268, 270, 272, 273, 276, 277, 279, 281, 286, 288, 290, 294, 295,
    297, 298, 301, 302, 303, 306, 307, 308, 309, 311, 313, 315, 318, 319, 322, 324,
    326, 330, 331, 333, 334, 337, 338, 340, 341, 342, 343, 345, 346, 347, 351, 357,
    359, 361, 362, 363, 365, 366, 369, 372, 376, 378, 379, 381, 384, 388, 389, 390,
    392, 394, 395, 396, 406, 407, 408, 409, 415, 417, 419, 420, 425, 426, 427, 428,
    431, 434, 436, 437, 439, 440, 442, 443, 444, 445, 447, 448, 449, 454, 455, 457,
    458, 462, 463, 464, 468, 470, 471, 472, 474, 478, 481, 482, 483, 485, 486, 487,
    492, 493, 495, 496, 497, 498, 499, 500,
)


def test_sampled_expansion_pinned_at_n500():
    _, g = generate(Model.STANDARD, 2, 500, 2026)
    res = sampled_expansion(g, Fraction(1, 2), trials=8, seed=18)
    assert res.alpha == Fraction(22, 25)
    assert res.witness == frozenset(PINNED_N500_WITNESS)
    assert len(PINNED_N500_WITNESS) == 225


def test_as_fraction_forms():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert as_fraction(1) == 1
    with pytest.raises(ValueError):
        as_fraction(float("inf"))
    with pytest.raises(ValueError):
        as_fraction(object())
    # numpy scalars convert exactly, by value, to Python ints
    assert as_fraction(np.float16(0.1)) == Fraction(819, 8192)
    third = np.longdouble(1) / 3
    assert as_fraction(third) == Fraction(*third.as_integer_ratio())
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        assert as_fraction(third) != Fraction(float(third))  # not through a float
    assert as_fraction(np.int64(3)) == 3
    assert type(as_fraction(np.uint8(1)).numerator) is int
    for bad in (np.bool_(True), [1], (1, 4)):
        with pytest.raises(ValueError, match="^cannot interpret .* as a rational$"):
            as_fraction(bad)


# the two calls that read a u; expansion_profile takes none
def _u_calls(u, graph=K4):
    return (
        lambda: exact_expansion(graph, u),
        lambda: sampled_expansion(graph, u, trials=4, seed=0),
    )


@pytest.mark.parametrize(
    "u", [np.float32(0.25), np.float64(0.25), np.longdouble(0.25)], ids=repr
)
def test_numpy_floats_give_the_results_of_their_exact_value(u):
    _, g = generate(Model.STANDARD, 2, 12, 5)
    assert as_fraction(u) == Fraction(1, 4)
    for got, want in zip(_u_calls(u, g), _u_calls(0.25, g)):
        assert got() == want()
    assert exact_expansion(g, u).alpha == expansion_profile(g)[3]


@pytest.mark.parametrize(
    "u, message",
    [
        (np.int64(0), "need 0 < u <= 1/2, got 0"),
        (np.float32("nan"), "u must be finite, got nan"),
        (np.float16("inf"), "u must be finite, got inf"),
    ],
    ids=repr,
)
def test_numpy_scalars_are_refused_as_their_python_values(u, message):
    python_u = u.item()
    for got, want in zip(_u_calls(u), _u_calls(python_u)):
        for call in (got, want):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == message
