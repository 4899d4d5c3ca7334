"""Modularity scores, exact/greedy maximization, and the bound chain."""

import hashlib
import inspect
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamod import (
    Model,
    MultiGraph,
    baseline_expansion_bound,
    bound_from_expansion_profile,
    exact_expansion,
    exact_modularity,
    expansion_modularity_bound,
    expansion_profile,
    generate,
    greedy_modularity,
    modularity_score,
    negative_relative_modularity,
    profile_modularity_bound,
    worst_part_bound,
)
from pamod import certify, cut_events, cuts, experiment, models, modularity
from pamod.cuts import EXACT_SUBSET_LIMIT, _members, _subset_sums
from pamod.models import _check_seed
from pamod.modularity import (
    CAP_BASELINE,
    CAP_STRONG,
    EXACT_PARTITION_LIMIT,
    _inner_table,
    check_partition,
)

ONE_EDGE = MultiGraph.from_pairs(2, [(1, 2)])
K3 = MultiGraph.from_pairs(3, [(1, 2), (1, 3), (2, 3)])

graph_params = st.tuples(
    st.sampled_from(list(Model)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32),
)


def _all_partitions(items):
    """Every set partition of ``items``, by restricted growth strings."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _all_partitions(rest):
        yield (frozenset({first}),) + sub
        for i, part in enumerate(sub):
            yield sub[:i] + (part | {first},) + sub[i + 1 :]


def _brute_force_modularity(graph):
    best = None
    for parts in _all_partitions(range(1, graph.n + 1)):
        q = modularity_score(graph, parts).q
        if best is None or q > best:
            best = q
    return best


# ---------------------------------------------------------------- scores


def test_score_fixtures():
    whole = modularity_score(ONE_EDGE, [{1, 2}])
    assert whole.q == 0
    assert whole.edge_fraction == 1
    assert whole.degree_tax == 1
    singles = modularity_score(ONE_EDGE, [{1}, {2}])
    assert singles.q == Fraction(-1, 2)
    assert modularity_score(K3, [{1}, {2}, {3}]).q == Fraction(-1, 3)


def test_score_with_loops():
    # loop at 1: deg(1)=3, loop is an inner edge of any part containing 1
    g = MultiGraph.from_pairs(2, [(1, 1), (1, 2)])
    s = modularity_score(g, [{1}, {2}])
    assert s.q == Fraction(1, 2) - Fraction(9, 16) - Fraction(1, 16)


def test_check_partition_rejects_bad_covers():
    with pytest.raises(ValueError):
        check_partition(K3, [{1, 2}])  # misses 3
    with pytest.raises(ValueError):
        check_partition(K3, [{1, 2}, {2, 3}])  # overlap
    with pytest.raises(ValueError):
        check_partition(K3, [{1, 2, 3}, set()])  # empty part
    with pytest.raises(ValueError):
        check_partition(K3, [{1, 2, 3, 4}])  # out of range


# ------------------------------------------------------------ exact opt


def test_exact_fixtures():
    q, parts = exact_modularity(ONE_EDGE)
    assert q == 0
    assert parts == (frozenset({1, 2}),)
    q3, _ = exact_modularity(K3)
    assert q3 == 0


@given(graph_params)
def test_exact_matches_partition_enumeration(params):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    q, parts = exact_modularity(g)
    assert q == _brute_force_modularity(g)
    # returned partition attains the optimum and is valid
    assert modularity_score(g, parts).q == q
    check_partition(g, parts)


def test_exact_refuses_large_graphs():
    # the default is the cap of 16, and a limit can only lower it
    _, g = generate(Model.STANDARD, 1, 17, 0)
    with pytest.raises(ValueError, match="exact partition limit 16"):
        exact_modularity(g)
    _, g = generate(Model.STANDARD, 1, 13, 0)
    q, parts = exact_modularity(g)
    assert modularity_score(g, parts).q == q
    with pytest.raises(ValueError, match="exact partition limit 12"):
        exact_modularity(g, limit=12)


def test_exact_canonical_tiebreak_is_stable():
    _, g = generate(Model.STANDARD, 2, 8, 3)
    assert exact_modularity(g) == exact_modularity(g)


def _canonical_optimum(graph):
    """Lexicographically least optimal partition, parts as sorted tuples
    in order of their smallest member, by enumeration."""
    q_star = _brute_force_modularity(graph)
    return min(
        tuple(sorted(tuple(sorted(p)) for p in parts))
        for parts in _all_partitions(range(1, graph.n + 1))
        if modularity_score(graph, parts).q == q_star
    )


SYMMETRIC = [
    MultiGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
    MultiGraph.from_pairs(6, [(1, 2), (3, 4), (5, 6)]),
    MultiGraph.from_pairs(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]),
    MultiGraph.from_pairs(5, [(1, 1), (2, 3), (3, 4), (4, 5), (5, 2)]),
]


def test_exact_partition_is_the_canonical_optimum(multigraphs):
    for g in SYMMETRIC + [g for g in multigraphs if 1 < g.n <= 7 and g.m]:
        _q, parts = exact_modularity(g)
        assert tuple(tuple(sorted(p)) for p in parts) == _canonical_optimum(g)


# The pure-Python submask DP and reconstruction that the level-wise numpy
# kernel replaced, kept verbatim as the reference.
def _reference_exact_modularity(graph, limit=EXACT_PARTITION_LIMIT):
    n = graph.n
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the exact partition limit {limit}; "
            "use greedy_modularity"
        )
    m = graph.m
    if m == 0:
        return Fraction(0), (frozenset(range(1, n + 1)),)
    vol_g = graph.volume
    vg2 = vol_g * vol_g
    size = 1 << n
    inner = _inner_table(graph).tolist()
    vol = _subset_sums(n, graph.degrees[1:], None, np.int64).tolist()
    f = [a * vg2 - b * b * m for a, b in zip(inner, vol)]
    opt = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        best = f[low] + opt[rest]
        sub = rest
        while sub:
            t = sub | low
            cand = f[t] + opt[rest ^ sub]
            if cand > best:
                best = cand
            sub = (sub - 1) & rest
        opt[mask] = best
    q_star = Fraction(opt[size - 1], m * vg2)

    parts: list[frozenset[int]] = []
    mask = size - 1
    while mask:
        low = mask & -mask
        rest = mask ^ low
        target = opt[mask]
        best_t = None
        best_key: tuple[int, ...] | None = None
        sub = rest
        while True:
            t = sub | low
            if f[t] + opt[rest ^ sub] == target:
                key = _members(t)
                if best_key is None or key < best_key:
                    best_key = key
                    best_t = t
            if sub == 0:
                break
            sub = (sub - 1) & rest
        assert best_t is not None
        parts.append(frozenset(best_key))
        mask ^= best_t
    return q_star, tuple(parts)


@given(
    st.sampled_from(list(Model)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_exact_matches_the_reference_dp(model, h, n, seed):
    _, g = generate(model, h, n, seed)
    assert exact_modularity(g) == _reference_exact_modularity(g)


def test_exact_matches_the_reference_dp_on_ties(multigraphs):
    edge_free = [MultiGraph(n, ()) for n in (1, 2, 5)]
    one_vertex = [MultiGraph.from_pairs(1, [(1, 1)] * k) for k in (1, 3)]
    one_vertex.append(MultiGraph.from_pairs(1, [(1, 1)], model=Model.TILDE))
    for g in SYMMETRIC + edge_free + one_vertex + list(multigraphs):
        assert exact_modularity(g) == _reference_exact_modularity(g)


def test_exact_n14_matches_the_reference_in_under_a_second():
    _, g = generate(Model.TILDE, 2, 14, 8)
    start = time.perf_counter()
    result = exact_modularity(g, limit=14)
    assert time.perf_counter() - start < 1.0
    assert result == _reference_exact_modularity(g, limit=14)


def test_exact_runs_at_the_cap_of_16():
    _, g = generate(Model.STANDARD, 3, 16, 2)
    q, parts = exact_modularity(g, limit=16)
    assert modularity_score(g, parts).q == q
    assert q >= greedy_modularity(g, seed=0)[0]


@pytest.mark.parametrize("limit", [16, 20, 10**6])
def test_no_limit_lifts_the_partition_cap(monkeypatch, limit):
    _, g = generate(Model.STANDARD, 1, 17, 0)

    def no_table(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(cuts, "_subset_sums", no_table)
    monkeypatch.setattr(modularity, "_subset_sums", no_table)
    with pytest.raises(ValueError, match="exact partition limit 16"):
        exact_modularity(g, limit=limit)


def test_every_limit_defaults_to_its_family_cap():
    # a `limit` may only lower its family's cap, so no default sits below
    # it, and the exact laws have no limit beside the enumerator's cap
    caps = {
        cuts.exact_expansion: EXACT_SUBSET_LIMIT,
        cuts.expansion_profile: EXACT_SUBSET_LIMIT,
        modularity.profile_modularity_bound: EXACT_SUBSET_LIMIT,
        modularity.exact_modularity: EXACT_PARTITION_LIMIT,
    }
    with_limit = [
        fn
        for module in (models, cuts, modularity, cut_events, certify, experiment)
        for _name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__
        and "limit" in inspect.signature(fn).parameters
    ]
    assert set(with_limit) == set(caps)
    for fn, cap in caps.items():
        assert inspect.signature(fn).parameters["limit"].default == cap
    for fn in (
        models.exact_small_t_distribution,
        cut_events.exact_cut_event,
        cut_events.scan_cut_events,
    ):
        assert "limit" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("n", range(1, 13))
def test_exact_dp_skips_the_level_of_vertex_one(monkeypatch, n):
    # only the full mask is read at level 0, so the kernel runs levels
    # n-1..1: widest 2^(n-2) masks, (3^(n-1) - 1)/2 pairs in all
    sizes = []
    kernel = modularity._max_plus_level

    def counted(f_part, g):
        sizes.append(len(f_part))
        return kernel(f_part, g)

    monkeypatch.setattr(modularity, "_max_plus_level", counted)
    _, g = generate(Model.STANDARD, 2, n, n)
    assert exact_modularity(g) == _reference_exact_modularity(g)
    assert max(sizes, default=None) == (None if n == 1 else 2 ** (n - 2))
    assert sum(3 ** (size.bit_length() - 1) for size in sizes) == (3 ** (n - 1) - 1) // 2


def _parallel_edges(k):
    return MultiGraph.from_pairs(2, np.tile([1, 2], (k, 1)))


def test_exact_refuses_partition_sums_beyond_int64():
    # e(G) * vol(G)^2 = 4k^3, which first reaches 2^63 at k = 1321123
    assert 4 * 1321122**3 < 2**63 <= 4 * 1321123**3
    with pytest.raises(ValueError, match=">= 2\\^63"):
        exact_modularity(_parallel_edges(1321123))
    # just below, f({1,2}) = 4k^3 - 4k^3 fills int64 and must not wrap
    assert exact_modularity(_parallel_edges(1321122)) == (0, (frozenset({1, 2}),))


# ---------------------------------------------------------------- greedy


@given(graph_params, st.integers(min_value=0, max_value=2**32))
def test_greedy_below_exact_and_valid(params, gseed):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    q_star, _ = exact_modularity(g)
    q, parts = greedy_modularity(g, seed=gseed)
    assert q <= q_star
    assert q >= 0  # -q is the sum of the final parts' merge gains, none positive
    check_partition(g, parts)
    assert modularity_score(g, parts).q == q


def test_greedy_deterministic():
    _, g = generate(Model.TILDE, 2, 30, 4)
    assert greedy_modularity(g, seed=5) == greedy_modularity(g, seed=5)


def test_greedy_solves_two_triangles():
    # two triangles joined by one edge: the two triangles are optimal
    pairs = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)]
    g = MultiGraph.from_pairs(6, pairs)
    q_star, parts_star = exact_modularity(g)
    q, parts = greedy_modularity(g, seed=0)
    assert q == q_star
    assert set(parts) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    assert set(parts_star) == set(parts)


def _reference_greedy_modularity(graph, seed):
    """The merger that rebuilds its pair dict after every merge, kept as an oracle."""
    seed = _check_seed(seed)
    n = graph.n
    m = graph.m
    if m == 0:
        return Fraction(0), (frozenset(range(1, n + 1)),)
    rng = np.random.default_rng(seed)
    vol_g = graph.volume
    vg2 = vol_g * vol_g
    deg = graph.degrees
    members = {v: {v} for v in range(1, n + 1)}
    vols = {v: deg[v] for v in range(1, n + 1)}
    between = {}
    for u, v, _t in graph.edges:
        if u != v:
            key = (min(u, v), max(u, v))
            between[key] = between.get(key, 0) + 1
    while len(members) > 1:
        best_gain = 0
        tied = []
        for (a, b), cnt in between.items():
            # merging A and B changes q by e(A,B)/m - 2 vol(A) vol(B)/vol(G)^2
            gain = cnt * vg2 - 2 * vols[a] * vols[b] * m
            if gain > best_gain:
                best_gain = gain
                tied = [(a, b)]
            elif gain == best_gain and gain > 0:
                tied.append((a, b))
        if not tied:
            break
        tied.sort()
        a, b = tied[int(rng.integers(0, len(tied)))] if len(tied) > 1 else tied[0]
        members[a] |= members.pop(b)
        vols[a] += vols.pop(b)
        merged = {}
        for (x, y), cnt in between.items():
            if x == b:
                x = a
            if y == b:
                y = a
            if x == y:
                continue
            key = (min(x, y), max(x, y))
            merged[key] = merged.get(key, 0) + cnt
        between = merged
    parts = tuple(
        frozenset(members[k]) for k in sorted(members, key=lambda k: min(members[k]))
    )
    q = modularity_score(graph, parts).q
    if q < 0:
        trivial = (frozenset(range(1, n + 1)),)
        return Fraction(0), trivial
    return q, parts


@pytest.mark.parametrize("model", list(Model))
def test_greedy_matches_reference_on_generated_graphs(model):
    for h in (1, 2, 3):
        for n in (1, 2, 3, 5, 8, 13, 20, 32, 64):
            for seed in range(4):
                _, g = generate(model, h, n, 1000 * h + 10 * n + seed)
                for gseed in (0, 1, 2):
                    got = greedy_modularity(g, seed=gseed)
                    assert got == _reference_greedy_modularity(g, gseed)


def test_greedy_matches_reference_on_multigraphs(multigraphs):
    cycle = MultiGraph.from_pairs(8, [(i, i % 8 + 1) for i in range(1, 9)])
    for g in [ONE_EDGE, K3, cycle, *multigraphs]:
        for gseed in range(5):
            assert greedy_modularity(g, seed=gseed) == _reference_greedy_modularity(
                g, gseed
            )


def _tie_heavy_graphs():
    """Graphs whose merges tie between many pairs, or tie in a new pair."""
    cycle = MultiGraph.from_pairs(64, [(i, i % 64 + 1) for i in range(1, 65)])
    # K_{4,4} with every edge doubled: all 16 first merges tie
    bipartite = MultiGraph.from_pairs(
        8, [(u, v) for u in range(1, 5) for v in range(5, 9)] * 2
    )
    # a star with doubled spokes: each merge draws among all spokes left
    star = MultiGraph.from_pairs(13, [(1, v) for v in range(2, 14)] * 2)
    # merging 2 and 7 gives (2, 5) the gain 96 that (1, 5) and (3, 5) hold
    # while they wait for the next draw, so the new pair must join their tie
    hub = MultiGraph.from_pairs(7, [(4, 6), (5, 7), (2, 5), (2, 7), (3, 5), (1, 5)])
    return cycle, bipartite, star, hub


@pytest.mark.parametrize(
    "g", _tie_heavy_graphs(), ids=["C64", "K44x2", "star2", "hub"]
)
def test_greedy_matches_reference_on_tie_heavy_graphs(g):
    for gseed in range(4):
        assert greedy_modularity(g, seed=gseed) == _reference_greedy_modularity(
            g, gseed
        )


@pytest.mark.parametrize("model", list(Model))
def test_greedy_matches_reference_at_n200(model):
    for h, seed in ((1, 0), (2, 1), (3, 2)):
        _, g = generate(model, h, 200, 7000 + seed)
        for gseed in (0, 1):
            assert greedy_modularity(g, seed=gseed) == _reference_greedy_modularity(
                g, gseed
            )


@st.composite
def _tie_heavy_multigraphs(draw):
    """n <= 10 and a few vertex pairs, loops allowed, each 1-3 times (or
    all the same number of times), so many merges tie; with the tilde
    model's weight-1 loop or without."""
    n = draw(st.integers(min_value=2, max_value=10))
    vertex = st.integers(min_value=1, max_value=n)
    mult = st.integers(min_value=1, max_value=3)
    weight1 = draw(st.booleans())
    pairs = [(v, v)] if weight1 and (v := draw(vertex)) else []
    same = draw(st.booleans()) and draw(mult)
    for pair in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        pairs += [pair] * (same or draw(mult))
    return MultiGraph.from_pairs(n, pairs, model=Model.TILDE if weight1 else None)


@settings(max_examples=200)
@given(_tie_heavy_multigraphs())
def test_greedy_matches_reference_on_random_tie_heavy_multigraphs(g):
    # stale keys, common neighbours and tied pairs that a merge touches
    for gseed in range(4):
        assert greedy_modularity(g, seed=gseed) == _reference_greedy_modularity(
            g, gseed
        )


@st.composite
def _generated_graphs(draw):
    model = draw(st.sampled_from(list(Model)))
    h = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    return generate(model, h, n, draw(st.integers(min_value=0, max_value=2**32)))[1]


@settings(max_examples=200)
@given(
    st.one_of(_tie_heavy_multigraphs(), _generated_graphs()),
    st.integers(min_value=0, max_value=2**32),
)
def test_greedy_stops_where_no_merge_of_two_parts_gains(g, gseed):
    q, parts = greedy_modularity(g, seed=gseed)
    assert q >= 0
    assert q == modularity_score(g, parts).q
    for a, b in itertools.combinations(parts, 2):
        merged = [p for p in parts if p is not a and p is not b] + [a | b]
        assert modularity_score(g, merged).q <= q


def test_greedy_peak_memory_per_edge_is_pinned():
    # The heap plus the tie group hold at most twice the linked pairs, so
    # the peak is linear in m: about 300 bytes per edge here, where the
    # stamped heap that pushed every link of each merged part took 570.
    _, g = generate(Model.STANDARD, 2, 2000, 0)
    g.adjacency, g.degrees  # cached first: they are the graph's, not greedy's
    tracemalloc.start()
    try:
        greedy_modularity(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.m < 400


# (model, graph seed, tie seed, q, sha256 of the JSON list of sorted parts),
# all at h = 2, n = 500: the size the heuristic sweep runs greedy at
GREEDY_N500_PINS = [
    ("standard", 0, 0, "506659/1000000", "2103bcd735e549d3481d04d735d4fffa11e7d1224949bcaa53a99f881617988f"),
    ("standard", 0, 1, "508947/1000000", "f1ad5100796c75cd3fc739a97ad944e70b43c5e9c48ee022d09a400db342560b"),
    ("standard", 1, 0, "1032797/2000000", "6b7e26491c20268d5478c080e9c97caa5ba369ed891a19ce3948f3a1dfea4943"),
    ("standard", 1, 1, "1032103/2000000", "d40ef6904b63b11429de90fd901dc3ecde5e72d1f878d4f70081e87a236e0b60"),
    ("standard", 2, 0, "515451/1000000", "a6604d2fb1b77251b2c55edf9b7e27f5090c02fab30ce63c01306d1705247f6b"),
    ("standard", 2, 1, "1036159/2000000", "1a14e4f308fede36885a0737f05be9cfd28154d7972a417d1a9800e983ec225b"),
    ("tilde", 0, 0, "1039198803/1998000500", "caf626eafd959f6fc0e2d729ab4148bcd55ed0531e30e0ea833d8502f1d09206"),
    ("tilde", 0, 1, "2087171619/3996001000", "ec252ece48476cf1d0dbe6c0ca9316126997d6765f3f48d4a126a99dd125175a"),
    ("tilde", 1, 0, "2081943613/3996001000", "02c1bcdd27f095841b5f12c1686b492f8152cc961a78729c6b63a1262fab8043"),
    ("tilde", 1, 1, "2081473597/3996001000", "ce2a92fb4b99019377f5e589e2384733829d19d4fd1ea3e4e1da622bf54efdb1"),
    ("tilde", 2, 0, "412204321/799200200", "285d39f9b072d86c6843d84a5af31c328e35df0c0c221178f93025be5c28c005"),
    ("tilde", 2, 1, "417955523/799200200", "2e9aa01ac1d8004f197a2535cf46a2aa4fc17a96d262d007839f4e953765e2f8"),
]  # fmt: skip


@pytest.mark.parametrize("model, seed, gseed, q, digest", GREEDY_N500_PINS)
def test_greedy_n500_is_pinned(model, seed, gseed, q, digest):
    _, g = generate(Model(model), 2, 500, seed)
    got_q, parts = greedy_modularity(g, seed=gseed)
    assert f"{got_q.numerator}/{got_q.denominator}" == q
    listed = json.dumps([sorted(p) for p in parts]).encode()
    assert hashlib.sha256(listed).hexdigest() == digest


# ----------------------------------------------- per-part relative terms


def test_negative_relative_modularity_fixtures():
    assert negative_relative_modularity(ONE_EDGE, {1}) == Fraction(3, 2)
    assert negative_relative_modularity(K3, {1}) == Fraction(4, 3)
    # the whole vertex set has no boundary: 0/2m + vol^2/vol^2 scaled
    assert negative_relative_modularity(K3, {1, 2, 3}) == 1


def test_negative_relative_modularity_errors():
    with pytest.raises(ValueError):
        negative_relative_modularity(K3, set())
    g = MultiGraph.from_pairs(3, [(1, 2)])
    with pytest.raises(ValueError):
        negative_relative_modularity(g, {3})  # zero volume part


@given(graph_params, st.integers(min_value=1, max_value=2**16))
def test_worst_part_bound_dominates_score(params, mask):
    model, h, n, seed = params
    _, g = generate(model, h, n, seed)
    # random partition from a bitmask: part sizes 1 or 2 via pairing
    verts = list(range(1, n + 1))
    parts = []
    i = 0
    while i < len(verts):
        if (mask >> i) & 1 and i + 1 < len(verts):
            parts.append({verts[i], verts[i + 1]})
            i += 2
        else:
            parts.append({verts[i]})
            i += 1
    score = modularity_score(g, parts)
    assert score.q <= worst_part_bound(g, parts)


# ---------------------------------------------------------- bound chain


def test_expansion_bounds_on_generated_graphs():
    for model in Model:
        for seed in (0, 1, 2):
            _, g = generate(model, 2, 8, seed)
            q_star, _ = exact_modularity(g)
            alpha = exact_expansion(g, Fraction(1, 2)).alpha
            strong = expansion_modularity_bound(g, alpha)
            weak = baseline_expansion_bound(g, alpha)
            assert q_star <= strong
            assert strong <= weak
            prof_bound = profile_modularity_bound(g)
            assert q_star <= prof_bound


def test_expansion_bound_formula():
    _, g = generate(Model.STANDARD, 2, 6, 0)
    # small alpha: the alpha/2h branch is active
    assert expansion_modularity_bound(g, Fraction(1, 10)) == 1 - Fraction(1, 40)
    # huge alpha: capped at 3/16 (baseline 1/16)
    assert expansion_modularity_bound(g, 100) == 1 - CAP_STRONG
    assert baseline_expansion_bound(g, 100) == 1 - CAP_BASELINE
    assert expansion_modularity_bound(g, math.inf) == 1 - CAP_STRONG


def test_expansion_bound_needs_pa_shape():
    with pytest.raises(ValueError):
        expansion_modularity_bound(K3, 1)  # no h recorded


def test_bound_from_profile_delta_one():
    # alpha_k >= h for every k gives delta = 1 and the k = 1 term wins
    n = 10
    profile = {k: Fraction(100) for k in range(1, n // 2 + 1)}
    want = 1 - Fraction(1, 3) - Fraction(1, 2 * n)
    assert bound_from_expansion_profile(profile, h=2, n=n) == want
    # infinite alpha entries clamp to delta = 1 as well
    profile[1] = math.inf
    assert bound_from_expansion_profile(profile, h=2, n=n) == want


def test_bound_from_profile_picks_minimum_term():
    n = 8
    # k = 2 has tiny expansion: delta = 1/(2*4) -> that term is smallest
    profile = {1: Fraction(100), 2: Fraction(1, 4), 3: Fraction(100), 4: Fraction(100)}
    h = 2
    delta = Fraction(1, 4) / h
    term2 = delta / (2 + delta) + Fraction(2, 2 * n)
    bound = bound_from_expansion_profile(profile, h=h, n=n)
    assert bound == 1 - term2


def test_profile_bound_verifies_cap_on_handcrafted_graphs():
    # no model recorded: the e(S) <= h|S| cap is checked exhaustively
    g = MultiGraph(
        n=4, edges=((1, 2, 1), (1, 3, 2), (1, 4, 3), (2, 3, 4)), h=1
    )
    bound = profile_modularity_bound(g)
    q_star, _ = exact_modularity(g)
    assert q_star <= bound


def test_profile_bound_rejects_cap_violations():
    # three loops at vertex 1: e({1}) = 3 > h|S| = 2, caught exhaustively
    edges = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 3, 4), (2, 4, 5), (3, 4, 6))
    g = MultiGraph(n=4, edges=edges, h=2)
    with pytest.raises(ValueError, match="inner edges"):
        profile_modularity_bound(g)


def test_profile_bound_checks_the_cap_whatever_the_label():
    # the same graph labelled as generated: the label must not skip the check
    edges = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 3, 4), (2, 4, 5), (3, 4, 6))
    g = MultiGraph(n=4, edges=edges, h=2, model=Model.STANDARD)
    with pytest.raises(ValueError, match="inner edges"):
        profile_modularity_bound(g)


def test_profile_bound_at_n_1_is_refused_by_the_size_rule_after_the_limit():
    # one owner of the n >= 2 rule, in bound_from_expansion_profile, which
    # runs after the profile: a limit below n is reported first
    _, g = generate(Model.STANDARD, 2, 1, 3)
    with pytest.raises(ValueError, match="^profile bound needs n >= 2$"):
        profile_modularity_bound(g)
    with pytest.raises(ValueError, match="^n=1 exceeds the exhaustive limit 0; "):
        profile_modularity_bound(g, limit=0)


def test_the_cached_pair_table_is_read_only():
    # every exact_modularity call shares it, so a write would corrupt later DPs
    for table in modularity._pair_table():
        with pytest.raises(ValueError, match="read-only"):
            table[:1] = 0


def test_profile_bound_on_generated_graphs_above_the_exhaustive_cap_check():
    # each vertex is the larger endpoint of exactly h edges, so the O(m)
    # test vouches for the cap where the 2^n check (n <= 16) would refuse
    for model in Model:
        _, g = generate(model, 2, 20, 3)
        want = bound_from_expansion_profile(expansion_profile(g), 2, 20)
        assert profile_modularity_bound(g) == want
