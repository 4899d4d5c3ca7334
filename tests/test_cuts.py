"""Edge boundary counts and exact/sampled u-bounded expansion."""

import itertools
import math
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
from pamod.cuts import SearchMethod, _boundary_table, _subset_sums, as_fraction
from pamod.modularity import _inner_table

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


def test_expansion_refuses_large_graphs():
    _, g = generate(Model.STANDARD, 1, 30, 0)
    with pytest.raises(ValueError, match="sampled_expansion"):
        exact_expansion(g, Fraction(1, 2))
    with pytest.raises(ValueError):
        expansion_profile(g)


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


def test_as_fraction_forms():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    assert as_fraction(1) == 1
    with pytest.raises(ValueError):
        as_fraction(float("inf"))
    with pytest.raises(ValueError):
        as_fraction(object())
