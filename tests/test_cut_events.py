"""Cut-event probabilities: exact enumeration, sampling, and the bound."""

from fractions import Fraction
from math import comb

import pytest

from pamod import (
    CutEventSpec,
    Model,
    cut_event_bound,
    estimate_cut_event,
    exact_cut_event,
    scan_cut_events,
    spec_bound,
)
from pamod.cut_events import _enumerate_logs
from pamod.models import sample_target_matrix, vertex_of

ALL_SMALL = [
    (h, n)
    for h in range(1, 9)
    for n in range(2, 9)
    if h * n <= 8
]


# ----------------------------------------------------------------- bound


def test_bound_fixtures():
    assert cut_event_bound(2, 4, 1, 1) == Fraction(2, 7)
    # a = 0: no prescribed crossings, bound 1/C(hn, hk)
    assert cut_event_bound(2, 4, 2, 0) == Fraction(1, comb(8, 4))
    # the bound can exceed 1; it is vacuous there but still well defined
    assert cut_event_bound(1, 2, 2, 1) == 2


def test_bound_validation():
    with pytest.raises(ValueError):
        cut_event_bound(2, 4, 0, 0)
    with pytest.raises(ValueError):
        cut_event_bound(2, 4, 5, 0)  # k > n
    with pytest.raises(ValueError):
        cut_event_bound(2, 4, 1, 2)  # a = hk
    with pytest.raises(ValueError):
        cut_event_bound(2, 4, 1, -1)


def test_spec_bound_uses_sizes():
    spec = CutEventSpec(h=2, n=3, subset=frozenset({2, 3}), arrivals=frozenset({4, 6}))
    assert spec_bound(spec) == cut_event_bound(2, 3, 2, 2)


# ------------------------------------------------------------------ spec


def test_spec_validation():
    with pytest.raises(ValueError):
        CutEventSpec(h=2, n=2, subset=frozenset(), arrivals=frozenset({2}))
    with pytest.raises(ValueError):
        CutEventSpec(h=2, n=2, subset=frozenset({3}), arrivals=frozenset({2}))
    with pytest.raises(ValueError):
        CutEventSpec(h=2, n=2, subset=frozenset({1}), arrivals=frozenset({5}))
    with pytest.raises(ValueError):
        # |A| = h|S| carries no information and is rejected outright
        CutEventSpec(h=2, n=2, subset=frozenset({2}), arrivals=frozenset({3, 4}))
    with pytest.raises(ValueError):
        CutEventSpec(h=1, n=2, subset=frozenset({2}), arrivals=frozenset({2}))


def test_spec_coerces_iterables():
    spec = CutEventSpec(h=2, n=3, subset=[3, 2], arrivals=(6,))
    assert spec.subset == frozenset({2, 3})
    assert spec.arrivals == frozenset({6})


# ----------------------------------------------------------------- exact


def test_exact_standard_fixture():
    # S = {2}, A = {3} at h = 2, n = 2, worked through by hand:
    # e2 stays inside vertex 1 either way; e3 crosses with prob 4/5 in
    # both of its histories; e4 must stay in vertex 2 with prob 2/7
    spec = CutEventSpec(h=2, n=2, subset=frozenset({2}), arrivals=frozenset({3}))
    assert exact_cut_event(Model.STANDARD, spec) == Fraction(8, 35)


def test_exact_tilde_fixture():
    # tilde forces e2 -> mini 1 and e3 always crosses; only e4 is free
    spec = CutEventSpec(h=2, n=2, subset=frozenset({2}), arrivals=frozenset({3}))
    assert exact_cut_event(Model.TILDE, spec) == Fraction(1, 5)


def test_exact_first_edge_in_arrivals_is_impossible():
    # e1 is a loop and can never cross any cut
    spec = CutEventSpec(h=2, n=2, subset=frozenset({2}), arrivals=frozenset({1}))
    assert exact_cut_event(Model.STANDARD, spec) == 0
    assert exact_cut_event(Model.TILDE, spec) == 0


def test_exact_respects_limit():
    spec = CutEventSpec(h=2, n=5, subset=frozenset({5}), arrivals=frozenset({10}))
    with pytest.raises(ValueError):
        exact_cut_event(Model.STANDARD, spec)
    exact_cut_event(Model.STANDARD, spec, limit=10)


def test_exact_probabilities_form_a_distribution():
    # over all arrival sets for a fixed subset the probabilities of the
    # exact crossing patterns must sum to 1; check via the enumerator
    targets, nums, denom = _enumerate_logs(Model.STANDARD, 8)
    assert int(nums.sum()) == denom == 3 * 5 * 7 * 9 * 11 * 13 * 15
    targets, nums, denom = _enumerate_logs(Model.TILDE, 8)
    assert int(nums.sum()) == denom == 1 * 3 * 5 * 7 * 9 * 11 * 13


# ------------------------------------------------------------------ scan


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h,n", ALL_SMALL)
def test_scan_finds_no_violations(model, h, n):
    scan = scan_cut_events(model, h, n)
    assert scan.model is model and scan.h == h and scan.n == n
    assert scan.violations == ()


def test_scan_pairs_checked_counts_qualifying_pairs():
    # n = 2, h = 1: subsets {1}, {2}; h|S| = 1 forces A empty, so only
    # the a = 0 pattern of each subset qualifies
    scan = scan_cut_events(Model.STANDARD, 1, 2)
    assert scan.pairs_checked == 2
    # tilde at the same size has no qualifying pattern at all: e2 is
    # forced onto vertex 1 and always crosses, so the a = 0 pattern has
    # zero mass and every positive-mass pattern fails a < h|S|
    scan = scan_cut_events(Model.TILDE, 1, 2)
    assert scan.pairs_checked == 0
    # everywhere else there is something to check
    assert scan_cut_events(Model.TILDE, 1, 3).pairs_checked > 0
    assert scan_cut_events(Model.TILDE, 2, 2).pairs_checked > 0


def test_scan_respects_limit():
    with pytest.raises(ValueError):
        scan_cut_events(Model.STANDARD, 3, 3)
    with pytest.raises(ValueError):
        scan_cut_events(Model.STANDARD, 2, 5, limit=9)


def test_scan_matches_exact_on_one_cell():
    # cross-check the vectorized scan against the DFS on every (S, A)
    # pair at h = 2, n = 2
    from itertools import combinations

    for subset in [{1}, {2}]:
        for r in range(0, 2):
            for arr in combinations(range(1, 5), r):
                if len(arr) >= 2:
                    continue
                spec = CutEventSpec(
                    h=2, n=2, subset=frozenset(subset), arrivals=frozenset(arr)
                )
                p = exact_cut_event(Model.STANDARD, spec)
                assert p <= spec_bound(spec)


# ------------------------------------------------------------ estimation


def test_estimate_matches_exact():
    spec = CutEventSpec(h=2, n=3, subset=frozenset({3}), arrivals=frozenset({5}))
    p = exact_cut_event(Model.STANDARD, spec)
    est = estimate_cut_event(Model.STANDARD, spec, trials=50_000, seed=3)
    assert est.trials == 50_000
    assert est.hits == round(est.p_hat * est.trials)
    se = max(est.std_err, 1e-9)
    assert abs(est.p_hat - float(p)) <= 4 * se + 1e-12
    assert est.bound == spec_bound(spec)


def test_estimate_deterministic():
    spec = CutEventSpec(h=2, n=3, subset=frozenset({3}), arrivals=frozenset({5}))
    a = estimate_cut_event(Model.TILDE, spec, trials=5_000, seed=11)
    b = estimate_cut_event(Model.TILDE, spec, trials=5_000, seed=11)
    assert a == b


def test_estimate_impossible_event_scores_zero():
    spec = CutEventSpec(h=2, n=2, subset=frozenset({2}), arrivals=frozenset({1}))
    est = estimate_cut_event(Model.STANDARD, spec, trials=2_000, seed=0)
    assert est.hits == 0 and est.p_hat == 0.0


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize(
    "subset, arrivals",
    [({3}, {5}), ({3}, set()), ({1, 2}, {5, 6}), ({1}, {3}), ({2, 3}, {3, 4, 5})],
)
def test_estimate_counts_rows_like_a_per_row_scan(model, subset, arrivals):
    spec = CutEventSpec(h=2, n=3, subset=subset, arrivals=arrivals)
    mat = sample_target_matrix(model, 6, 3_000, seed=5)
    hits = sum(
        all(
            ((vertex_of(t, 2) in subset) != (vertex_of(int(s), 2) in subset))
            == (t in arrivals)
            for t, s in enumerate(row, start=1)
        )
        for row in mat
    )
    assert estimate_cut_event(model, spec, trials=3_000, seed=5).hits == hits
