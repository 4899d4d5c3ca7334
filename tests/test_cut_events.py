"""Cut-event probabilities: exact enumeration, sampling, and the bound."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import numpy as np
import pytest

from pamod import (
    CutEventSpec,
    Model,
    cut_event_bound,
    estimate_cut_event,
    exact_cut_event,
    exact_small_t_distribution,
    scan_cut_events,
    spec_bound,
)
from pamod import cut_events, models
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
    # no per-call limit: h*n = 10 runs, and only the enumerator's level
    # cap refuses, before the level over it is allocated
    spec = CutEventSpec(h=2, n=5, subset=frozenset({5}), arrivals=frozenset({10}))
    p = exact_cut_event(Model.STANDARD, spec)
    assert p == Fraction(16, 323) and p <= spec_bound(spec)
    # e_1..e_10 never cross {6}, so step 10 keeps all 10! logs
    spec = CutEventSpec(h=2, n=6, subset=frozenset({6}), arrivals=frozenset({12}))
    with pytest.raises(ValueError, match="step 10 would hold 3628800 logs"):
        exact_cut_event(Model.STANDARD, spec)


def test_exact_probabilities_form_a_distribution():
    # over all arrival sets for a fixed subset the probabilities of the
    # exact crossing patterns must sum to 1; check via the enumerator
    targets, nums, denom = _enumerate_logs(Model.STANDARD, 8)
    assert int(nums.sum()) == denom == 3 * 5 * 7 * 9 * 11 * 13 * 15
    targets, nums, denom = _enumerate_logs(Model.TILDE, 8)
    assert int(nums.sum()) == denom == 1 * 3 * 5 * 7 * 9 * 11 * 13


def _reference_logs(model, hn, spec=None):
    """Recursive enumerator: every (targets, numerator) pair of length hn.

    With ``spec``, prunes as soon as an edge's crossing status contradicts
    the spec's arrival set, so the numerators sum to P(event) * denominator.
    """
    degs0 = [2] if model is Model.STANDARD else [1]
    out = []

    def need(tau):
        return spec is not None and tau in spec.arrivals

    def keep(tau, s):
        if spec is None:
            return True
        crossing = (vertex_of(tau, spec.h) in spec.subset) != (
            vertex_of(s, spec.h) in spec.subset
        )
        return crossing == need(tau)

    def rec(targets, degs, num, tau):
        if tau > hn:
            out.append((tuple(targets), num))
            return
        for s in range(1, tau):
            if keep(tau, s):
                degs2 = list(degs)
                degs2[s - 1] += 1
                degs2.append(1)
                rec(targets + [s], degs2, num * degs[s - 1], tau + 1)
        if model is Model.STANDARD and not need(tau):
            rec(targets + [tau], degs + [2], num, tau + 1)  # self-loop never crosses

    if not need(1):  # e_1 is a loop and never crosses
        rec([1], degs0, 1, 2)
    return out


def _denominator(model, hn):
    return prod(2 * tau - (1 if model is Model.STANDARD else 3) for tau in range(2, hn + 1))


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("hn", range(1, 9))
def test_enumerator_matches_recursive_reference(model, hn):
    targets, nums, denom = _enumerate_logs(model, hn)
    assert targets.dtype == nums.dtype == np.int64
    assert targets.shape == (len(nums), hn)
    assert denom == _denominator(model, hn)
    got = Counter(zip(map(tuple, targets.tolist()), nums.tolist()))
    assert got == Counter(_reference_logs(model, hn))


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 4), (2, 2), (2, 3)])
def test_exact_matches_pruned_reference_on_every_event(model, h, n):
    hn = h * n
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            for a in range(h * k):
                for arrivals in combinations(range(1, hn + 1), a):
                    spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
                    want = sum(num for _t, num in _reference_logs(model, hn, spec))
                    assert exact_cut_event(model, spec) == Fraction(
                        want, _denominator(model, hn)
                    )


def _never_called(tau, s):
    raise AssertionError("enumeration started")


def test_enumerator_refuses_denominators_over_int64_before_enumerating():
    # 35!! > 2^63: standard logs of length 18, tilde logs of length 19
    spec = CutEventSpec(h=2, n=9, subset={9}, arrivals={18})
    with pytest.raises(ValueError, match="2\\^63"):
        exact_cut_event(Model.STANDARD, spec)
    with pytest.raises(ValueError, match="2\\^63"):
        _enumerate_logs(Model.STANDARD, 18, _never_called)
    with pytest.raises(ValueError, match="2\\^63"):
        _enumerate_logs(Model.TILDE, 19, _never_called)
    # one step shorter the denominators fit; rejecting e_1 empties the levels
    for model, hn in ((Model.STANDARD, 17), (Model.TILDE, 18)):
        targets, nums, denom = _enumerate_logs(model, hn, lambda tau, s: s > 1)
        assert targets.shape == (0, hn) and nums.shape == (0,)
        assert denom == _denominator(model, hn) < 2**63


# ------------------------------------------------------------------ scan


def test_enumerator_refuses_a_level_over_the_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(models, "_ENUMERATION_CAP", 100)
    # standard logs of length 5: 24 at step 4, then 5! = 120
    message = "step 5 would hold 120 logs, over the enumeration cap 100"
    with pytest.raises(ValueError, match=message):
        _enumerate_logs(Model.STANDARD, 5)
    assert len(_enumerate_logs(Model.STANDARD, 4)[1]) == 24
    # a pruned level counts only its survivors: e_5 is the self-loop
    spec = CutEventSpec(h=1, n=5, subset={5}, arrivals=set())
    assert exact_cut_event(Model.STANDARD, spec) == Fraction(1, 9)
    with pytest.raises(ValueError, match="enumeration cap 100"):
        scan_cut_events(Model.STANDARD, 1, 5)
    with pytest.raises(ValueError, match="enumeration cap 100"):
        exact_small_t_distribution(Model.TILDE, 6)


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
    # no per-call limit: the level cap admits h*n = 9 standard and 10
    # tilde, and refuses one arrival more before that level is allocated
    assert scan_cut_events(Model.STANDARD, 3, 3).violations == ()
    assert scan_cut_events(Model.TILDE, 2, 5).violations == ()
    with pytest.raises(ValueError, match="step 10 would hold 3628800 logs"):
        scan_cut_events(Model.STANDARD, 2, 5)
    with pytest.raises(ValueError, match="step 11 would hold 3628800 logs"):
        scan_cut_events(Model.TILDE, 1, 11)


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


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 4), (2, 2), (2, 3)])
def test_scan_pairs_checked_counts_positive_exact_events(model, h, n):
    # the scan checks exactly the (S, A) with |A| < h|S| and P > 0
    positive = 0
    for k in range(1, n):
        for subset in combinations(range(1, n + 1), k):
            for a in range(h * k):
                for arrivals in combinations(range(1, h * n + 1), a):
                    spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
                    positive += exact_cut_event(model, spec) > 0
    assert scan_cut_events(model, h, n).pairs_checked == positive


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 5), (2, 3)])
def test_scan_reports_violations_in_subset_mask_order(model, h, n, monkeypatch):
    # the real bound is never violated; cubing both binomials makes some
    # events violate it, to check which violations are listed, and in what order
    def cubed(a, b):
        return comb(a, b) ** 3

    monkeypatch.setattr(cut_events, "math", SimpleNamespace(comb=cubed))
    want = []
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
        k = len(subset)
        for bits in range(1 << (h * n)):
            arrivals = frozenset(t for t in range(1, h * n + 1) if bits >> (t - 1) & 1)
            a = len(arrivals)
            if a >= h * k:
                continue
            spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
            p = exact_cut_event(model, spec)
            if p * cubed(h * n - a, h * k - a) > cubed(h * k, a):
                want.append((subset, arrivals))
    got = scan_cut_events(model, h, n).violations
    assert want and list(got) == want


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
