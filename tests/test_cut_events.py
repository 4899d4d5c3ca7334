"""Cut-event probabilities: the exact chain rule, sampling, and the bound."""

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
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
from pamod.cut_events import CHAIN_LENGTH_CAP, LISTING_WORK_CAP, SCAN_WORK_CAP, CutEventScan
from pamod.cuts import _gray_flip_order, _members
from pamod.experiment import derive_seed
from pamod.models import (
    _ENUMERATION_CAP,
    SAMPLER_CHUNK,
    _check_hn,
    _check_model,
    _enumerate_logs,
    sample_target_matrix,
    vertex_of,
)

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


def _last_vertex_event(n):
    # S = {n}, A = {2n} at h = 2: e_1..e_{2n-2} stay outside S with
    # probability 1, e_{2n-1} is the self-loop (1 in 4n - 3) and e_2n
    # crosses with weight 4n - 4 out of 4n - 1
    spec = CutEventSpec(h=2, n=n, subset={n}, arrivals={2 * n})
    return spec, Fraction(4 * n - 4, (4 * n - 3) * (4 * n - 1))


def _no_chain(*args):
    raise AssertionError("the chain rule ran")


def test_exact_respects_limit(monkeypatch):
    # no per-call limit: h*n = 10 and 12, which the log enumerator refused
    # from 12, run up to CHAIN_LENGTH_CAP; one arrival more is refused
    # before the chain starts
    spec = CutEventSpec(h=2, n=5, subset=frozenset({5}), arrivals=frozenset({10}))
    p = exact_cut_event(Model.STANDARD, spec)
    assert p == Fraction(16, 323) and p <= spec_bound(spec)
    for n in (6, CHAIN_LENGTH_CAP // 2):
        spec, p = _last_vertex_event(n)
        assert exact_cut_event(Model.STANDARD, spec) == p <= spec_bound(spec)
    monkeypatch.setattr(cut_events, "_chain_step", _no_chain)
    spec = CutEventSpec(h=1, n=CHAIN_LENGTH_CAP + 1, subset={1}, arrivals=set())
    with pytest.raises(ValueError, match=f"over the chain length cap {CHAIN_LENGTH_CAP}"):
        exact_cut_event(Model.TILDE, spec)


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


def test_enumerator_refuses_denominators_over_int64_before_enumerating(monkeypatch):
    # 35!! > 2^63: standard logs of length 18, tilde logs of length 19; a
    # zero level cap shows that the denominator is refused first
    monkeypatch.setattr(models, "_ENUMERATION_CAP", 0)
    with pytest.raises(ValueError, match="2\\^63"):
        _enumerate_logs(Model.STANDARD, 18)
    with pytest.raises(ValueError, match="2\\^63"):
        _enumerate_logs(Model.TILDE, 19)
    with pytest.raises(ValueError, match="enumeration cap 0"):
        _enumerate_logs(Model.STANDARD, 17)
    # one step shorter the denominators fit
    for model, hn in ((Model.STANDARD, 17), (Model.TILDE, 18)):
        assert _denominator(model, hn) < 2**63 <= _denominator(model, hn + 1)
    # the chain rule has no int64 denominator: h*n = 18 is exact
    spec, p = _last_vertex_event(9)
    assert exact_cut_event(Model.STANDARD, spec) == p == Fraction(32, 1155)


@pytest.mark.parametrize("model", [Model.STANDARD, Model.TILDE])
def test_enumerator_decides_the_int64_rule_on_a_prefix(model):
    # length 200000 used to build its whole denominator, 19.8 s, and then
    # fail to print it; the first prefix past 2^63 decides
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        exact_small_t_distribution(model, 200_000)
    assert time.perf_counter() - start < 0.25
    assert str(info.value) == (
        f"{model.value} logs of length 200000 have denominator at least "
        "221643095476699771875 >= 2^63, beyond int64 numerators"
    )


def test_enumerator_refuses_before_it_builds_a_level(monkeypatch):
    # the refusal used to come at step 10 (standard) or 11 (tilde), after
    # the levels below it were built: 0.1 s and 96 MiB peak RSS
    def no_level(*args, **kwargs):
        raise AssertionError("a level was built before the refusal")

    monkeypatch.setattr(models.np, "repeat", no_level)
    with pytest.raises(ValueError, match="step 10 would hold 3628800 logs"):
        _enumerate_logs(Model.STANDARD, 15)
    with pytest.raises(ValueError, match="step 11 would hold 3628800 logs"):
        exact_small_t_distribution(Model.TILDE, 12)
    with pytest.raises(AssertionError, match="a level was built"):
        _enumerate_logs(Model.STANDARD, 9)


# ------------------------------------------------------------------ scan


def test_enumerator_refuses_a_level_over_the_cap_before_allocating(monkeypatch):
    monkeypatch.setattr(models, "_ENUMERATION_CAP", 100)
    # standard logs of length 5: 24 at step 4, then 5! = 120
    message = "step 5 would hold 120 logs, over the enumeration cap 100"
    with pytest.raises(ValueError, match=message):
        _enumerate_logs(Model.STANDARD, 5)
    assert len(_enumerate_logs(Model.STANDARD, 4)[1]) == 24
    with pytest.raises(ValueError, match="enumeration cap 100"):
        exact_small_t_distribution(Model.TILDE, 6)
    # cut-event laws enumerate no logs, so the level cap does not touch
    # them: e_5 is the self-loop
    spec = CutEventSpec(h=1, n=5, subset={5}, arrivals=set())
    assert exact_cut_event(Model.STANDARD, spec) == Fraction(1, 9)
    scan = scan_cut_events(Model.STANDARD, 1, 5)
    assert scan.pairs_checked == 185 and scan.violations == ()


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
    assert scan.max_ratio == 0 and scan.max_ratio_at is None  # no margin either
    # everywhere else there is something to check
    assert scan_cut_events(Model.TILDE, 1, 3).pairs_checked > 0
    assert scan_cut_events(Model.TILDE, 2, 2).pairs_checked > 0


def test_scan_respects_limit(monkeypatch):
    # no per-call limit: the sizes the log enumerator refused (standard
    # h*n = 10, tilde 11) run, and the work cap refuses n * (h*n)^3 over
    # SCAN_WORK_CAP before the first step; it admits (2, 40) and (2, 42),
    # which the prefix-tree scan's 2^(n-1) units refused from (2, 15),
    # and refuses (2, 43)
    assert scan_cut_events(Model.STANDARD, 3, 3).violations == ()
    assert scan_cut_events(Model.TILDE, 2, 5).violations == ()
    assert scan_cut_events(Model.STANDARD, 2, 5).violations == ()
    assert scan_cut_events(Model.TILDE, 1, 11).violations == ()
    assert 42 * 84**3 <= SCAN_WORK_CAP < 43 * 86**3
    monkeypatch.setattr(cut_events, "_chain_step", _no_chain)
    with pytest.raises(ValueError, match=f"over the scan work cap {SCAN_WORK_CAP}"):
        scan_cut_events(Model.STANDARD, 2, 43)
    with pytest.raises(ValueError, match=f"{44 * 88**3} work units"):
        scan_cut_events(Model.TILDE, 2, 44)


def test_a_subset_and_its_complement_share_each_cut_event():
    # the prefix-tree oracle's premise: E(S, S-compl) is E(S-compl, S),
    # so one chain serves both sides of every A that both sides admit
    for model, h, n in product(Model, range(1, 4), range(2, 5)):
        for mask in range(1, (1 << n) - 1):
            subset = frozenset(_members(mask))
            rest = frozenset(range(1, n + 1)) - subset
            for a in range(h * min(len(subset), len(rest))):
                for arrivals in combinations(range(1, h * n + 1), a):
                    one = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
                    other = CutEventSpec(h=h, n=n, subset=rest, arrivals=arrivals)
                    assert exact_cut_event(model, one) == exact_cut_event(model, other)


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


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 5), (2, 3)])
def test_scan_lists_every_positive_event_under_a_tiny_bound(model, h, n, monkeypatch):
    # every event of positive mass violates a bound of 10^-30, so the list
    # shows the order within a subset: ascending arrival mask across sizes
    monkeypatch.setattr(cut_events, "cut_event_bound", lambda *_: Fraction(1, 10**30))
    want = []
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(_members(mask))
        for bits in range(1 << (h * n)):
            arrivals = frozenset(_members(bits))
            if len(arrivals) < h * len(subset):
                spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
                if exact_cut_event(model, spec) > 0:
                    want.append((subset, arrivals))
    scan = scan_cut_events(model, h, n)
    assert list(scan.violations) == want and scan.pairs_checked == len(want)


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


@pytest.mark.parametrize("model", list(Model))
def test_estimate_holds_two_bool_bytes_per_cell_next_to_the_matrix(model):
    # the sweep's largest cell: the int64 matrix, two bools per cell for
    # the event test (the gather and its comparison) and a few blocks of
    # the sampler
    h, n, trials = 2, 32, 20_000
    spec = CutEventSpec(h=h, n=n, subset={n}, arrivals={h * n})
    estimate_cut_event(model, spec, trials=2, seed=0)  # warm the imports
    tracemalloc.start()
    try:
        estimate_cut_event(model, spec, trials=trials, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = h * n * trials
    assert peak <= 10 * cells + 4 * 8 * max(trials, SAMPLER_CHUNK), peak / cells


def test_estimate_agrees_with_the_exact_law_at_the_golden_mc_cells():
    # the golden sweep's two Monte-Carlo cells, with their seeds: standard,
    # h = 2, S = {n}, A = {2n}, 20000 trials
    for index, (n, p, p_hat, z) in enumerate(
        [(6, Fraction(20, 483), 0.041, -0.29), (8, Fraction(28, 899), 0.03195, 0.65)]
    ):
        spec, closed_form = _last_vertex_event(n)
        assert exact_cut_event(Model.STANDARD, spec) == closed_form == p
        seed = derive_seed(20240817, 10**6 + index)
        est = estimate_cut_event(Model.STANDARD, spec, trials=20_000, seed=seed)
        assert est.p_hat == p_hat
        got = (est.p_hat - float(p)) / math.sqrt(float(p * (1 - p)) / est.trials)
        assert round(got, 2) == z


# ------------------------------------------------------------------ margin


@pytest.mark.parametrize(
    "model, h, n, ratio",
    [
        (Model.TILDE, 1, 3, Fraction(1)),
        (Model.TILDE, 1, 5, Fraction(1)),
        (Model.TILDE, 1, 8, Fraction(1)),
        (Model.STANDARD, 1, 3, Fraction(4, 5)),
        (Model.STANDARD, 1, 5, Fraction(8, 9)),
        (Model.STANDARD, 1, 8, Fraction(14, 15)),
    ],
)
def test_scan_reports_its_margin(model, h, n, ratio):
    # tilde h = 1 meets the bound exactly; standard stays (2n-2)/(2n-1) below
    scan = scan_cut_events(model, h, n)
    assert scan.max_ratio == ratio
    subset, a = scan.max_ratio_at
    assert len(subset) < n and 0 <= a < h * len(subset)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 4), (2, 3), (3, 2)])
def test_scan_margin_is_the_largest_exact_ratio(model, h, n):
    # the first (S, |A|) by ascending subset mask, then |A|, that reaches
    # the largest P / bound over every event
    best, at = Fraction(0), None
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(_members(mask))
        for a in range(h * len(subset)):
            for arrivals in combinations(range(1, h * n + 1), a):
                spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
                ratio = exact_cut_event(model, spec) / spec_bound(spec)
                if ratio > best:
                    best, at = ratio, (subset, a)
    scan = scan_cut_events(model, h, n)
    assert (scan.max_ratio, scan.max_ratio_at) == (best, at)


@pytest.mark.parametrize(
    "model, pairs, ratio",
    [(Model.STANDARD, 87534959, Fraction(12, 13)), (Model.TILDE, 39547501, Fraction(36, 37))],
)
def test_scan_runs_h2_n10_exactly(model, pairs, ratio):
    # beyond the log enumerator, which stopped at h*n = 9 (standard) or 10
    scan = scan_cut_events(model, 2, 10)
    assert scan.violations == ()
    assert scan.pairs_checked == pairs
    assert scan.max_ratio == ratio
    assert scan.max_ratio_at == (frozenset(range(1, 10)), 2)


# ------------------------------------------------------- enumerator oracle
#
# The log-enumerating exact_cut_event and scan_cut_events that the chain
# rule replaced, with the pruning enumerator they ran on, kept verbatim but
# for the _reference_ names.  The chain rule must give the same laws, pair
# counts and violations wherever the enumerator runs.


def _reference_enumerate_logs(model: Model, length: int, allowed=None):
    """Every arrival log of ``length`` steps with its probability numerator.

    Returns (targets, nums, denom): targets is an (L, length) int64 array
    in lexicographic order, nums[i] * ``denom``^-1 is the probability of
    log i, and nums sum to denom when nothing is pruned.  The logs grow
    one step at a time: each survivor is repeated once per candidate
    target s of arrival tau, 1..tau in the standard model (tau is the
    self-loop, weight 1) and 1..tau-1 in the tilde model, and its
    numerator is multiplied by deg(s).  ``allowed(tau, s)`` maps an array
    of candidates to a bool mask; a rejected candidate's logs are dropped,
    e_1's target 1 included.

    A level of more than ``_ENUMERATION_CAP`` logs is refused before it is
    allocated.  Peak memory is at most about 20 * length bytes per log of
    the widest level (that level, the one before it and temporaries): at
    the cap, under 100 MB for length 10 and under 180 MB for length 18,
    the longest the int64 denominator check lets through.
    """
    model = _check_model(model)
    loops = model is Model.STANDARD
    denom = math.prod(2 * tau - (1 if loops else 3) for tau in range(2, length + 1))
    if denom >= 2**63:
        raise ValueError(
            f"{model.value} logs of length {length} have denominator {denom} "
            ">= 2^63, beyond int64 numerators"
        )
    targets = np.zeros((1, length), dtype=np.int64)
    # the denominator check caps length at 19, so degrees fit in uint8
    degs = np.zeros((1, length), dtype=np.uint8)
    nums = np.ones(1, dtype=np.int64)
    for tau in range(1, length + 1):
        # e_1 is the loop at mini-vertex 1 in both models
        cand = np.arange(1, tau + 1 if loops or tau == 1 else tau)
        if allowed is not None:
            cand = cand[allowed(tau, cand)]
        if (size := len(nums) * len(cand)) > _ENUMERATION_CAP:
            raise ValueError(
                f"{model.value} logs of length {length}: step {tau} would hold "
                f"{size} logs, over the enumeration cap {_ENUMERATION_CAP}"
            )
        rows = np.repeat(np.arange(len(nums)), len(cand))
        s = np.tile(cand, len(nums))
        own = s == tau
        targets = targets[rows]
        degs = degs[rows]
        targets[:, tau - 1] = s
        cell = (np.arange(len(s)), s - 1)
        nums = nums[rows] * np.where(own, 1, degs[cell])
        degs[cell] += 1
        # arrival tau's own endpoint, plus the other end of a weight-2 loop
        degs[:, tau - 1] = 1 + (own & loops)
    return targets, nums, denom


def _reference_sides(spec: CutEventSpec) -> np.ndarray:
    """side[m]: mini-vertex m merges into S (index 0 unused)."""
    minis = range(spec.h * spec.n + 1)
    return np.array([vertex_of(m, spec.h) in spec.subset for m in minis])


def _reference_exact_cut_event(model: Model, spec: CutEventSpec) -> Fraction:
    """P(boundary edge set of S equals A), by exhaustive enumeration.

    Enumerates the arrival logs level by level, dropping a log as soon as
    a placed edge's crossing status contradicts A, and sums the
    survivors' numerators.  Exact rational output; the enumerator's cap
    refuses a surviving level over 500000 logs (use
    :func:`estimate_cut_event` there).  Memory is a few (L, h*n) arrays
    for the L logs of the largest surviving level: h*n = 10 with one
    arrival in A keeps 322560 logs and peaks near 45 MiB above the
    interpreter.
    """
    model = _check_model(model)
    hn = spec.h * spec.n
    side = _reference_sides(spec)
    _targets, nums, denom = _reference_enumerate_logs(
        model, hn, lambda tau, s: (side[tau] != side[s]) == (tau in spec.arrivals)
    )
    return Fraction(int(nums.sum()), denom)


def _reference_scan_cut_events(model: Model, h: int, n: int):
    """Verify the bound for every proper nonempty S and every admissible A.

    The subsets share one log enumeration, walked in Gray-code order
    with one XOR per subset (module docstring); an (n, logs) int64 array
    of incidence masks replaces the enumerated targets.  Integer
    probability numerators are accumulated per boundary mask, and every
    accumulated event with |A| < h|S| is compared exactly (integer
    cross-multiplication) against ``cut_event_bound``, computed once per
    (|S|, |A|); events that never occur hold trivially since the bound
    is positive.  Violations are listed by ascending subset mask.  The
    enumerator's cap admits h*n <= 9 standard and 10 tilde: (h, n) =
    (1, 9) and (1, 10) take 0.6 s and 1.1 s, 100 MiB peak RSS (2-core Xeon).
    """
    model = _check_model(model)
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={h}, n={n}")
    hn = h * n
    targets, nums, denom = _reference_enumerate_logs(model, hn)
    # the cap keeps denom <= 17!!, so float64 accumulation is exact
    assert int(nums.sum()) == denom < 2**53
    weights = nums.astype(np.float64)
    rows = np.arange(len(nums))
    # bit t-1 of inc[v - 1]: edge e_t has exactly one end at v (loops cancel)
    inc = np.zeros((n, len(nums)), dtype=np.int64)
    for t in range(1, hn + 1):
        bit = np.int64(1) << (t - 1)
        inc[vertex_of(t, h) - 1] ^= bit
        inc[vertex_of(targets[:, t - 1], h) - 1, rows] ^= bit
    del targets
    pairs_checked = 0
    found: list[tuple[int, frozenset[int]]] = []
    bounds = {
        (k, a): cut_event_bound(h, n, k, a) for k in range(1, n) for a in range(h * k)
    }
    event = np.zeros(len(nums), dtype=np.int64)
    mask = 0
    for v in _gray_flip_order(n):
        mask ^= 1 << v
        event ^= inc[v]
        if mask == (1 << n) - 1:
            continue
        k = mask.bit_count()
        mass = np.bincount(event, weights=weights, minlength=1 << hn)
        mass_int = mass.astype(np.int64)
        for b in np.nonzero(mass_int)[0]:
            a = int(b).bit_count()
            if a >= h * k:
                continue
            pairs_checked += 1
            bound = bounds[k, a]
            if int(mass_int[b]) * bound.denominator > denom * bound.numerator:
                found.append((mask, frozenset(_members(int(b)))))
    found.sort(key=lambda item: item[0])
    return SimpleNamespace(
        model=model,
        h=h,
        n=n,
        pairs_checked=pairs_checked,
        violations=tuple((frozenset(_members(m)), a) for m, a in found),
    )


@pytest.mark.parametrize("model", list(Model))
def test_exact_matches_the_enumerator_on_random_specs(model):
    rng = random.Random(12)
    for _ in range(150):
        h = rng.randint(1, 4)
        n = rng.randint(1, 9 // h)
        subset = rng.sample(range(1, n + 1), rng.randint(1, n))
        arrivals = rng.sample(range(1, h * n + 1), rng.randrange(h * len(subset)))
        spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
        assert exact_cut_event(model, spec) == _reference_exact_cut_event(model, spec)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", ALL_SMALL + [(1, 9)])
def test_scan_matches_the_enumerator(model, h, n):
    scan = scan_cut_events(model, h, n)
    want = _reference_scan_cut_events(model, h, n)
    assert (scan.pairs_checked, scan.violations) == (want.pairs_checked, want.violations)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 6), (2, 4), (3, 2)])
def test_scan_lists_the_enumerators_violations_of_a_cubed_bound(model, h, n, monkeypatch):
    # cubing both binomials makes many events violate the bound
    monkeypatch.setattr(
        cut_events, "math", SimpleNamespace(comb=lambda a, b: comb(a, b) ** 3)
    )
    got = scan_cut_events(model, h, n).violations
    assert got and got == _reference_scan_cut_events(model, h, n).violations


# ------------------------------------------------------ per-subset oracle
#
# The per-subset chain scan that the prefix walk replaced, kept verbatim
# but for the _reference_ names, without its work cap, and with
# ``cut_events.cut_event_bound`` read through the module so that the
# monkeypatched bounds reach it.  It runs all h*n arrivals once per subset.


def _reference_chain(model: Model, h: int, n: int, subset, arrivals=None):
    """The sets A of |A| < h|S| (or the one set ``arrivals``) by the chain
    rule over arrivals 2..h*n.

    Arrival tau's side is [ceil(tau/h) in S].  With vol the volume of both
    sides before step tau, e_tau crosses with weight vol_other or stays
    with weight vol_own + [standard], out of D_tau = vol + [standard] =
    2 tau - 1 (standard) or 2 tau - 3 (tilde).  A crossing adds 1 to each
    side and a stay 2 to its own; e_1 puts 2 (standard) or 1 (tilde) on
    the side of vertex 1.  Returns (states, denom): states maps (|A|,
    vol_S) after arrival h*n to (the largest numerator P(A) * denom of an
    A that ends there, the number of A of positive mass that do).
    """
    loops, cap = model is Model.STANDARD, h * len(subset)
    vol = 1 + loops
    states = {(0, vol if 1 in subset else 0): (1, 1)}
    denom = 1
    for tau in range(2, h * n + 1):
        own = vertex_of(tau, h) in subset
        branches = (False, True) if arrivals is None else (tau in arrivals,)
        after: dict = {}
        for (a, vol_s), (num, count) in states.items():
            vol_own = vol_s if own else vol - vol_s
            for cross in branches:
                weight = vol - vol_own if cross else vol_own + loops
                if weight and a + cross < cap:
                    key = (a + cross, vol_s + (1 if cross else 2 * own))
                    num_w = num * weight
                    if key in after:  # no .get: this loop is the scan's cost
                        best, seen = after[key]
                        after[key] = (num_w if num_w > best else best, seen + count)
                    else:
                        after[key] = (num_w, count)
        states = after
        denom *= vol + loops
        vol += 2
    return states, denom


def _reference_chain_event(model: Model, spec: CutEventSpec) -> Fraction:
    """P(boundary edge set of S equals A), exactly: the chain rule along
    the one path that A fixes, refused for h*n over ``CHAIN_LENGTH_CAP``."""
    model = _check_model(model)
    hn = spec.h * spec.n
    if hn > CHAIN_LENGTH_CAP:
        raise ValueError(f"h*n = {hn} is over the chain length cap {CHAIN_LENGTH_CAP}")
    if 1 in spec.arrivals:
        return Fraction(0)
    states, denom = _reference_chain(model, spec.h, spec.n, spec.subset, spec.arrivals)
    return Fraction(sum(num for num, _count in states.values()), denom)


def _reference_chain_scan(model: Model, h: int, n: int) -> CutEventScan:
    """Verify the bound for every proper nonempty S and every admissible A.

    Runs ``_chain`` once per subset, in ascending mask order.  The largest
    numerator per |A| is compared exactly with ``cut_event_bound``; sets
    of zero mass hold trivially, and ``pairs_checked`` counts the others.
    Only an (S, |A|) cell over its bound lists its sets, by
    ``exact_cut_event``, in ascending arrival-mask order.
    """
    model = _check_model(model)
    _check_hn(h, n)
    hn = h * n
    sizes = [(k, a) for k in range(1, n) for a in range(h * k)]
    bounds = {ka: cut_events.cut_event_bound(h, n, *ka) for ka in sizes}
    pairs_checked, violations = 0, []
    top, top_at, denom = Fraction(0), None, 1  # largest P / bound is top / denom
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(_members(mask))
        states, denom = _reference_chain(model, h, n, subset)
        largest: dict[int, int] = {}
        for (a, _vol_s), (num, count) in states.items():
            pairs_checked += count
            largest[a] = max(largest.get(a, 0), num)
        over = []
        for a in sorted(largest):
            bound = bounds[len(subset), a]
            if (ratio := largest[a] / bound) > top:
                top, top_at = ratio, (subset, a)
            if ratio > denom:
                sets = combinations(range(2, hn + 1), a)
                cell = (CutEventSpec(h, n, subset, arrivals) for arrivals in sets)
                over += [c.arrivals for c in cell if _reference_chain_event(model, c) > bound]
        over.sort(key=lambda arrivals: sum(1 << t for t in arrivals))
        violations += [(subset, arrivals) for arrivals in over]
    return CutEventScan(
        model, h, n, pairs_checked, tuple(violations), top / denom, top_at
    )


# every cell of h 1-3 with no more per-subset work than (2, 10)
ORACLE_CELLS = [
    (h, n)
    for h in (1, 2, 3)
    for n in range(1, 13)
    if ((1 << n) - 2) * (h * n) ** 3 <= ((1 << 10) - 2) * 20**3
]


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", ORACLE_CELLS)
def test_scan_equals_the_per_subset_chain_scan(model, h, n):
    # pairs_checked, violations in order, max_ratio and max_ratio_at
    assert scan_cut_events(model, h, n) == _reference_chain_scan(model, h, n)


def _cubed_bound(monkeypatch):
    monkeypatch.setattr(cut_events, "math", SimpleNamespace(comb=lambda a, b: comb(a, b) ** 3))


def _tiny_bound(monkeypatch):
    monkeypatch.setattr(cut_events, "cut_event_bound", lambda *_: Fraction(1, 10**30))


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 5), (1, 6), (2, 3), (2, 4), (3, 2), (3, 3)])
@pytest.mark.parametrize("patch", [_cubed_bound, _tiny_bound])
def test_scan_equals_the_per_subset_chain_scan_over_a_false_bound(model, h, n, patch, monkeypatch):
    # a bound that real events violate, so the lists and the margin over 1 count
    patch(monkeypatch)
    scan = scan_cut_events(model, h, n)
    assert scan.violations and scan == _reference_chain_scan(model, h, n)


def _listing_work(h, n, cells):
    """Pair-steps of listing the (k, |A|) ``cells``: h*n steps per k-set
    and set A in 2..h*n."""
    hn = h * n
    return hn * sum(comb(n, k) * comb(hn - 1, a) for k, a in cells)


def _no_exact(model, spec):
    raise AssertionError("exact_cut_event ran")


def test_the_listing_cap_admits_every_listed_cell():
    # under the tiny bound every cell is over: (2, 4) is the largest
    # listing above, and (2, 7) used to spend 16 s on 175,903 violations
    def every_cell(n):
        return _listing_work(2, n, [(k, a) for k in range(1, n) for a in range(2 * k)])

    assert every_cell(4) == 7168 <= LISTING_WORK_CAP < every_cell(7) == 7_225_344


@pytest.mark.parametrize(
    "model, h, n, patch",
    [
        (Model.STANDARD, 2, 8, _cubed_bound),
        (Model.TILDE, 2, 8, _cubed_bound),
        (Model.STANDARD, 2, 7, _tiny_bound),
    ],
)
def test_a_listing_over_its_work_cap_is_refused_before_it_starts(model, h, n, patch, monkeypatch):
    # cubed (2, 8) used to spend 10-13 s listing, at 32,768 scan units
    patch(monkeypatch)
    monkeypatch.setattr(cut_events, "exact_cut_event", _no_exact)
    with pytest.raises(ValueError, match=f"pair-steps, over the listing work cap {LISTING_WORK_CAP}"):
        scan_cut_events(model, h, n)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("patch", [_cubed_bound, _tiny_bound])
def test_the_listing_cap_counts_the_pairs_of_the_over_cells(model, patch, monkeypatch):
    # at a cap of exactly the listing's work it runs; one less refuses it
    patch(monkeypatch)
    scan = scan_cut_events(model, 2, 4)
    work = _listing_work(2, 4, {(len(s), len(a)) for s, a in scan.violations})
    monkeypatch.setattr(cut_events, "LISTING_WORK_CAP", work)
    assert scan_cut_events(model, 2, 4) == scan
    monkeypatch.setattr(cut_events, "LISTING_WORK_CAP", work - 1)
    monkeypatch.setattr(cut_events, "exact_cut_event", _no_exact)
    with pytest.raises(ValueError, match=f"takes {work} pair-steps"):
        scan_cut_events(model, 2, 4)


@pytest.mark.parametrize("model", list(Model))
def test_exact_equals_the_per_subset_chain_on_random_specs(model):
    rng = random.Random(20)
    for _ in range(200):
        h = rng.randint(1, 4)
        n = rng.randint(1, 30 // h)
        subset = rng.sample(range(1, n + 1), rng.randint(1, n))
        arrivals = rng.sample(range(1, h * n + 1), rng.randrange(h * len(subset)))
        spec = CutEventSpec(h=h, n=n, subset=subset, arrivals=arrivals)
        assert exact_cut_event(model, spec) == _reference_chain_event(model, spec)


@pytest.mark.parametrize("model", list(Model))
def test_scan_memory_stays_flat(model):
    # the walk holds the merged state maps of two vertices, at most n + 1
    # each: (2, 9) peaks at 90-125 KiB of Python allocations, where the
    # 256 per-subset final maps held whole take megabytes
    scan_cut_events(model, 2, 3)  # warm the imports and caches
    tracemalloc.start()
    try:
        scan_cut_events(model, 2, 9)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


# ------------------------------------------------------ prefix-tree oracle
#
# The prefix-tree scan that the merged-state walk replaced, kept verbatim
# but for the _reference_ names and three wrapped lines, without its work
# cap, with its own two-value step and start, and with
# ``cut_events.cut_event_bound`` read through the module so that the
# monkeypatched bounds reach it.  It walks one branch per subset holding
# vertex 1; each final map serves S and its complement.


def _reference_prefix_step(
    states: dict, own: bool, vol: int, loops: bool, cap: int, branches
) -> dict:
    """One arrival of the chain rule: ``states`` after arrival tau - 1 to
    the states after tau.

    ``states`` maps (|A|, vol_S) to (the largest numerator of an A that
    ends there, the number of A of positive mass that do); ``own`` is
    [ceil(tau/h) in S] and ``vol`` = 2 tau - 3 + [standard] the volume of
    both sides before tau.  Each branch ``cross`` of ``branches`` has
    e_tau cross with weight vol_other or stay with weight vol_own +
    [standard], out of D_tau = vol + [standard]; a crossing adds 1 to
    each side and a stay 2 to its own.  States of |A| >= ``cap`` and
    branches of zero weight are dropped.
    """
    after: dict = {}
    for (a, vol_s), (num, count) in states.items():
        vol_own = vol_s if own else vol - vol_s
        for cross in branches:
            weight = vol - vol_own if cross else vol_own + loops
            if weight and a + cross < cap:
                key = (a + cross, vol_s + (1 if cross else 2 * own))
                num_w = num * weight
                if key in after:  # no .get: this loop is the scan's cost
                    best, seen = after[key]
                    after[key] = (num_w if num_w > best else best, seen + count)
                else:
                    after[key] = (num_w, count)
    return after


def _reference_prefix_start(loops: bool, inside: bool) -> dict:
    """The state after e_1, which puts 2 (standard) or 1 (tilde) on the
    side of vertex 1."""
    return {(0, 1 + loops if inside else 0): (1, 1)}


def _reference_prefix_walk(loops: bool, h: int, n: int, v: int, mask: int, states: dict):
    """Yield (mask, chain states after arrival h*n) for every proper S
    that holds vertex 1 and agrees with ``mask`` on vertices 1..v-1.

    Vertex v's arrivals run once for the subsets that share the prefix.
    States are dropped at |A| >= h * max(|S|, n - |S|) over every
    completion, since each final state serves both S and its complement.
    """
    if v > n:
        yield mask, states
        return
    k = mask.bit_count()
    for inside in (True,) if v == 1 else (False, True):
        if (s := k + inside) == n:
            continue
        cap = h * max(s + n - v, n - s)
        after = states
        for tau in range(max(2, h * v - h + 1), h * v + 1):
            vol = 2 * tau - 3 + loops
            after = _reference_prefix_step(after, inside, vol, loops, cap, (False, True))
        yield from _reference_prefix_walk(loops, h, n, v + 1, mask | inside << (v - 1), after)


def _reference_prefix_scan(model: Model, h: int, n: int) -> CutEventScan:
    """Verify the bound for every proper nonempty S and every admissible A.

    The boundary edge set of S is that of its complement, so one chain
    serves both, and ``_prefix_walk`` runs it down the tree of vertex
    prefixes with vertex 1 in S.  Each final state map is reduced at once:
    the sets of positive mass with |A| < h|S| and with |A| < h(n - |S|)
    are counted in ``pairs_checked``, and the largest numerator per |A|
    is compared with ``cut_event_bound`` for each side by integer
    cross-multiplication; sets of zero mass hold trivially.  A tie on the
    largest ratio goes to the lower mask, so ``max_ratio_at`` is the first
    maximum in mask order.  Only an (S, |A|) cell over its bound lists its
    sets, by ``exact_cut_event``; the lists follow ascending subset mask,
    then ascending arrival mask.
    """
    model = _check_model(model)
    _check_hn(h, n)
    hn, full = h * n, (1 << n) - 1
    loops = model is Model.STANDARD
    denom = cut_events._chain_denominator(loops, hn)
    sizes = [(k, a) for k in range(1, n) for a in range(h * k)]
    bounds = {ka: cut_events.cut_event_bound(h, n, *ka) for ka in sizes}
    # a numerator over ``over_at[k, a]`` is over bound * denom
    over_at = {ka: denom * b.numerator // b.denominator for ka, b in bounds.items()}
    pairs_checked, top, top_at, over = 0, (0, 1), None, {}  # top: P / bound as p / q
    start = _reference_prefix_start(loops, True)
    for mask, states in _reference_prefix_walk(loops, h, n, 1, 0, start):
        k = mask.bit_count()
        largest = [0] * (h * max(k, n - k))
        for (a, _vol_s), (num, count) in states.items():
            pairs_checked += count * ((a < h * k) + (a < h * (n - k)))
            if num > largest[a]:
                largest[a] = num
        for side, size in ((mask, k), (full ^ mask, n - k)):
            for a, num in enumerate(largest[: h * size]):
                if not num:
                    continue
                bound = bounds[size, a]
                p, q = num * bound.denominator, bound.numerator
                # a tie goes to the lower mask: the first maximum in mask order
                if (gain := p * top[1] - top[0] * q) > 0 or gain == 0 and side < top_at[0]:
                    top, top_at = (p, q), (side, a)
                if num > over_at[size, a]:
                    over.setdefault(side, []).append(a)
    violations = []
    for mask in sorted(over):
        subset, found = frozenset(_members(mask)), []
        for a in over[mask]:
            sets = combinations(range(2, hn + 1), a)
            cell = (CutEventSpec(h, n, subset, arrivals) for arrivals in sets)
            bound = bounds[len(subset), a]
            found += [c.arrivals for c in cell if exact_cut_event(model, c) > bound]
        found.sort(key=lambda arrivals: sum(1 << t for t in arrivals))
        violations += [(subset, arrivals) for arrivals in found]
    if top_at is not None:
        top_at = (frozenset(_members(top_at[0])), top_at[1])
    return CutEventScan(
        model, h, n, pairs_checked, tuple(violations), Fraction(top[0], top[1] * denom), top_at
    )


# every cell of h 1-4 with no more prefix-tree work, (2^(n-1) - 1) * (h*n)^3,
# than (2, 12)
PREFIX_CELLS = [
    (h, n)
    for h in (1, 2, 3, 4)
    for n in range(1, 16)
    if ((1 << (n - 1)) - 1) * (h * n) ** 3 <= ((1 << 11) - 1) * 24**3
]


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", PREFIX_CELLS)
def test_scan_equals_the_prefix_tree_scan(model, h, n):
    # pairs_checked, violations in order, max_ratio and max_ratio_at
    assert scan_cut_events(model, h, n) == _reference_prefix_scan(model, h, n)


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("h, n", [(1, 5), (1, 6), (2, 3), (2, 4), (3, 2), (3, 3)])
@pytest.mark.parametrize("patch", [_cubed_bound, _tiny_bound])
def test_scan_equals_the_prefix_tree_scan_over_a_false_bound(model, h, n, patch, monkeypatch):
    # a bound that real events violate, so the lists and the margin over 1 count
    patch(monkeypatch)
    scan = scan_cut_events(model, h, n)
    assert scan.violations and scan == _reference_prefix_scan(model, h, n)


@pytest.mark.parametrize(
    "model, pairs, ratio",
    [
        (Model.STANDARD, 90308401920205701, Fraction(76, 79)),
        (Model.TILDE, 42058581365360221, Fraction(76, 77)),
    ],
)
def test_scan_runs_h2_n20_beyond_the_prefix_tree_cap(model, pairs, ratio):
    # the prefix-tree scan refused (2, 15) and up; the margin is re-derived
    # from exact_cut_event over every A of the reported size for the
    # reported S, independently of the walk
    scan = scan_cut_events(model, 2, 20)
    assert scan.violations == ()
    subset, a = scan.max_ratio_at
    assert (subset, a) == (frozenset(range(1, 20)), 2)
    cells = (CutEventSpec(2, 20, subset, arrivals) for arrivals in combinations(range(2, 41), a))
    largest = max(exact_cut_event(model, spec) for spec in cells)
    assert largest / cut_event_bound(2, 20, 19, 2) == scan.max_ratio
    assert (scan.pairs_checked, scan.max_ratio) == (pairs, ratio)
