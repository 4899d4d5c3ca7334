"""Certification machinery: tail sums, rate conditions, the bound grid.

High-precision oracles use mpmath at 50 digits so the float64 paths are
checked against something that cannot share their rounding errors.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pamod import certify
from pamod.certify import (
    MODULARITY_CONSTANT,
    TailParams,
    certify_modularity_bound,
    check_expansion_constant,
    check_rate_condition,
    complement_gap_grid,
    complement_term_dominates,
    expansion_constant_value,
    large_h_modularity_bound,
    log_tail_term,
    log_tail_terms,
    max_certified_delta,
    rate_condition_value,
    union_bound_sum,
    verify_unimodality,
)
from pamod.models import _shown

mpmath.mp.dps = 50


def _mp_log_tail(h, alpha_hat, n, k):
    a = mpmath.mpf(alpha_hat)
    return mpmath.log(a * k) + 2 * a * k * (1 + mpmath.log(h / a)) + (
        h - 1 - 2 * a
    ) * k * mpmath.log(mpmath.mpf(k) / n)


# ------------------------------------------------------------ tail terms


@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=4, max_value=10_000),
    st.integers(min_value=1, max_value=5_000),
)
def test_log_tail_term_matches_mpmath(h, frac, n, k):
    alpha_hat = frac * (h - 1) / 2
    if not 0 < alpha_hat < (h - 1) / 2 or 2 * k > n:
        return
    params = TailParams(h=h, alpha_hat=alpha_hat, n=n, u=0.5)
    got = log_tail_term(params, k)
    want = float(_mp_log_tail(h, alpha_hat, n, k))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_tail_terms_vectorized_agrees():
    params = TailParams(h=3, alpha_hat=0.5, n=200, u=0.5)
    ks = np.arange(1, 101)
    vec = log_tail_terms(params, ks)
    for k in (1, 7, 50, 100):
        assert vec[k - 1] == pytest.approx(log_tail_term(params, k), rel=1e-14)


def test_log_tail_term_closed_form_identity():
    # with alpha_hat = delta*h and k = u*n the term factorizes as
    # delta*h*u*n * ((e/(delta*u))^(2*delta*h) * u^(h-1))^(u*n)
    for h, delta, u, n in [(2, 0.14851, 0.25, 64), (3, 0.1, 0.5, 30), (5, 0.03418, 0.125, 80)]:
        k = round(u * n)
        assert k == u * n
        params = TailParams(h=h, alpha_hat=delta * h, n=n, u=u)
        d, uu = mpmath.mpf(delta), mpmath.mpf(u)
        inner = (mpmath.e / (d * uu)) ** (2 * d * h) * uu ** (h - 1)
        closed = mpmath.log(d * h * uu * n) + uu * n * mpmath.log(inner)
        assert log_tail_term(params, k) == pytest.approx(float(closed), rel=1e-12)


def test_log_tail_term_validates_k():
    params = TailParams(h=2, alpha_hat=0.25, n=10, u=0.5)
    with pytest.raises(ValueError):
        log_tail_term(params, 0)
    with pytest.raises(ValueError):
        log_tail_term(params, 6)  # 2k > n
    log_tail_term(params, 5)


def test_tail_params_validation():
    with pytest.raises(ValueError):
        TailParams(h=1, alpha_hat=0.1, n=10, u=0.5)
    with pytest.raises(ValueError):
        TailParams(h=2, alpha_hat=0.5, n=10, u=0.5)  # not strictly below
    with pytest.raises(ValueError):
        TailParams(h=2, alpha_hat=0.0, n=10, u=0.5)
    with pytest.raises(ValueError):
        TailParams(h=2, alpha_hat=0.1, n=0, u=0.5)
    with pytest.raises(ValueError):
        TailParams(h=2, alpha_hat=0.1, n=10, u=0.6)


# ------------------------------------------------------------ union sums


@pytest.mark.parametrize(
    "h,alpha_hat,n,u",
    [
        (3, 0.5, 200, 0.5),       # blows up, clamped
        (3, 0.10254, 200, 0.5),   # certified rate, small
        (2, 0.06836, 500, 0.25),
        (4, 1.2, 64, 0.5),
    ],
)
def test_union_bound_sum_matches_direct_summation(h, alpha_hat, n, u):
    res = union_bound_sum(TailParams(h=h, alpha_hat=alpha_hat, n=n, u=u))
    k_top = math.floor(u * n)
    direct = mpmath.fsum(
        mpmath.e ** _mp_log_tail(h, alpha_hat, n, k) for k in range(1, k_top + 1)
    )
    assert res.log_total == pytest.approx(float(mpmath.log(direct)), rel=1e-9)
    if res.total != math.inf:
        assert res.total == pytest.approx(float(direct), rel=1e-9)
    assert res.clamped == (direct > 1)
    assert res.bound == (1.0 if res.clamped else res.total)
    assert res.bound <= 1.0


def test_union_bound_sum_needs_a_set_size():
    with pytest.raises(ValueError):
        union_bound_sum(TailParams(h=2, alpha_hat=0.25, n=1, u=0.5))


def test_union_bound_small_at_certified_rate():
    # delta_hat(1/2)*h at h=2 leaves only ~8e-5 of log margin per k at
    # the top size, so the sum dips below 1 only for n in the millions;
    # that it does at all is the content of the certificate
    params = TailParams(h=2, alpha_hat=0.03418 * 2, n=1_000_000, u=0.5)
    res = union_bound_sum(params)
    assert not res.clamped
    assert res.total < 1e-6
    smaller = union_bound_sum(TailParams(h=2, alpha_hat=0.06836, n=100_000, u=0.5))
    assert smaller.clamped  # below the asymptotic regime the bound is vacuous


# ----------------------------------------------------------- unimodality


def _independent_shape(params):
    logs = [log_tail_term(params, k) for k in range(1, params.n // 2 + 1)]
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    sign_flips = sum(
        1 for a, b in zip(diffs, diffs[1:]) if (a < 0) != (b < 0)
    )
    down_after_up = any(
        diffs[j] < 0 and diffs[i] >= 0 for i in range(len(diffs)) for j in range(i + 1, len(diffs))
    )
    trough = logs.index(min(logs)) + 1
    return sign_flips, down_after_up, trough


@pytest.mark.parametrize(
    "h,alpha_hat,n",
    [(3, 0.5, 200), (2, 0.25, 1000), (5, 1.9, 64), (10, 0.01, 100)],
)
def test_unimodality_matches_independent_scan(h, alpha_hat, n):
    params = TailParams(h=h, alpha_hat=alpha_hat, n=n, u=0.5)
    res = verify_unimodality(params)
    flips, down_after_up, trough = _independent_shape(params)
    assert res.is_unimodal == (not down_after_up)
    if res.is_unimodal:
        assert res.trough == trough


def test_unimodality_monotone_increasing_orients_trough_at_one():
    # alpha_hat near (h-1)/2 kills the k^k factor; terms only grow
    params = TailParams(h=3, alpha_hat=0.999, n=50, u=0.5)
    res = verify_unimodality(params)
    assert res.is_unimodal and res.trough == 1


@pytest.mark.parametrize("h", [20, 100])
def test_unimodality_monotone_decreasing_orients_trough_at_half(h):
    # n = 5 scans k = 1, 2: one difference, -3.37 at h = 20, so terms only fall
    res = verify_unimodality(TailParams(h=h, alpha_hat=0.01, n=5, u=0.5))
    assert (res.is_unimodal, res.trough) == (True, 2)


def test_unimodality_needs_enough_points():
    with pytest.raises(ValueError):
        verify_unimodality(TailParams(h=2, alpha_hat=0.25, n=3, u=0.5))


def _refuse_arrays(*_args):
    raise AssertionError("a term array was built")


def test_tail_term_cap_is_checked_before_any_array(monkeypatch):
    # n = 22 has floor(u*n) = floor(n/2) = 11 terms, within a cap of 11
    # and over one of 10; the real cap is never allocated up to
    params = TailParams(2, 0.25, 22, 0.5)
    monkeypatch.setattr(certify, "TAIL_TERM_CAP", 11)
    union_bound_sum(params)
    verify_unimodality(params)
    monkeypatch.setattr(certify, "TAIL_TERM_CAP", 10)
    monkeypatch.setattr(certify, "log_tail_terms", _refuse_arrays)
    for call in (union_bound_sum, verify_unimodality):
        with pytest.raises(ValueError, match="^11 tail terms, over the tail term cap 10$"):
            call(params)


# -------------------------------------------------------- rate condition


def test_rate_condition_fixture():
    assert check_rate_condition(2, 0.5, 0.03418)
    assert not check_rate_condition(2, 0.5, 0.035)
    v = rate_condition_value(2, 0.5, 0.03418)
    assert v == pytest.approx(expansion_constant_value(0.03418), rel=1e-12)


@given(
    st.integers(min_value=2, max_value=50),
    st.floats(min_value=1e-4, max_value=0.5),
    st.floats(min_value=1e-4, max_value=0.24),
)
def test_rate_condition_h2_implies_all_h(h, u, x):
    # the condition divides through to 2x(1-ln(ux))*h/(h-1) < -ln u and
    # h/(h-1) is largest at h = 2, so h = 2 is the binding case
    if check_rate_condition(2, u, x):
        assert check_rate_condition(h, u, x)


def test_rate_condition_validation():
    with pytest.raises(ValueError):
        check_rate_condition(1, 0.5, 0.1)
    with pytest.raises(ValueError):
        check_rate_condition(2, 0.7, 0.1)
    with pytest.raises(ValueError):
        check_rate_condition(2, 0.5, 0.0)


# ------------------------------------------------------------- delta hat


def test_delta_hat_anchors():
    assert max_certified_delta(0.5) == pytest.approx(0.03418, abs=1e-12)
    assert max_certified_delta(0.0142) == pytest.approx(0.14851, abs=1e-12)


def test_delta_hat_is_a_multiple_of_precision():
    for u in (0.5, 0.25, 0.0142, 0.001):
        d = max_certified_delta(u)
        j = d / 1e-5
        assert abs(j - round(j)) < 1e-6
        assert 0 < d < 0.25


def test_delta_hat_is_maximal():
    for u in (0.5, 0.0142, 0.1):
        d = max_certified_delta(u)
        j = round(d / 1e-5)

        def ok(j_):
            dd = j_ * 1e-5
            return 4.0 * dd * (1.0 - math.log(u * dd)) < -math.log(u)

        assert ok(j)
        if (j + 1) * 1e-5 < 0.25:
            assert not ok(j + 1)


def test_delta_hat_monotone_nonincreasing_in_u():
    us = np.linspace(0.001, 0.5, 120)
    ds = [max_certified_delta(float(u)) for u in us]
    assert all(a >= b for a, b in zip(ds, ds[1:]))


def test_delta_hat_coarse_precision():
    # precision 0.1 leaves multiples {0.1, 0.2}; at u = 0.0142 only 0.1
    # passes (the fine-grained answer there is 0.14851)
    assert max_certified_delta(0.0142, precision=0.1) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        max_certified_delta(0.5, precision=0.3)
    with pytest.raises(ValueError):
        max_certified_delta(0.5, precision=0.1)  # even 0.1 fails at u=1/2


def test_delta_hat_refuses_a_precision_below_two_to_the_minus_55():
    # at 5e-324 and 1e-310, 0.25/precision is inf and math.floor of it
    # escaped as an OverflowError; at 3e-300 and 1.7e-200 the search for
    # the top multiple below 1/4 never ended
    for precision in (5e-324, 1e-310, 3e-300, 1.7e-200, 2.0**-55 * (1 - 2**-53)):
        with pytest.raises(ValueError, match="need 2\\^-55 <= precision"):
            max_certified_delta(0.5, precision=precision)
    for precision in (2.0**-55, 1e-16):
        assert max_certified_delta(0.5, precision) == pytest.approx(0.0341848, abs=1e-7)


# ------------------------------------------------------------ bound grid


def test_certify_default_anchors():
    cert = certify_modularity_bound()
    assert cert.bound == 0.92383
    assert cert.minimizer_u == 0.0142
    assert cert.minimizer_delta == 0.14851
    assert cert.grid_step == 1e-4
    assert cert.delta_precision == 1e-5
    assert cert.trace is None


def test_certify_trace_contains_minimizer_row():
    cert = certify_modularity_bound(with_trace=True)
    assert cert.trace is not None and len(cert.trace) == 5000
    u_s, delta, term = cert.trace[141]
    assert u_s == pytest.approx(0.0142)
    assert delta == pytest.approx(0.14851)
    assert 1 - term <= cert.bound + 1e-12
    assert min(t[2] for t in cert.trace) == pytest.approx(term)


def test_certify_coarser_grids_stay_above():
    coarse = certify_modularity_bound(grid_step=1e-3)
    assert coarse.bound == 0.92428
    assert coarse.minimizer_u == 0.014
    assert coarse.minimizer_delta == 0.14875
    assert coarse.bound >= 0.92383


def test_certify_single_point_grid():
    cert = certify_modularity_bound(grid_step=0.5)
    assert cert.bound == 0.9832
    assert cert.minimizer_u == 0.5
    assert cert.minimizer_delta == 0.03418


def test_certify_rejects_nondividing_grid():
    with pytest.raises(ValueError):
        certify_modularity_bound(grid_step=0.3)
    with pytest.raises(ValueError):
        certify_modularity_bound(grid_step=0.0003)
    with pytest.raises(ValueError):
        certify_modularity_bound(grid_step=0.7)


def test_certify_refuses_a_grid_over_the_point_cap(monkeypatch):
    def no_js(us, precision):
        raise AssertionError("_certified_js was called")

    monkeypatch.setattr(certify, "_certified_js", no_js)
    # 1e-300 divides 1/2 to within 1e-9; 5e-324 makes 0.5/grid_step inf
    for step in (1e-300, 5e-324, 4.99e-7):
        with pytest.raises(ValueError, match="GRID_POINT_CAP = 1000000 grid"):
            certify_modularity_bound(grid_step=step, with_trace=True)
    # the cap counts points: at a cap of 10, ten points run and eleven do not
    monkeypatch.setattr(certify, "GRID_POINT_CAP", 10)
    monkeypatch.setattr(
        certify, "_certified_js", lambda us, precision: np.full(len(us), 10_000)
    )
    assert len(certify_modularity_bound(grid_step=0.05, with_trace=True).trace) == 10
    with pytest.raises(ValueError, match="GRID_POINT_CAP = 10 grid"):
        certify_modularity_bound(grid_step=0.5 / 11)


def test_certify_default_bound_is_the_modularity_constant():
    assert certify_modularity_bound().bound == MODULARITY_CONSTANT


def test_certify_blocks_join_into_one_grid(monkeypatch):
    # blocks of 7 points: the minimum is the first one across blocks, and
    # the trace is one table of rows whatever the block size
    whole = certify_modularity_bound(grid_step=1e-3, with_trace=True)
    monkeypatch.setattr(certify, "_BLOCK", 7)
    blocked = certify_modularity_bound(grid_step=1e-3, with_trace=True)
    assert (blocked.bound, blocked.minimizer_u, blocked.minimizer_delta) == (
        whole.bound, whole.minimizer_u, whole.minimizer_delta
    )
    assert blocked.trace.shape == whole.trace.shape == (500, 3)
    assert np.array_equal(blocked.trace, whole.trace)
    for i in (0, 6, 7, 141, 499, -1, -500):
        assert np.array_equal(blocked.trace[i], whole.trace[i])
    assert np.array_equal(blocked.trace[3:40:9], whole.trace[3:40:9])
    with pytest.raises(IndexError):
        blocked.trace[500]


def test_certify_trace_is_a_read_only_float64_table():
    cert = certify_modularity_bound(grid_step=1e-3, with_trace=True)
    assert cert.trace.dtype == np.float64 and cert.trace.shape == (500, 3)
    assert not cert.trace.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cert.trace[0, 0] = 1.0
    # row s - 1 is (u_s, delta_s, term_s)
    s = np.arange(1, 501)
    assert np.array_equal(cert.trace[:, 0], s * 1e-3)
    deltas = cert.trace[:, 1]
    assert np.array_equal(cert.trace[:, 2], deltas / (2 + deltas) + (s - 1) * 1e-3 / 2)


def test_certificates_of_one_grid_compare_and_hash_equal():
    # the trace is left out of ==, hash and repr; a plain array field
    # would make == raise and hash() fail
    traced = certify_modularity_bound(grid_step=1e-3, with_trace=True)
    again = certify_modularity_bound(grid_step=1e-3, with_trace=True)
    bare = certify_modularity_bound(grid_step=1e-3)
    assert traced == again == bare
    assert hash(traced) == hash(again) == hash(bare)
    assert repr(traced) == repr(bare) and "trace" not in repr(traced)
    assert traced != certify_modularity_bound(grid_step=1e-4)


# --------------------------------------------------- complement coverage


def test_complement_domination_equality_at_half():
    for delta in (0.0, 0.1, 0.14851, 0.5, 1.0):
        lhs = delta / (2 + delta) + 0.25
        rhs = delta * 0.5 / (2 * 0.5 + delta * 0.5) + 0.25
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert complement_term_dominates(0.5, delta)


def test_complement_domination_off_half_is_strict():
    assert complement_term_dominates(0.2, 0.14851)
    gap = complement_gap_grid(np.array([0.2]), np.array([0.14851]))[0, 0]
    assert gap > 0


def test_complement_gap_grid_nonnegative():
    us = np.arange(1e-3, 0.5 + 1e-9, 1e-3)
    deltas = np.arange(0.0, 1.0 + 1e-9, 1e-2)
    gaps = complement_gap_grid(us, deltas)
    assert gaps.shape == (len(deltas), len(us))
    assert gaps.min() >= -1e-12


def test_complement_validation():
    with pytest.raises(ValueError):
        complement_term_dominates(0.6, 0.1)
    with pytest.raises(ValueError):
        complement_term_dominates(0.5, 1.5)


# -------------------------------------------------------- the constants


def test_expansion_constant_anchor():
    assert check_expansion_constant()
    assert check_expansion_constant(0.03418)
    assert expansion_constant_value(0.03418) == pytest.approx(1.99984, abs=1e-5)
    for eta in (0.03419, 0.0342, 0.035, 0.2):
        assert not check_expansion_constant(eta)
    # the value really crosses 2 between the two neighbors
    assert expansion_constant_value(0.03418) < 2 < expansion_constant_value(0.03419)


def test_expansion_constant_matches_delta_hat():
    # the certified constant is exactly delta_hat at u = 1/2
    assert max_certified_delta(0.5) == pytest.approx(0.03418, abs=1e-12)


def test_large_h_comparator():
    assert large_h_modularity_bound(2) == pytest.approx(2.0794415416798357)
    vals = [large_h_modularity_bound(h) for h in range(3, 60)]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing past e
    assert large_h_modularity_bound(3) > large_h_modularity_bound(2)
    with pytest.raises(ValueError):
        large_h_modularity_bound(1)


# ------------------------------------------- oracle: the separate formulas
#
# Each rate and complement formula below was once written out on its own
# in pamod.certify.  They are kept verbatim so that the shared
# definitions are held to the same floats and the same decisions.


def _ref_check_rate_condition(h: int, u: float, x: float) -> bool:
    """Strict log-space test of (e/(u x))^(2 h x) < (1/u)^(h-1)."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 0 < x <= 1:
        raise ValueError(f"need 0 < x <= 1, got {x}")
    return 2.0 * h * x * (1.0 - math.log(u * x)) < (h - 1.0) * (-math.log(u))


def _ref_rate_condition_value(h: int, u: float, x: float) -> float:
    """(e/(u x))^(2 h x), for reporting."""
    return math.exp(2.0 * h * x * (1.0 - math.log(u * x)))


def _ref_max_certified_delta(u: float, precision: float = 1e-5) -> float:
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 0 < precision <= 0.25:
        raise ValueError(f"need 0 < precision <= 1/4, got {precision}")

    def ok(j: int) -> bool:
        d = j * precision
        return 4.0 * d * (1.0 - math.log(u * d)) < -math.log(u)

    j_max = int(math.floor(0.25 / precision))
    while j_max * precision >= 0.25:
        j_max -= 1
    if j_max < 1:
        raise ValueError(f"precision {precision} leaves no admissible multiples")
    if not ok(1):
        raise ValueError(f"no multiple of {precision} certifiable at u={u}")
    if ok(j_max):
        return j_max * precision
    lo, hi = 1, j_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo * precision


def _ref_expansion_constant_value(eta: float) -> float:
    """(2e/eta)^(4 eta), the h = 2 witness value for the constant eta."""
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    return math.exp(4.0 * eta * (math.log(2.0) + 1.0 - math.log(eta)))


def _ref_check_expansion_constant(eta: float = 0.03418) -> bool:
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    return 4.0 * eta * (math.log(2.0) + 1.0 - math.log(eta)) < math.log(2.0)


def _ref_log_tail_term(params: TailParams, k: int) -> float:
    """ln f(k) for integer 1 <= k <= n/2."""
    if not 1 <= k or 2 * k > params.n:
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={params.n}")
    a = params.alpha_hat
    h = params.h
    n = params.n
    return (
        math.log(a * k)
        + 2.0 * a * k * (1.0 + math.log(h / a))
        + (h - 1.0 - 2.0 * a) * k * math.log(k / n)
    )


def _ref_complement_term_dominates(
    u: float, delta: float, slack: float = 1e-12
) -> bool:
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 0 <= delta <= 1:
        raise ValueError(f"need 0 <= delta <= 1, got {delta}")
    lhs = delta / (2.0 + delta) + u / 2.0
    rhs = delta * u / (2.0 * (1.0 - u) + delta * u) + (1.0 - u) / 2.0
    return lhs <= rhs + slack


@pytest.mark.parametrize("grid_step", [1e-4, 1e-3, 2.5e-5])
def test_certify_trace_matches_reference_formulas(grid_step):
    trace = certify_modularity_bound(grid_step=grid_step, with_trace=True).trace
    steps = round(0.5 / grid_step)
    assert len(trace) == steps
    for s, (u_s, delta, term) in enumerate(trace, start=1):
        assert u_s == s * grid_step
        assert delta == _ref_max_certified_delta(u_s)
        assert term == delta / (2.0 + delta) + (s - 1) * grid_step / 2.0
    for u_s, delta, _term in trace[:: steps // 50]:
        for h in (2, 3, 5):
            for x in (delta, delta + 1e-5, 0.5 * delta, 0.25):
                assert check_rate_condition(h, u_s, x) == _ref_check_rate_condition(
                    h, u_s, x
                )
                assert rate_condition_value(h, u_s, x) == _ref_rate_condition_value(
                    h, u_s, x
                )


ETA_PROBES = (0.03418, 0.034185, 0.0341855, 0.03419, 0.0342, 0.035, 0.2)


@pytest.mark.parametrize("eta", ETA_PROBES)
def test_expansion_constant_matches_reference_formulas(eta):
    assert check_expansion_constant(eta) == _ref_check_expansion_constant(eta)
    assert expansion_constant_value(eta) == _ref_expansion_constant_value(eta)
    # of the probes, only the published constant passes
    assert check_expansion_constant(eta) == (eta == 0.03418)


def test_certify_command_output_is_pinned(tmp_path):
    from pamod.cli import main

    out = tmp_path / "certify.json"
    assert main(["certify", "--out", str(out)]) == 0
    assert out.read_text() == (
        '{"bound": 0.92383, "minimizer_u": 0.0142, "minimizer_delta": 0.14851, '
        '"grid_step": 0.0001, "delta_precision": 1e-05, "constant_ok": true, '
        '"constant_value": 1.99984458655}\n'
    )


def test_log_tail_term_is_the_vector_form_and_matches_reference():
    # np.log and math.log may differ in the last bit, so the scalar form,
    # now read off the vector form, keeps to the reference within 1e-13
    for h, alpha_hat, n in [(2, 0.06836, 1000), (3, 0.5, 200), (12, 5.4, 10_000)]:
        params = TailParams(h=h, alpha_hat=alpha_hat, n=n, u=0.5)
        ks = np.arange(1, n // 2 + 1)
        vec = log_tail_terms(params, ks)
        for k in range(1, n // 2 + 1, 7):
            got = log_tail_term(params, k)
            assert got == vec[k - 1]
            assert got == pytest.approx(_ref_log_tail_term(params, k), rel=1e-13)


def test_complement_forms_match_reference_formulas():
    us = np.arange(1, 501) / 1000.0
    deltas = np.arange(0, 101) / 100.0
    gaps = complement_gap_grid(us, deltas)
    for i, delta in enumerate(deltas.tolist()):
        for j, u in enumerate(us.tolist()):
            want = _ref_complement_term_dominates(u, delta)
            assert complement_term_dominates(u, delta) == want
            lhs = delta / (2.0 + delta) + u / 2.0
            rhs = delta * u / (2.0 * (1.0 - u) + delta * u) + (1.0 - u) / 2.0
            assert gaps[i, j] == rhs - lhs


# ------------------------------------------ the blocked search against math.log


def _root_x(u: float) -> float:
    """Largest float x in (0, 1/4) where the scalar h = 2 condition holds,
    by bisection over the bit patterns of positive doubles."""
    lo, hi = np.float64(1e-300).view(np.int64), np.float64(0.25).view(np.int64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certify._rate_holds(2, u, float(np.int64(mid).view(np.float64))):
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64))


def test_vector_rate_decisions_near_the_root_are_rechecked(monkeypatch):
    calls = []
    scalar = certify._rate_holds

    def counting(h, u, x):
        calls.append((u, x))
        return scalar(h, u, x)

    us, xs = [], []
    for u in (0.5, 0.25, 0.0142, 1e-3, 1e-6, 1e-30):
        x = _root_x(u)
        for k in range(-6, 7):
            us.append(u)
            xs.append(float(np.float64(x) + k * np.spacing(x)))
    us, xs = np.array(us), np.array(xs)
    monkeypatch.setattr(certify, "_rate_holds", counting)
    got = certify._rate_holds_h2(us, xs)
    monkeypatch.undo()
    assert len(calls) == len(us)  # each near-root decision was the scalar's
    assert got.tolist() == [certify._rate_holds(2, u, x) for u, x in zip(us, xs)]
    # far from the root nothing is rechecked
    calls.clear()
    monkeypatch.setattr(certify, "_rate_holds", counting)
    certify._rate_holds_h2(us, xs / 2)
    assert calls == []


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@given(
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    st.floats(min_value=1e-7, max_value=0.25),
)
@example(5e-324, 0.125)
@example(1e-320, 1e-5)
@example(0.5, 0.1)
@example(2e-5, 0.1)
def test_max_certified_delta_matches_the_scalar_search(u, precision):
    # the refusals match too: where u*d underflows to 0 both meet
    # math.log's domain error, and at u = 1/2 precision 0.1 certifies none
    assert _outcome(max_certified_delta, u, precision) == _outcome(
        _ref_max_certified_delta, u, precision
    )


def test_np_log_stays_within_the_recheck_budget():
    # the recheck tolerance assumes np.log within _LOG_ULP_BUDGET ulp of
    # math.log on the rate condition's inputs, all in (0, 1/2]
    rng = np.random.default_rng(20)
    top = int(np.float64(0.5).view(np.int64))
    xs = rng.integers(1, top + 1, 10**6).view(np.float64)
    want = np.array([math.log(x) for x in xs.tolist()])
    ulps = np.abs(np.log(xs) - want) / np.spacing(np.abs(want))
    assert ulps.max() <= certify._LOG_ULP_BUDGET
    # a flip needs a gap within (4 b + 4) unit roundoffs; the tolerance is wider
    assert (4 * certify._LOG_ULP_BUDGET + 4) * 2.0**-53 < certify._RECHECK_RTOL


# ----------------------------- the Newton-started search against the bisection


def _bisected_js(us: np.ndarray, precision: float) -> np.ndarray:
    """The lock-step bisection from [1, j_max] at every point, as
    ``certify._certified_js`` ran before its brackets started from a
    float root; kept verbatim but for the module prefixes."""
    if not 2.0**-55 <= precision <= 0.25:
        raise ValueError(f"need 2^-55 <= precision <= 1/4, got {_shown(precision, str)}")
    j_max = int(math.floor(0.25 / precision))
    while j_max * precision >= 0.25:
        j_max -= 1
    if j_max < 1:
        raise ValueError(f"precision {precision} leaves no admissible multiples")
    fails = np.flatnonzero(~certify._rate_holds_h2(us, np.full(us.shape, precision)))
    if fails.size:
        u = float(us[fails[0]])
        raise ValueError(f"no multiple of {precision} certifiable at u={u}")
    lo = np.ones(us.shape, np.int64)
    hi = np.full(us.shape, j_max, np.int64)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live] + 1) // 2
        ok = certify._rate_holds_h2(us[live], mid * precision)
        lo[live[ok]] = mid[ok]
        hi[live[~ok]] = mid[~ok] - 1
        live = live[lo[live] < hi[live]]
    return lo


def _grid_blocks(grid_step: float):
    """The u arrays ``certify_modularity_bound`` hands ``_certified_js``."""
    steps = round(0.5 / grid_step)
    for start in range(0, steps, certify._BLOCK):
        yield np.arange(start + 1, min(start + certify._BLOCK, steps) + 1) * grid_step


def _counted_rate_calls(monkeypatch):
    """Patch ``_rate_holds_h2`` to log the point count of each call."""
    sizes = []
    vector = certify._rate_holds_h2

    def counting(us, xs):
        sizes.append(len(us))
        return vector(us, xs)

    monkeypatch.setattr(certify, "_rate_holds_h2", counting)
    return sizes


PRECISIONS = [1e-3, 1e-5, 1e-7, 1e-10, 1e-13, 1e-15, 2.0**-55]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("grid_step", [1e-4, 1e-3, 2.5e-5])
def test_certified_js_equal_the_full_bisection_on_the_pinned_grids(grid_step, precision):
    for us in _grid_blocks(grid_step):
        assert np.array_equal(
            certify._certified_js(us, precision), _bisected_js(us, precision)
        )


def _js_outcome(fn, us, precision):
    try:
        return fn(us, precision).tolist()
    except ValueError as exc:
        return str(exc)


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.5, exclude_min=True), min_size=1, max_size=40),
    st.one_of(st.sampled_from(PRECISIONS), st.floats(min_value=1e-9, max_value=0.25)),
)
@example([5e-324, 0.5], 1e-5)
@example([1e-300, 1e-30, 1e-6], 0.0625)
def test_certified_js_equal_the_full_bisection_on_random_points(us, precision):
    us = np.array(us)
    assert _js_outcome(certify._certified_js, us, precision) == _js_outcome(
        _bisected_js, us, precision
    )


def test_a_verified_start_leaves_the_bisection_nothing_to_do(monkeypatch):
    # one pass for the precision check, two to verify j0 and j0 + 1; the
    # full bisection at precision 1e-5 takes 16 more
    sizes = _counted_rate_calls(monkeypatch)
    certify_modularity_bound()
    assert sizes == [5000, 5000, 5000]
    # where every point's answer is j_max = 3 (j_max + 1 is not a multiple
    # below 1/4, so it is never asked), j0 = j_max is verified by itself
    us = np.logspace(-30, -6, 200)
    sizes.clear()
    got = certify._certified_js(us, 0.0625)
    assert got.tolist() == [3] * 200 and len(sizes) == 3


def test_points_whose_start_fails_verification_take_the_full_bracket(monkeypatch):
    # at precision 1e-15 a multiple is a few float spacings of d, so the
    # float root lands on the wrong multiple at a few points; those (and
    # only those) bisect from [1, j_max], to the same answers
    us = next(_grid_blocks(1e-4))
    sizes = _counted_rate_calls(monkeypatch)
    got = certify._certified_js(us, 1e-15)
    assert len(sizes) > 3 and 0 < sizes[3] < len(us) // 20
    monkeypatch.undo()
    assert np.array_equal(got, _bisected_js(us, 1e-15))


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_a_poor_float_start_costs_passes_not_answers(steps, monkeypatch):
    # with too few Newton steps j0 falls short of the answer; the j0 + 1
    # check sends those points to the full bracket
    monkeypatch.setattr(certify, "_NEWTON_CAP", steps)
    for precision in (1e-3, 1e-5, 1e-10):
        us = next(_grid_blocks(1e-4))
        assert np.array_equal(
            certify._certified_js(us, precision), _bisected_js(us, precision)
        )
