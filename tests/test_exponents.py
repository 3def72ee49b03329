"""Dual/primal exponent evaluation and the metric-capacity criterion."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp, rel_entr, xlogy

from codemismatch import (ChannelSpecError, DecodingMetric,
                          DimensionTooLargeError, Dmc, ExponentCurve,
                          FixedPoint,
                          InputDist, MetricSupportError, RatePoint, er_cc_dual,
                          er_cc_primal, er_mismatch_dual,
                          er_mismatch_primal_oracle, map_capacity_gap,
                          map_metric, ml_metric, mutual_information, posterior,
                          sweep_curve, tilt_metric)
from codemismatch import exponents
from codemismatch.exponents import PG_TOL, _MismatchProblem, _logsumexp, as_rate
from conftest import random_triple

BSC01 = np.array([[0.9, 0.1], [0.1, 0.9]])


def bsc(delta: float) -> Dmc:
    return Dmc(input_size=2, output_size=2,
               w=np.array([[1 - delta, delta], [delta, 1 - delta]]))


# ---------------------------------------------------------------- RatePoint

def test_rate_point_from_code_params():
    p = InputDist(p=np.array([0.05, 0.45, 0.45, 0.05]))
    rp = RatePoint.from_code_params(p, m=2, r_fec=0.75)
    assert rp.rate_bits == pytest.approx(p.entropy_bits - 2 * 0.25, abs=1e-12)
    # R <= m * r_fec, strictly unless P_X is uniform
    assert rp.rate_bits < 2 * 0.75
    uni = InputDist(p=np.full(4, 0.25))
    assert RatePoint.from_code_params(uni, m=2, r_fec=0.75).rate_bits == \
        pytest.approx(1.5, abs=1e-12)


def test_rate_point_rejects_negative():
    with pytest.raises(ChannelSpecError):
        RatePoint(rate_bits=-0.1)
    p = InputDist(p=np.array([0.99, 0.01]))
    with pytest.raises(ChannelSpecError):
        RatePoint.from_code_params(p, m=1, r_fec=0.05)


def test_as_rate_passthrough():
    rp = RatePoint(rate_bits=0.3)
    assert as_rate(rp) is rp
    assert as_rate(0.3).rate_bits == 0.3


# ------------------------------------------------------------ _logsumexp

@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [None, 0, 1, 2])
def test_logsumexp_matches_scipy(axis, keepdims):
    rng = np.random.default_rng(12)
    a = rng.normal(0.0, 30.0, size=(3, 4, 5))
    a[rng.random(a.shape) < 0.2] = -np.inf
    got = _logsumexp(a, axis=axis, keepdims=keepdims)
    want = logsumexp(a, axis=axis, keepdims=keepdims)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)


def test_logsumexp_infinite_slices():
    a = np.array([[-np.inf, 0.5, -np.inf],
                  [-np.inf, np.inf, 1.0],
                  [-np.inf, -1.0, 2.0]])
    for axis in (0, 1):
        got = _logsumexp(a, axis=axis)
        np.testing.assert_array_equal(got, logsumexp(a, axis=axis))
    assert _logsumexp(a, axis=0)[0] == -np.inf
    assert _logsumexp(a, axis=0)[1] == np.inf
    assert _logsumexp(a) == np.inf
    assert _logsumexp(np.full((2, 2), -np.inf)) == -np.inf


# ------------------------------------------------------- er_mismatch_dual

@pytest.mark.parametrize("rate, value", [(0.1, 0.19980289551294383),
                                         (0.2, 0.10657890488974386),
                                         (0.3, 0.04451325185483512)])
def test_mismatch_dual_pinned_values(paper_channel, rate, value):
    ch, p = paper_channel
    res = er_mismatch_dual(ch, p, map_metric(p, ch), rate)
    assert res.value_bits == pytest.approx(value, abs=1e-12)


def test_mismatch_dual_exactly_zero_above_capacity():
    """A maximizer below the rho floor clamps to 0, not to round-off."""
    ch, p, u = random_triple(np.random.default_rng(13))
    res = er_mismatch_dual(ch, p, u, 1.02 * mutual_information(p, ch))
    assert res.value_bits == 0.0
    assert res.rho_star == 0.0
    assert res.diagnostics["clamped"] is True



def test_mismatch_dual_map_exactly_zero_at_capacity_random():
    """At R = I(X;Y) the MAP metric's maximizer is the rho = 0 boundary;
    the exponent must come back as 0, not as round-off above it."""
    for seed in range(40):
        ch, p, _ = random_triple(np.random.default_rng(seed))
        res = er_mismatch_dual(ch, p, map_metric(p, ch),
                               mutual_information(p, ch))
        assert res.value_bits == 0.0, f"seed {seed}: {res.value_bits:.3g}"


def test_mismatch_dual_rate_slope_bound(paper_channel):
    """rho <= 1 makes E(R) >= E(R0) - (R - R0) for R > R0, whatever the
    solver; a search stalled on the rho = 1 face breaks it."""
    ch, p = paper_channel
    u = map_metric(p, ch)
    rates = np.concatenate([[0.1, 0.102], np.linspace(0.05, 0.45, 81)])
    for r0, r1 in zip(rates, rates[1:]):
        if r1 <= r0:
            continue
        e0 = er_mismatch_dual(ch, p, u, r0).value_bits
        e1 = er_mismatch_dual(ch, p, u, r1).value_bits
        assert e1 >= e0 - (r1 - r0) - 1e-12, \
            f"E({r1:g}) = {e1!r} < E({r0:g}) - {r1 - r0:g}"


def _central_gradient(prob, rho, that, h=1e-6):
    f = lambda q, t: prob.value(q, t / q)
    return np.array([(f(rho + h, that) - f(rho - h, that)) / (2 * h),
                     (f(rho, that + h) - f(rho, that - h)) / (2 * h)])


def _gradient_cases():
    rng = np.random.default_rng(31)
    for _ in range(6):
        ch, p, u = random_triple(rng)
        r = float(rng.uniform(0.0, p.entropy_bits))
        yield ch, p, u, r, float(rng.uniform(0.05, 0.95)), \
            float(rng.uniform(0.05, 3.0))
        yield ch, p, u, r, 0.4, 1e-4          # near theta = 0
        yield ch, p, u, r, 1.0, float(rng.uniform(0.1, 2.0))  # rho = 1
    # metric zero exactly where the channel is
    w = np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.2, 0.0, 0.8]])
    u = np.where(w > 0, rng.uniform(0.1, 1.0, w.shape), 0.0)
    ch = Dmc(input_size=4, output_size=3, w=np.vstack([w, [1/3] * 3]))
    p = InputDist(p=np.array([0.3, 0.3, 0.4, 0.0]))
    um = DecodingMetric(u=np.vstack([u, [0.5, 0.5, 0.5]]), name="sparse")
    for rho, that in ((0.3, 0.5), (1.0, 2.0), (0.6, 1e-4)):
        yield ch, p, um, 0.1, rho, that


@pytest.mark.parametrize("case", list(_gradient_cases()))
def test_mismatch_value_grad_matches_central_differences(case):
    ch, p, u, r, rho, that = case
    prob = _MismatchProblem(ch, p, u, as_rate(r))
    val, grad = prob.value_grad(rho, that)
    assert val == pytest.approx(prob.value(rho, that / rho), abs=1e-13)
    np.testing.assert_allclose(grad, _central_gradient(prob, rho, that),
                               rtol=1e-6, atol=1e-8)


def test_mismatch_dual_solver_diagnostics(paper_channel):
    ch, p = paper_channel
    res = er_mismatch_dual(ch, p, map_metric(p, ch), 0.25)
    d = res.diagnostics
    assert d["iterations"] >= 1 and d["evaluations"] > d["iterations"]
    assert isinstance(d["message"], str) and d["message"]
    assert 0.0 <= d["projected_gradient"] <= PG_TOL
    assert d["theta_at_boundary"] is False and d["clamped"] is False
    assert d["grid_max"] <= res.value_bits


def test_mismatch_dual_theta_at_boundary(monkeypatch):
    """On a noiseless channel with a graded metric the objective rises
    with theta without bound, so theta_hat ends on its upper bound and
    the result must say so."""
    monkeypatch.setattr(exponents, "THETA_HAT_MAX", 10.0)
    ch = Dmc(input_size=2, output_size=2, w=np.eye(2))
    p = InputDist(p=np.array([0.5, 0.5]))
    u = DecodingMetric(u=np.array([[1.0, 0.5], [0.5, 1.0]]), name="graded")
    res = er_mismatch_dual(ch, p, u, 0.3)
    assert res.diagnostics["theta_at_boundary"] is True
    assert res.rho_star == 1.0
    # 1 - R + log2 U_theta(x|x) at theta = 10
    assert res.value_bits == pytest.approx(0.7 - math.log2(1.0 + 0.5 ** 10),
                                           abs=1e-12)


def test_mismatch_dual_nearly_flat_metric():
    """Tilting is scale-free: a metric whose scores differ by 1e-7 has
    the same exponent as any graded one on a noiseless channel, the sup
    1 - R approached as theta -> infinity."""
    ch = Dmc(input_size=2, output_size=2, w=np.eye(2))
    p = InputDist(p=np.array([0.5, 0.5]))
    for eps in (1e-7, 1e-5, 0.5):
        u = DecodingMetric(u=np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]]),
                           name="flat")
        res = er_mismatch_dual(ch, p, u, 0.3)
        assert res.value_bits == pytest.approx(0.7, abs=1e-12), f"eps={eps}"


def test_mismatch_dual_nonnegative_random():
    rng = np.random.default_rng(10)
    for _ in range(12):
        ch, p, u = random_triple(rng)
        r = float(rng.uniform(0.0, p.entropy_bits))
        res = er_mismatch_dual(ch, p, u, r)
        assert res.value_bits >= 0.0
        assert 0.0 <= res.rho_star <= 1.0


def test_mismatch_dual_map_at_capacity(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    res = er_mismatch_dual(ch, p, map_metric(p, ch), mi)
    assert res.value_bits <= 1e-6, f"MAP at R=I gave {res.value_bits:.3e}"


def test_mismatch_dual_monotone_in_rate(paper_channel):
    ch, p = paper_channel
    u = map_metric(p, ch)
    vals = [er_mismatch_dual(ch, p, u, r).value_bits
            for r in np.linspace(0.02, 0.6, 8)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_mismatch_dual_metric_equivalence(paper_channel):
    ch, p = paper_channel
    u = map_metric(p, ch)
    rng = np.random.default_rng(11)
    a = rng.uniform(0.5, 2.0, size=ch.output_size)
    for c in (0.5, 1.0, 2.3):
        scaled = DecodingMetric(u=a[None, :] * u.u ** c, name="scaled")
        for r in (0.1, 0.3):
            base = er_mismatch_dual(ch, p, u, r).value_bits
            got = er_mismatch_dual(ch, p, scaled, r).value_bits
            assert got == pytest.approx(base, abs=1e-9), \
                f"a(y)*U^{c} changed the exponent at R={r}: {base} vs {got}"


def test_mismatch_dual_incompatible_support():
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    u = DecodingMetric(u=np.array([[0.0, 1.0], [1.0, 0.0]]), name="anti")
    with pytest.raises(MetricSupportError):
        er_mismatch_dual(ch, p, u, 0.2)


def test_mismatch_dual_concavity_grid(paper_channel):
    """No (rho, theta) grid point may beat the optimizer's maximum."""
    ch, p = paper_channel
    u = map_metric(p, ch)
    rate = as_rate(0.25)
    res = er_mismatch_dual(ch, p, u, rate)
    prob = _MismatchProblem(ch, p, u, rate)
    rhos = np.linspace(0.01, 1.0, 34)
    thetas = np.logspace(-2, 2, 41)
    grid = prob.value_grid(rhos, thetas)
    assert np.nanmax(grid) <= res.value_bits + 1e-6


def test_mismatch_dual_matches_oracle_binary_ml():
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    u = ml_metric(ch)
    dual = er_mismatch_dual(ch, p, u, 0.2).value_bits
    oracle = er_mismatch_primal_oracle(ch, p, u, 0.2, grid_step=1e-2).value_bits
    assert abs(dual - oracle) <= 3e-2
    assert dual > 0.05  # the regime is non-degenerate


# ------------------------------------------------------------- cc exponent

def test_cc_dual_zero_at_capacity(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    assert er_cc_dual(ch, p, mi).value_bits <= 1e-6
    assert er_cc_dual(ch, p, mi + 0.1).value_bits <= 1e-9


def test_cc_primal_dual_agree_bsc_at_zero_rate():
    ch = bsc(0.2)
    p = InputDist(p=np.array([0.5, 0.5]))
    d = er_cc_dual(ch, p, 0.0).value_bits
    pr = er_cc_primal(ch, p, 0.0).value_bits
    assert d == pytest.approx(pr, abs=1e-6)


def test_cc_primal_dual_agree_on_shaped_channel(paper_channel):
    ch, p = paper_channel
    for r in (0.05, 0.2, 0.35):
        d = er_cc_dual(ch, p, r).value_bits
        pr = er_cc_primal(ch, p, r).value_bits
        assert d == pytest.approx(pr, abs=1e-4), f"R={r}: dual {d} primal {pr}"


def test_cc_primal_feasible_upper_bound(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    for r in (0.1, 0.4, mi, 0.8):
        v = er_cc_primal(ch, p, r).value_bits
        assert v <= max(mi - r, 0.0) + 1e-7  # Q = W is feasible
        assert v >= -1e-12


def test_cc_primal_duality_gap_certificate(paper_channel):
    """The primal's own Frank-Wolfe lower bound meets its value within
    1e-7 at the bundled channel's 9 rates and on the A5 corpus."""
    for ch, p, r in _certificate_cases(paper_channel):
        gap = er_cc_primal(ch, p, r).diagnostics["duality_gap"]
        assert 0.0 <= gap <= 1e-7, f"R={r:.4f}: duality gap {gap:.2e}"


def test_cc_primal_matches_dual_below_critical_rate():
    """At 0.08-0.16 I(X;Y), the benchmark's primal band, on 20 random
    triples."""
    rng = np.random.default_rng(2024)
    for i in range(20):
        ch, p, _ = random_triple(rng)
        r = float(rng.uniform(0.08, 0.16) * mutual_information(p, ch))
        pr = er_cc_primal(ch, p, r).value_bits
        d = er_cc_dual(ch, p, r).value_bits
        assert abs(pr - d) <= 1e-9, f"case {i}: primal {pr} dual {d}"


def test_cc_primal_independent_of_dual(monkeypatch, paper_channel):
    def no_dual(*args, **kwargs):
        raise AssertionError("the primal called the dual form")
    monkeypatch.setattr(exponents, "_e0cc", no_dual)
    monkeypatch.setattr(exponents, "er_cc_dual", no_dual)
    ch, p = paper_channel
    for r in (0.1, 0.35):  # below and above the critical rate
        res = er_cc_primal(ch, p, r)
        assert res.value_bits > 0.0
        assert res.diagnostics["duality_gap"] <= 1e-7


def test_cc_primal_exactly_zero_from_capacity_up(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    for r in (mi, mi + 0.1, p.entropy_bits + 0.1):
        res = er_cc_primal(ch, p, r)
        assert res.value_bits == 0.0
        assert res.diagnostics["duality_gap"] == 0.0


def test_cc_primal_bsc_against_exhaustive_grid():
    """2x2 conditional grid at step 1e-3 brackets the solver output."""
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    rate = 0.3
    got = er_cc_primal(ch, p, rate).value_bits

    g = np.linspace(0.0, 1.0, 1001)
    a, b = np.meshgrid(g, g, indexing="ij")  # Q(y=0|x=0), Q(y=0|x=1)
    ln2 = math.log(2.0)
    d = (0.5 * (rel_entr(a, 0.9) + rel_entr(1 - a, 0.1))
         + 0.5 * (rel_entr(b, 0.1) + rel_entr(1 - b, 0.9))) / ln2
    marg = 0.5 * a + 0.5 * b
    h = lambda t: -(xlogy(t, t) + xlogy(1 - t, 1 - t)) / ln2
    iq = h(marg) - 0.5 * h(a) - 0.5 * h(b)
    grid_min = float(np.min(d + np.maximum(iq - rate, 0.0)))
    assert abs(got - grid_min) <= 2e-3
    assert got <= grid_min + 1e-9  # solver at least as good as the grid


def test_cc_dual_diagnostics(paper_channel):
    ch, p = paper_channel
    res = er_cc_dual(ch, p, 0.25)
    assert 0.0 <= res.rho_star <= 1.0
    assert res.diagnostics["v_star"] is not None
    v = np.asarray(res.diagnostics["v_star"])
    assert v.shape == (ch.output_size,)
    assert abs(v.sum() - 1.0) < 1e-9


def test_cc_dual_z_star_is_the_fixed_point(paper_channel):
    """z_star solves the Z_rho system and v_star is the V it implies,
    on the bundled channel, random triples and channels with zeros."""
    cases = [(*paper_channel, float(r)) for r in np.arange(0.05, 0.46, 0.05)]
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch, p, _ = random_triple(rng)
        cases.append((ch, p, 0.5 * mutual_information(p, ch)))
    for w, pv in ((np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6]]), [0.4, 0.6]),
                  (np.array([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]]), [0.5, 0.5])):
        ch = Dmc(input_size=2, output_size=3, w=w)
        p = InputDist(p=np.array(pv))
        cases += [(ch, p, f * mutual_information(p, ch)) for f in (0.1, 0.6)]
    for ch, p, r in cases:
        res = er_cc_dual(ch, p, r)
        fp = FixedPoint.from_z(ch, p, res.rho_star, res.diagnostics["z_star"])
        assert fp.residual < 1e-12, f"R={r:.4f}: residual {fp.residual:.2e}"
        assert np.max(np.abs(fp.v - res.diagnostics["v_star"])) <= 1e-12


def _certificate_cases(paper_channel):
    """The bundled channel's rates 0.05...0.45 and the A5 corpus."""
    cases = [(*paper_channel, float(r)) for r in np.arange(0.05, 0.46, 0.05)]
    rng = np.random.default_rng(77)  # the A5 corpus draws
    for _ in range(20):
        ch, p, _ = random_triple(rng)
        mi = mutual_information(p, ch)
        cases.append((ch, p,
                      float(rng.uniform(0.2, 0.8) * mi) if mi > 1e-6 else 0.01))
    ch, p = paper_channel
    cases += [(ch, p, f * mutual_information(p, ch)) for f in (0.3, 0.6)]
    return cases


def test_cc_dual_duality_gap_certificate(paper_channel):
    """The primal objective at the returned tilted channel meets the
    dual value within 1e-12 at the bundled channel's 9 rates and on the
    A5 corpus."""
    for ch, p, r in _certificate_cases(paper_channel):
        gap = er_cc_dual(ch, p, r).diagnostics["duality_gap"]
        assert abs(gap) <= 1e-12, f"R={r:.4f}: duality gap {gap:.2e}"


def test_cc_dual_rate_slope_is_minus_rho_star(paper_channel):
    """Envelope theorem: dE_cc/dR = -rho_star. Below the critical rate
    rho_star is exactly 1."""
    ch, p = paper_channel
    h = 1e-4
    for r in (0.25, 0.30, 0.35, 0.40):
        slope = (er_cc_dual(ch, p, r + h).value_bits
                 - er_cc_dual(ch, p, r - h).value_bits) / (2 * h)
        rho = er_cc_dual(ch, p, r).rho_star
        assert 0.0 < rho < 1.0
        assert abs(slope + rho) <= 1e-6, f"R={r}: {slope} vs -{rho}"
    for r in (0.05, 0.10, 0.15, 0.20):
        assert er_cc_dual(ch, p, r).rho_star == 1.0


def test_cc_dual_exactly_zero_from_capacity_up(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    for r in (mi, mi + 0.1, p.entropy_bits + 0.1):
        res = er_cc_dual(ch, p, r)
        assert res.value_bits == 0.0 and res.rho_star == 0.0
        assert abs(res.diagnostics["duality_gap"]) <= 1e-12
        assert np.all(res.diagnostics["z_star"] == 1.0)


# ------------------------------------------------------------ primal oracle

def test_oracle_constant_metric_is_zero():
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    u = DecodingMetric(u=np.full((2, 2), 0.7), name="const")
    res = er_mismatch_primal_oracle(ch, p, u, 0.1, grid_step=1e-2)
    # every competitor conditional meets the constraint, so the inner
    # entropy max hits log2|X| and the bracket collapses at Q = W
    assert res.value_bits == pytest.approx(0.0, abs=1e-9)
    assert er_mismatch_dual(ch, p, u, 0.1).value_bits == 0.0


def test_oracle_nonnegative_and_bounds():
    rng = np.random.default_rng(12)
    ch, p, u = (None, None, None)
    while ch is None or ch.input_size != 2 or ch.output_size != 2:
        ch, p, u = random_triple(rng, max_out=2)
    res = er_mismatch_primal_oracle(ch, p, u, 0.2, grid_step=2e-2)
    assert res.value_bits >= 0.0
    assert res.diagnostics["grid_step"] == 2e-2


def test_oracle_size_cap():
    w = np.full((4, 4), 0.25)
    ch = Dmc(input_size=4, output_size=4, w=w)
    p = InputDist(p=np.full(4, 0.25))
    u = DecodingMetric(u=np.full((4, 4), 1.0), name="const")
    with pytest.raises(DimensionTooLargeError):
        er_mismatch_primal_oracle(ch, p, u, 0.2, grid_step=1e-2)


def test_oracle_rejects_bad_grid_step():
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    u = ml_metric(ch)
    with pytest.raises(ChannelSpecError):
        er_mismatch_primal_oracle(ch, p, u, 0.2, grid_step=0.0)


# --------------------------------------------------------- capacity gap

def test_capacity_gap_of_posterior(paper_channel):
    ch, p = paper_channel
    post = posterior(p, ch)
    t = tilt_metric(DecodingMetric(u=post.q, name="post"), 1.0)
    assert map_capacity_gap(ch, p, t) == pytest.approx(0.0, abs=1e-15)


def test_capacity_gap_map_tilt_zero(paper_channel):
    ch, p = paper_channel
    t = tilt_metric(map_metric(p, ch), 1.0)
    assert map_capacity_gap(ch, p, t) <= 1e-12


def test_capacity_gap_ml_positive_when_shaped(paper_channel):
    ch, p = paper_channel
    t = tilt_metric(ml_metric(ch), 1.0)
    assert map_capacity_gap(ch, p, t) > 1e-3


def test_capacity_gap_infinite_off_support():
    ch = bsc(0.1)
    p = InputDist(p=np.array([0.5, 0.5]))
    t = tilt_metric(DecodingMetric(u=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                   name="id"), 1.0)
    assert map_capacity_gap(ch, p, t) == math.inf


# ------------------------------------------------------------- sweep_curve

def test_sweep_single_rate_at_capacity(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    curve = sweep_curve(ch, p, [map_metric(p, ch)], [mi])
    assert curve.columns["map"][0] <= 1e-6
    assert curve.columns["cc_reference"][0] <= 1e-6


def test_sweep_optimal_reuses_cc_reference(paper_channel):
    ch, p = paper_channel
    rates = [0.1, 0.3]
    curve = sweep_curve(ch, p, ["optimal"], rates)
    want = [er_cc_dual(ch, p, r).value_bits for r in rates]
    np.testing.assert_array_equal(curve.columns["cc_reference"], want)


def test_sweep_empty_metric_list(paper_channel):
    ch, p = paper_channel
    curve = sweep_curve(ch, p, [], [0.1, 0.2, 0.3])
    assert list(curve.columns) == ["cc_reference"]


def test_sweep_csv_format(paper_channel):
    ch, p = paper_channel
    curve = sweep_curve(ch, p, [ml_metric(ch)], [0.1, 0.2])
    text = curve.to_csv_text(comment="cfg")
    lines = text.strip().split("\n")
    assert lines[0] == "# cfg"
    assert lines[1] == "rate,ml,cc_reference"
    assert len(lines) == 4
    cell = lines[2].split(",")[2]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_sweep_names_offender_on_error(paper_channel):
    ch, p = paper_channel
    u = DecodingMetric(u=np.where(ch.w > 0.5, 0.0, 1.0) + 1e-300, name="hostile")
    # make one input's metric vanish on the channel support entirely
    bad = np.array(ch.w)
    bad_u = np.zeros_like(bad)
    bad_u[:, :] = 1.0
    bad_u[0, :] = 0.0
    bad_u[0, 3] = 1.0  # only where W(y|x=0) = 0
    hostile = DecodingMetric(u=bad_u, name="hostile")
    with pytest.raises(MetricSupportError, match="hostile.*R=0.2|R=0.2.*hostile"):
        sweep_curve(ch, p, [hostile], [0.2])


def test_sweep_rejects_duplicate_names(paper_channel):
    ch, p = paper_channel
    with pytest.raises(ChannelSpecError):
        sweep_curve(ch, p, [ml_metric(ch), ml_metric(ch)], [0.2])


def test_curve_validates_monotonicity():
    with pytest.raises(ChannelSpecError):
        ExponentCurve(rates=np.array([0.1, 0.2]),
                      columns={"m": np.array([0.1, 0.2])})
    with pytest.raises(ChannelSpecError):
        ExponentCurve(rates=np.array([0.2, 0.1]),
                      columns={"m": np.array([0.2, 0.1])})
