"""Fixed-point solver, compensating metric, and saturation checks."""

import numpy as np
import pytest

from codemismatch import (ChannelSpecError, DecodingMetric, Dmc,
                          ExponentResult, FixedPoint, InputDist,
                          NonPositiveIterateError, SaturationError,
                          build_metric, er_cc_dual, er_mismatch_dual,
                          map_metric, ml_metric, mutual_information, posterior,
                          optimize_metric, solve_fixed_point,
                          verify_saturation)
from codemismatch import optimal_metric


def test_fixed_point_rho_zero_exact(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.0)
    assert np.all(fp.z[fp.support] == 1.0)
    assert fp.iterations == 0
    assert fp.residual < 1e-12


def test_fixed_point_residuals_small(paper_channel):
    ch, p = paper_channel
    for rho in np.linspace(0.0, 1.0, 11):
        fp = solve_fixed_point(ch, p, float(rho))
        assert fp.residual < 1e-10, f"rho={rho}: residual {fp.residual:.2e}"


def test_fixed_point_derived_relations(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.5)
    assert np.max(np.abs(fp.v ** (1 / 1.5) - fp.zeta)) < 1e-10
    rows = fp.w_tilde[fp.support].sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-10


def test_fixed_point_symmetric_channel_constant_z():
    ch = Dmc(input_size=2, output_size=2,
             w=np.array([[0.85, 0.15], [0.15, 0.85]]))
    p = InputDist(p=np.array([0.5, 0.5]))
    fp = solve_fixed_point(ch, p, 0.6)
    assert abs(fp.z[0] - fp.z[1]) < 1e-12


def test_fixed_point_deterministic(paper_channel):
    ch, p = paper_channel
    a = solve_fixed_point(ch, p, 0.37)
    b = solve_fixed_point(ch, p, 0.37)
    assert np.array_equal(a.z[a.support], b.z[b.support])
    assert a.iterations == b.iterations


def test_fixed_point_not_scale_free(paper_channel):
    """The map sends c*Z to c^-rho * map(Z): a rescaled solution is not
    a solution, so success cannot be judged after normalizing Z."""
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.5)
    scaled = FixedPoint.from_z(ch, p, 0.5, fp.z[fp.support] * 2.0)
    assert scaled.residual > 0.2
    assert fp.residual < 1e-10


def test_fixed_point_zero_mass_inputs_stripped():
    ch = Dmc(input_size=4, output_size=2,
             w=np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.5, 0.5]]))
    p = InputDist(p=np.array([0.6, 0.4, 0.0, 0.0]))
    fp = solve_fixed_point(ch, p, 0.5)
    assert np.isnan(fp.z[2]) and np.isnan(fp.z[3])
    u = build_metric(fp, p, ch)
    assert np.all(u.u[2:] == 0.0)
    assert np.max(np.abs(u.u.sum(axis=0) - 1.0)) < 1e-12


def test_fixed_point_validates_rho():
    ch = Dmc(input_size=2, output_size=2, w=np.array([[0.9, 0.1], [0.1, 0.9]]))
    p = InputDist(p=np.array([0.5, 0.5]))
    with pytest.raises(ChannelSpecError):
        solve_fixed_point(ch, p, 1.5)
    with pytest.raises(NonPositiveIterateError):
        FixedPoint.from_z(ch, p, 0.5, np.array([1.0, -1.0]))


def test_build_metric_rho_zero_is_posterior(paper_channel):
    ch, p = paper_channel
    u = build_metric(solve_fixed_point(ch, p, 0.0), p, ch)
    post = posterior(p, ch)
    assert np.max(np.abs(u.u - post.q)) < 1e-12


def test_metric_approaches_posterior_as_rho_vanishes(paper_channel):
    ch, p = paper_channel
    post = posterior(p, ch).q
    dists = []
    for rho in (0.1, 0.01, 0.001):
        u = build_metric(solve_fixed_point(ch, p, rho), p, ch)
        dists.append(np.max(np.abs(u.u - post)))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-3


def test_optimize_metric_above_entropy_shortcut(paper_channel):
    ch, p = paper_channel
    opt = optimize_metric(ch, p, p.entropy_bits + 0.1)
    assert opt.rho_star == 0.0
    assert opt.achieved_exponent == 0.0 and opt.cc_exponent == 0.0
    assert opt.saturation_gap == 0.0


def test_optimize_metric_at_capacity_recovers_map(paper_channel):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    opt = optimize_metric(ch, p, mi)
    post = posterior(p, ch).q
    assert np.max(np.abs(opt.metric.u - post)) < 1e-6
    assert opt.achieved_exponent <= 1e-9


def test_optimize_metric_never_beats_reference(paper_channel):
    ch, p = paper_channel
    for r in (0.1, 0.3):
        opt = optimize_metric(ch, p, r)
        assert opt.achieved_exponent <= opt.cc_exponent + 1e-9
        assert opt.saturation_gap <= 1e-6


def test_optimize_metric_bsc_equivalent_to_ml():
    """Uniform input on a symmetric channel: MAP = ML up to scale, so
    the compensator cannot beat (or trail) the ML metric's exponent."""
    ch = Dmc(input_size=2, output_size=2,
             w=np.array([[0.95, 0.05], [0.05, 0.95]]))
    p = InputDist(p=np.array([0.5, 0.5]))
    opt = optimize_metric(ch, p, 0.3)
    ml_val = er_mismatch_dual(ch, p, ml_metric(ch), 0.3).value_bits
    assert opt.achieved_exponent == pytest.approx(ml_val, abs=1e-8)


def test_optimize_metric_builds_at_cc_rho_star(paper_channel):
    ch, p = paper_channel
    for r in np.arange(0.05, 0.46, 0.05):
        opt = optimize_metric(ch, p, float(r))
        assert opt.rho_star == er_cc_dual(ch, p, float(r)).rho_star
        assert opt.fixed_point.rho == opt.rho_star
        assert opt.saturation_gap <= 1e-12, f"R={r:.2f}: {opt.saturation_gap}"


def test_optimize_metric_saturation_tol_enforced(paper_channel, monkeypatch):
    """A re-check that misses the cc exponent by more than the default
    tolerance raises."""
    ch, p = paper_channel

    def short_by_1e3(ch, p, u, rate):
        return ExponentResult(er_cc_dual(ch, p, rate).value_bits - 1e-3)

    monkeypatch.setattr(optimal_metric, "er_mismatch_dual", short_by_1e3)
    with pytest.raises(SaturationError):
        optimize_metric(ch, p, 0.25)


def test_optimize_metric_makes_no_second_solve(paper_channel, monkeypatch):
    """The metric is built from er_cc_dual's own z_star."""
    ch, p = paper_channel

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize_metric called solve_fixed_point")

    monkeypatch.setattr(optimal_metric, "solve_fixed_point", forbidden)
    mi = mutual_information(p, ch)
    for r in (0.1, 0.25, 0.4, mi, p.entropy_bits + 0.1):
        opt = optimize_metric(ch, p, r)
        assert opt.fixed_point.residual < 1e-12
    post = posterior(p, ch).q
    assert np.max(np.abs(optimize_metric(ch, p, mi).metric.u - post)) <= 1e-12


def test_verify_saturation_passes_on_matched_pair(paper_channel):
    ch, p = paper_channel
    for rho in (0.25, 0.5, 0.75):
        fp = solve_fixed_point(ch, p, rho)
        rep = verify_saturation(ch, p, fp, build_metric(fp, p, ch))
        assert rep.all_ok, (
            f"rho={rho}: spread={rep.jensen_spread:.2e} "
            f"post={rep.posterior_dev:.2e} zeta={rep.zeta_ratio_dev:.2e}")


def test_verify_saturation_detects_perturbed_z(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.5)
    u = build_metric(fp, p, ch)
    z = fp.z[fp.support].copy()
    z[0] *= 1.01
    rep = verify_saturation(ch, p, FixedPoint.from_z(ch, p, 0.5, z), u)
    assert not rep.jensen_ok  # K(x)-constancy breaks first
    assert not rep.all_ok


def test_verify_saturation_detects_mismatched_metric(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.5)
    z = fp.z[fp.support] * np.array([1.01, 1.0, 1.0, 1.0])
    fp_bad = FixedPoint.from_z(ch, p, 0.5, z)
    u_bad = build_metric(fp_bad, p, ch)
    rep = verify_saturation(ch, p, fp_bad, u_bad)
    # metric and fixed point are consistently wrong together: the
    # posterior-form check is the one that has to catch it
    assert not rep.posterior_ok


def test_verify_saturation_rho_zero_spread_tiny(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.0)
    rep = verify_saturation(ch, p, fp, build_metric(fp, p, ch))
    assert rep.jensen_spread < 1e-12
    assert rep.zeta_ratio_dev == 0.0
    assert rep.all_ok


def test_verify_saturation_scale_invariant_in_metric(paper_channel):
    ch, p = paper_channel
    fp = solve_fixed_point(ch, p, 0.5)
    u = build_metric(fp, p, ch)
    scaled = DecodingMetric(u=u.u * np.array([2.0, 0.5, 1.5, 3.0])[None, :],
                            name="scaled")
    rep = verify_saturation(ch, p, fp, scaled)
    assert rep.all_ok  # per-output scaling is tilted away


def test_exponent_saturates_constant_composition(paper_channel):
    ch, p = paper_channel
    opt = optimize_metric(ch, p, 0.25)
    mm = er_mismatch_dual(ch, p, opt.metric, 0.25).value_bits
    cc = er_cc_dual(ch, p, 0.25).value_bits
    assert abs(mm - cc) <= 1e-6
    # and the plain MAP metric strictly trails at this rate
    map_val = er_mismatch_dual(ch, p, map_metric(p, ch), 0.25).value_bits
    assert cc - map_val > 5e-3
