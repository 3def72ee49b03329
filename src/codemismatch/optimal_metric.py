"""Compensating-metric construction via the Z_rho fixed point.

For rho in [0,1] the positive vector Z solving

    Z(x) = sum_y W(y|x)^{1/(1+rho)}
               [ sum_x' P(x') W(y|x')^{1/(1+rho)} / Z(x') ]^rho

defines the conditional-form metric

    U(x|y, rho) = P(x) W(y|x)^{1/(1+rho)} / Z(x),  normalized over x,

which compensates the codebook mismatch: decoding the full linear code
with U(.|., rho_star) achieves the constant-composition exponent that a
matched decoder would get on the subcode alone. At rho = 0 the metric
reduces to the posterior P_{X|Y} (MAP). The map sends c*Z to
c^{-rho} * map(Z), so for rho > 0 solutions are not scale-free; success
is judged by the substitution residual, never by normalizing Z. The
system is the inner minimization of the constant-composition dual
(V below is its minimizer), so that dual's solver finds Z.

Derived quantities stored with the solution:

    zeta(y)    = sum_x P(x) W(y|x)^{1/(1+rho)} / Z(x)
    V(y)       = zeta(y)^{1+rho}
    W~(y|x)    = W(y|x)^{1/(1+rho)} zeta(y)^rho, rows normalized

These are the tilted channel and output law at which the saturation
chain holds with equality; verify_saturation re-derives each relation
and reports how far a given (fixed point, metric) pair drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import DecodingMetric, Dmc, InputDist, tilt_metric
from .errors import (ChannelSpecError, NonPositiveIterateError,
                     SaturationError)
from .exponents import (RatePoint, _e0cc, as_rate, er_cc_dual,
                        er_mismatch_dual)

__all__ = [
    "FixedPoint",
    "OptimalMetric",
    "SaturationReport",
    "solve_fixed_point",
    "build_metric",
    "optimize_metric",
    "verify_saturation",
]

JENSEN_TOL = 1e-8       # K(x)-constancy spread
POSTERIOR_TOL = 1e-10   # metric vs tilted-posterior form
ZETA_TOL = 1e-10        # zeta^rho vs V^{rho/(1+rho)}
SATURATION_TOL = 1e-4   # optimize_metric failure threshold


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FixedPoint:
    """Solved Z_rho with its derived output law and tilted channel.

    Entries at zero-mass inputs are NaN: those symbols are stripped
    before solving and have no defined Z. residual is the sup-norm
    relative defect of one extra substitution step.
    """

    rho: float
    z: np.ndarray
    zeta: np.ndarray
    v: np.ndarray
    w_tilde: np.ndarray
    residual: float
    iterations: int = 0

    def __post_init__(self):
        for name in ("z", "zeta", "v", "w_tilde"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def support(self) -> np.ndarray:
        return ~np.isnan(self.z)

    @classmethod
    def from_z(cls, ch: Dmc, p: InputDist, rho: float, z: np.ndarray,
               iterations: int = 0) -> "FixedPoint":
        """Populate all derived fields from a candidate Z on the support
        of p. Accepts full-length (NaN off support) or support-length z."""
        keep = p.p > 0
        z = np.asarray(z, dtype=float)
        if z.shape == keep.shape:
            zs = z[keep]
        elif z.shape == (int(keep.sum()),):
            zs = z
        else:
            raise ChannelSpecError(
                f"z has shape {z.shape}, expected {keep.shape} or "
                f"({int(keep.sum())},)")
        if np.any(~np.isfinite(zs)) or np.any(zs <= 0):
            raise NonPositiveIterateError(
                "candidate Z is not strictly positive on the support")
        wp = ch.w[keep] ** (1.0 / (1.0 + rho))
        pp = p.p[keep]
        zeta = (pp / zs) @ wp
        t = wp @ np.where(zeta > 0, zeta, 0.0) ** rho if rho > 0 else wp.sum(axis=1)
        residual = float(np.max(np.abs(t - zs) / zs))
        wt_sup = wp * np.where(zeta > 0, zeta, 0.0)[None, :] ** rho
        wt_sup = wt_sup / wt_sup.sum(axis=1, keepdims=True)
        nx, ny = ch.w.shape
        zfull = np.full(nx, np.nan)
        zfull[keep] = zs
        wt = np.full((nx, ny), np.nan)
        wt[keep] = wt_sup
        return cls(rho=float(rho), z=zfull, zeta=zeta,
                   v=zeta ** (1.0 + rho), w_tilde=wt,
                   residual=residual, iterations=iterations)


def solve_fixed_point(ch: Dmc, p: InputDist, rho: float) -> FixedPoint:
    """Solve the Z_rho system with the cc dual's inner solver.

    exponents._e0cc runs alternating minimization from the uniform V;
    FixedPoint.from_z derives the rest from its Z and reports the
    residual of one substitution step. rho = 0 is exact: the bracket
    power vanishes, so Z = row sums = 1 for any stochastic W.
    """
    if not (0.0 <= rho <= 1.0):
        raise ChannelSpecError(f"rho = {rho} outside [0, 1]")
    if len(p.p) != ch.input_size:
        raise ChannelSpecError(
            f"p_x has {len(p.p)} entries, channel expects {ch.input_size}")
    keep = p.p > 0
    if not np.any(keep):
        raise ChannelSpecError("input distribution has empty support")
    if rho == 0.0:
        z = np.ones(int(keep.sum()))
        return FixedPoint.from_z(ch, p, 0.0, z, iterations=0)
    wp = ch.w[keep] ** (1.0 / (1.0 + rho))
    _, _, z, it = _e0cc(wp, p.p[keep], rho)
    return FixedPoint.from_z(ch, p, rho, z, iterations=it)


def build_metric(fp: FixedPoint, p: InputDist, ch: Dmc) -> DecodingMetric:
    """Conditional-form metric U(x|y, rho) from a solved fixed point.

    Zero-mass inputs get all-zero rows (they never occur in the type
    class); each output column is normalized to sum exactly 1 over x.
    """
    keep = p.p > 0
    if not np.array_equal(keep, fp.support):
        raise ChannelSpecError(
            "fixed point support does not match the input distribution")
    wp = ch.w[keep] ** (1.0 / (1.0 + fp.rho))
    raw = (p.p[keep] / fp.z[keep])[:, None] * wp
    col = raw.sum(axis=0)
    if np.any(col <= 0):
        y = int(np.argmax(col <= 0))
        raise ChannelSpecError(
            f"output y={y} unreachable from the input support; "
            "conditional metric undefined there")
    u = np.zeros_like(ch.w)
    u[keep] = raw / col[None, :]
    return DecodingMetric(u=u, name="optimal")


@dataclass(frozen=True)
class OptimalMetric:
    """Best compensating metric at one rate, with its bookkeeping."""

    rho_star: float
    metric: DecodingMetric
    achieved_exponent: float
    cc_exponent: float
    saturation_gap: float
    fixed_point: FixedPoint


def optimize_metric(ch: Dmc, p: InputDist,
                    rate: Union[RatePoint, float], *,
                    saturation_tol: float = SATURATION_TOL) -> OptimalMetric:
    """Build the compensating metric at the cc dual's rho_star.

    The metric built from the constant-composition dual's own maximizer
    reaches E_r^cc, so no rho is searched, and the metric is built from
    the dual's own Z_rho (diagnostics "z_star") with no second solve.
    er_mismatch_dual re-checks the achieved exponent independently; it
    must meet the cc exponent within saturation_tol. At or above I(X;Y)
    the metric is the posterior (rho_star = 0); at or above H(P_X) every
    metric has exponent 0 and the re-check is skipped.
    """
    rp = as_rate(rate)
    rr = rp.rate_bits
    cc = er_cc_dual(ch, p, rp)
    rho_star = float(cc.rho_star)
    fp = FixedPoint.from_z(ch, p, rho_star, cc.diagnostics["z_star"],
                           iterations=cc.diagnostics["am_iterations"])
    u = build_metric(fp, p, ch)
    if rr >= p.entropy_bits:
        return OptimalMetric(rho_star=rho_star, metric=u,
                             achieved_exponent=0.0, cc_exponent=0.0,
                             saturation_gap=0.0, fixed_point=fp)
    achieved = er_mismatch_dual(ch, p, u, rp).value_bits
    gap = abs(achieved - cc.value_bits)
    if gap > saturation_tol:
        raise SaturationError(
            f"optimized metric misses the constant-composition exponent "
            f"by {gap:.3e} at R={rr:g} (tolerance {saturation_tol:g})",
            gap=gap)
    return OptimalMetric(rho_star=rho_star, metric=u,
                         achieved_exponent=achieved,
                         cc_exponent=cc.value_bits,
                         saturation_gap=gap, fixed_point=fp)


@dataclass(frozen=True)
class SaturationReport:
    """Numerical slack in the three equality conditions of the
    saturation chain, evaluated for a (fixed point, metric) pair."""

    rho: float
    jensen_spread: float      # max_x (max_y / min_y - 1) of W/(W~ U^rho)
    posterior_dev: float      # sup |U - tilted-posterior form|
    zeta_ratio_dev: float     # max |zeta^rho / V^{rho/(1+rho)} - 1|
    jensen_ok: bool
    posterior_ok: bool
    zeta_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.jensen_ok and self.posterior_ok and self.zeta_ok


def verify_saturation(ch: Dmc, p: InputDist, fp: FixedPoint,
                      u: DecodingMetric) -> SaturationReport:
    """Check the three equality conditions that make the exponent chain
    tight at the fixed point.

    (a) K(x)-constancy: W(y|x) / (W~(y|x) U_1(x|y)^rho) may depend on x
        but not on y; reported as the worst per-x spread minus 1.
    (b) U_1(x|y) equals P(x) W~(y|x) / sum_x' P(x') W~(y|x'), the
        posterior of the tilted channel.
    (c) zeta(y)^rho equals V(y)^{rho/(1+rho)} where V is recomputed as
        the W~ output marginal (the maximizing output law for the
        current tilt), not the stored fp.v, so drift is visible.

    The metric is column-normalized (theta = 1 tilt) first, making the
    checks invariant to per-output scaling of u.
    """
    keep = p.p > 0
    if not np.array_equal(keep, fp.support):
        raise ChannelSpecError(
            "fixed point support does not match the input distribution")
    rho = fp.rho
    u1 = tilt_metric(u, 1.0).u_theta[keep]
    w = ch.w[keep]
    pp = p.p[keep]
    wt = fp.w_tilde[keep]

    mask = w > 0
    spread = 0.0
    for x in range(w.shape[0]):
        cols = mask[x]
        denom = wt[x, cols] * u1[x, cols] ** rho
        if np.any(denom <= 0):
            spread = math.inf
            break
        ratio = w[x, cols] / denom
        spread = max(spread, float(ratio.max() / ratio.min()) - 1.0)

    v_marg = pp @ wt
    ok = v_marg > 0
    form = (pp[:, None] * wt[:, ok]) / v_marg[ok][None, :]
    posterior_dev = float(np.max(np.abs(u1[:, ok] - form)))

    if rho == 0.0:
        zeta_dev = 0.0
    else:
        zr = np.where(fp.zeta[ok] > 0, fp.zeta[ok], np.nan) ** rho
        vr = v_marg[ok] ** (rho / (1.0 + rho))
        zeta_dev = float(np.nanmax(np.abs(zr / vr - 1.0)))

    return SaturationReport(
        rho=rho,
        jensen_spread=spread,
        posterior_dev=posterior_dev,
        zeta_ratio_dev=zeta_dev,
        jensen_ok=spread < JENSEN_TOL,
        posterior_ok=posterior_dev < POSTERIOR_TOL,
        zeta_ok=zeta_dev < ZETA_TOL,
    )
