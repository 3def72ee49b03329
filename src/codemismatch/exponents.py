"""Random-coding error exponents for additive-metric decoding.

Two exponents are computed, both in bits per symbol.

The mismatch exponent E_r(R, U) applies when codewords are drawn as a
random linear coset code, the encoder only uses the constant-composition
subcode of type P_X, and the decoder ranks every codeword of the full
code by the additive metric U. Its dual form is a concave program

    E_r(R, U) = max_{rho in [0,1]} sup_{theta >= 0}
        -sum_x P(x) log2( sum_y W(y|x) / U_theta(x|y)^rho )
        + rho (H(P_X) - R),

jointly concave in (rho, theta_hat) with theta_hat = rho * theta. The
objective at rho = 0 is 0, which clamps the exponent at 0.

The constant-composition exponent E_r^cc(R) is the classical

    min_{Q_{Y|X}} D(Q_{Y|X} || W | P_X) + [I_Q(X;Y) - R]_+           (primal)
    min_V max_rho -(1+rho) sum_x P(x) log2 sum_y (W V^rho)^{1/(1+rho)}
                  - rho R                                            (dual)

The dual is computed by exchanging min and max (the bracket is convex
in V and concave in rho, so the exchange is exact). Alternating
minimization solves the inner V problem, whose minimizer also yields the
Z_rho fixed point of the compensating metric, and rho_star is a root in
rho. The primal is solved on its own, through the Lagrangian of its
kink, and carries its own certificate, so it checks the dual.

Zero-probability handling: terms with W(y|x) = 0 are dropped; a metric
zero on the channel support makes the inner sum +inf and the objective
-inf for that (rho > 0, theta), which the optimizers treat as ordinary
bad points unless the whole search grid is -inf. Inputs with
P_X(x) = 0 never contribute to outer sums, but their metric rows still
enter the per-output tilt normalization, because the decoder ranks
candidate sequences over the full padded alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import brentq, minimize

from .channel import (ConditionalDist, DecodingMetric, Dmc, InputDist,
                      TiltedMetric, mutual_information, posterior)
from .errors import (ChannelSpecError, DimensionTooLargeError,
                     MetricSupportError, NonConvergentError)

__all__ = [
    "RatePoint",
    "ExponentResult",
    "ExponentCurve",
    "as_rate",
    "er_mismatch_dual",
    "er_cc_dual",
    "er_cc_primal",
    "er_mismatch_primal_oracle",
    "map_capacity_gap",
    "sweep_curve",
]

LN2 = math.log(2.0)

THETA_GRID_LO = 1e-4
THETA_GRID_HI = 1e4
N_THETA_GRID = 17      # log-spaced theta grid of the start bracket
N_RHO_GRID = 11        # rho grid on [0, 1] of the start bracket
RHO_FLOOR = 1e-9       # smallest rho searched; a maximizer on it is rho = 0
THETA_HAT_MAX = 1e8    # upper bound of theta_hat = rho * theta
LOG1P_MAX = 1.0        # largest -rho log U_theta summed in log1p form
PG_TOL = 1e-6          # projected-gradient norm accepted at a maximizer
AM_TOL = 1e-12         # relative sup-norm change of Z that stops _e0cc
AM_MAX_ITER = 100000
NEWTON_MAX = 10       # Newton steps after each L-BFGS-B solve of the cc primal
NEWTON_TOL = 1e-12    # sup-norm of a log-coordinate step that ends them


@dataclass(frozen=True)
class RatePoint:
    """Information rate in bits/symbol with optional code bookkeeping.

    When built from code parameters, R = H(P_X) - m (1 - r_fec): the FEC
    redundancy m(1 - r_fec) is spent on shaping down from m to H(P_X).
    """

    rate_bits: float
    r_fec: Optional[float] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.rate_bits < 0:
            raise ChannelSpecError(f"rate {self.rate_bits} must be >= 0")
        if self.r_fec is not None:
            if not (0.0 < self.r_fec <= 1.0):
                raise ChannelSpecError(
                    f"r_fec {self.r_fec} outside (0, 1]")
            if self.m is not None:
                if self.rate_bits > self.m * self.r_fec + 1e-9:
                    raise ChannelSpecError(
                        f"rate {self.rate_bits} exceeds m*r_fec = "
                        f"{self.m * self.r_fec}")

    @classmethod
    def from_code_params(cls, p: InputDist, m: int, r_fec: float) -> "RatePoint":
        r = p.entropy_bits - m * (1.0 - r_fec)
        if r < -1e-12:
            raise ChannelSpecError(
                f"H(P_X) = {p.entropy_bits:.6f} < m(1-r_fec) = "
                f"{m * (1 - r_fec):.6f}: rate would be negative")
        return cls(rate_bits=max(r, 0.0), r_fec=r_fec, m=m)


def as_rate(rate: Union[RatePoint, float]) -> RatePoint:
    if isinstance(rate, RatePoint):
        return rate
    return RatePoint(rate_bits=float(rate))


@dataclass(frozen=True)
class ExponentResult:
    """An exponent value plus the maximizers that produced it.

    rho_star/theta_star are None for forms without that parameter (or
    when the value clamps to 0 at the rho = 0 boundary, where theta is
    meaningless). diagnostics carries iteration counts and solver gaps.
    """

    value_bits: float
    rho_star: Optional[float] = None
    theta_star: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.value_bits >= 0.0 or math.isinf(self.value_bits)):
            raise ChannelSpecError(
                f"exponent {self.value_bits} must be >= 0")
        if self.rho_star is not None and not (-1e-12 <= self.rho_star <= 1 + 1e-12):
            raise ChannelSpecError(f"rho_star {self.rho_star} outside [0,1]")


class ExponentCurve:
    """Exponent-vs-rate table: one column per metric plus cc_reference."""

    def __init__(self, rates: np.ndarray, columns: dict):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or len(rates) == 0:
            raise ChannelSpecError("rate grid must be a nonempty vector")
        if np.any(np.diff(rates) <= 0):
            raise ChannelSpecError("rate grid must be strictly ascending")
        for name, col in columns.items():
            col = np.asarray(col, dtype=float)
            if col.shape != rates.shape:
                raise ChannelSpecError(
                    f"column {name!r} length {col.shape} != rates")
            if np.any(np.diff(col) > 1e-9):
                i = int(np.argmax(np.diff(col)))
                raise ChannelSpecError(
                    f"column {name!r} increases at R={rates[i + 1]:g} "
                    f"by {np.diff(col)[i]:.3g} (tolerance 1e-9)")
            columns[name] = col
        self.rates = rates
        self.columns = columns

    def to_csv_text(self, comment: Optional[str] = None) -> str:
        names = list(self.columns)
        lines = []
        if comment:
            lines.append("# " + comment)
        lines.append(",".join(["rate"] + names))
        for i, r in enumerate(self.rates):
            row = [f"{r:.9g}"] + [f"{self.columns[n][i]:.9g}" for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# mismatch dual form
# ----------------------------------------------------------------------

def _check_shapes(ch: Dmc, p: InputDist, u: Optional[DecodingMetric] = None):
    if len(p.p) != ch.input_size:
        raise ChannelSpecError(
            f"p_x has {len(p.p)} entries, channel expects {ch.input_size}")
    if u is not None and u.u.shape != ch.w.shape:
        raise ChannelSpecError(
            f"metric shape {u.u.shape} != channel shape {ch.w.shape}")


def _log_masked(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), -np.inf)


def _logsumexp(a: np.ndarray, axis: Optional[int] = None,
               keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) over axis, shifted by the maximum.

    Same values as scipy.special.logsumexp on real input, including an
    all -inf slice (-inf) and a +inf entry (+inf), without its
    per-call dispatch, which dominates on the 4x4 arrays used here.
    """
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True))
    out += shift
    return out if keepdims else np.squeeze(out, axis=axis)


def _log_tilt(log_u: np.ndarray, theta: float) -> np.ndarray:
    """log U_theta(x|y), columns normalized over the full alphabet."""
    nx = log_u.shape[0]
    if theta == 0.0:
        return np.full_like(log_u, -math.log(nx))
    t = theta * log_u
    return t - _logsumexp(t, axis=0, keepdims=True)


class _MismatchProblem:
    """Prepared arrays plus the (rho, theta) objective in bits."""

    def __init__(self, ch: Dmc, p: InputDist, u: DecodingMetric,
                 rate: RatePoint):
        _check_shapes(ch, p, u)
        self.keep = p.p > 0
        with np.errstate(divide="ignore"):
            self.lnw = _log_masked(ch.w[self.keep])
            log_u = _log_masked(u.u)
        # tilting U by theta is tilting U^c by theta/c, so theta's unit is
        # set by the metric. Scores spanning less than one bit are stretched
        # to span one, or the theta_hat box and PG_TOL would be out of
        # scale; theta in this problem is then theta_star * scale
        finite = log_u[np.isfinite(log_u)]
        spread = float(np.ptp(finite)) / LN2 if finite.size else 0.0
        self.scale = min(spread, 1.0) if spread > 0.0 else 1.0
        self.log_u = log_u / self.scale
        self.on_support = np.isfinite(self.lnw)
        self.u_pos = np.isfinite(self.log_u)
        self.w = ch.w[self.keep]
        self.pp = p.p[self.keep]
        self.hr = p.entropy_bits - rate.rate_bits
        self.evals = 0

    def value(self, rho: float, theta: float) -> float:
        if rho <= 0.0:
            return 0.0
        self.evals += 1
        lt = _log_tilt(self.log_u, theta)[self.keep]
        with np.errstate(invalid="ignore"):
            a = np.where(self.on_support, self.lnw - rho * lt, -np.inf)
        inner = _logsumexp(a, axis=1)
        if np.any(np.isposinf(inner)):
            return -np.inf
        return float(-(self.pp * inner).sum() / LN2 + rho * self.hr)

    def value_grid(self, rhos: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Objective on the rho x theta grid; rhos must be positive."""
        self.evals += len(rhos) * len(thetas)
        th = np.asarray(thetas, dtype=float)[:, None, None]
        with np.errstate(invalid="ignore"):
            # theta = 0 is the uniform tilt, also where U vanishes
            t = np.where(th == 0.0, 0.0, th * self.log_u[None])
        lts = (t - _logsumexp(t, axis=1, keepdims=True))[:, self.keep]
        with np.errstate(invalid="ignore"):
            a = self.lnw[None, None] - rhos[:, None, None, None] * lts[None]
            a = np.where(self.on_support[None, None], a, -np.inf)
        inner = _logsumexp(a, axis=3)
        with np.errstate(invalid="ignore"):
            out = -(self.pp[None, None] * inner).sum(axis=2) / LN2 \
                + rhos[:, None] * self.hr
        out[~np.isfinite(out)] = -np.inf
        return out

    def value_grad(self, rho: float, that: float) -> tuple[float, np.ndarray]:
        """Objective and its gradient in (rho, theta_hat = rho*theta).

        rho must be positive; theta_hat = 0 is the limit theta -> 0+.
        With q(.|x) the softmax over y of log W - rho log U_theta:

            d/d rho       = -sum_x P sum_y q H(U_theta(.|y)) / ln 2
                            + H(P_X) - R
            d/d theta_hat = -sum_x P sum_y q (E_{U_theta}[log U](y)
                            - log U(x,y)) / ln 2
        """
        self.evals += 1
        with np.errstate(invalid="ignore"):
            t = np.where(self.u_pos, (that / rho) * self.log_u, -np.inf)
            lt = t - _logsumexp(t, axis=0, keepdims=True)
            ut = np.exp(lt)
            e_log_u = np.where(self.u_pos, ut * self.log_u, 0.0).sum(axis=0)
            h_tilt = -np.where(self.u_pos, ut * lt, 0.0).sum(axis=0)
            a = np.where(self.on_support, -rho * lt[self.keep], -np.inf)
        if np.max(a) <= LOG1P_MAX:
            # the rows of W sum to 1, so log sum_y W e^a is
            # log1p(sum_y W expm1(a)), a sum of nonnegative terms that
            # keeps its relative precision as rho -> 0
            inner = np.log1p((self.w * np.expm1(a)).sum(axis=1))
        else:
            inner = _logsumexp(self.lnw + a, axis=1)
        q = np.exp(self.lnw + a - inner[:, None])
        d_that = np.where(self.on_support,
                          e_log_u[None, :] - self.log_u[self.keep], 0.0)
        val = -(self.pp * inner).sum() / LN2 + rho * self.hr
        grad = np.array([
            -(self.pp * (q @ h_tilt)).sum() / LN2 + self.hr,
            -(self.pp * (q * d_that).sum(axis=1)).sum() / LN2])
        return float(val), grad


def er_mismatch_dual(ch: Dmc, p: InputDist, u: DecodingMetric,
                     rate: Union[RatePoint, float]) -> ExponentResult:
    """Mismatch exponent E_r(R, U) by one bounded gradient solve.

    A coarse (rho, theta) grid gives the start point; L-BFGS-B with the
    analytic gradient then maximizes the jointly concave objective over
    rho in [RHO_FLOOR, 1] and theta_hat = rho*theta in [0, THETA_HAT_MAX],
    theta measured on the metric's scores stretched to span at least one
    bit (theta_star is mapped back to U's own scale). Convergence is judged
    by the projected-gradient norm at the returned point, not by the
    solver's own flag, which reports an ABNORMAL line search once steps
    reach the precision floor; a norm above PG_TOL at a positive
    exponent raises NonConvergentError.
    """
    rp = as_rate(rate)
    prob = _MismatchProblem(ch, p, u, rp)
    rhos = np.linspace(0.0, 1.0, N_RHO_GRID)[1:]
    thetas = np.exp(np.linspace(math.log(THETA_GRID_LO),
                                math.log(THETA_GRID_HI), N_THETA_GRID))
    grid = prob.value_grid(rhos, thetas)
    if not np.any(grid > -np.inf):
        raise MetricSupportError(
            "metric scores vanish on the channel support: objective is "
            "-inf at every (rho, theta)")
    i, k = np.unravel_index(int(np.argmax(grid)), grid.shape)
    x0 = np.array([rhos[i], rhos[i] * thetas[k]])
    lo = np.array([RHO_FLOOR, 0.0])
    hi = np.array([1.0, THETA_HAT_MAX])

    def neg(x):
        val, grad = prob.value_grad(x[0], x[1])
        return -val, -grad

    res = minimize(neg, x0, jac=True, method="L-BFGS-B",
                   bounds=list(zip(lo, hi)),
                   options={"ftol": 0.0, "gtol": 0.0, "maxiter": 500})
    rho, that = (float(v) for v in res.x)
    best = -float(res.fun)
    # components pushing against an active bound do not count
    blocked = ((res.x <= lo) & (res.jac > 0)) | ((res.x >= hi) & (res.jac < 0))
    pg = float(np.max(np.where(blocked, 0.0, np.abs(res.jac))))

    # a maximizer on the rho floor is the rho = 0 boundary, where the
    # objective is exactly 0; its residue is round-off, not exponent
    clamped = bool(best <= 0.0 or rho <= RHO_FLOOR)
    if not clamped and pg > PG_TOL:
        raise NonConvergentError(
            f"mismatch dual stopped with projected gradient {pg:.3e} > "
            f"{PG_TOL:g} ({res.message})", residual=pg, iterations=res.nit)
    diags = {"evaluations": prob.evals,
             "iterations": int(res.nit),
             "message": str(res.message),
             "projected_gradient": pg,
             "grid_max": float(grid[i, k]),
             "theta_at_boundary": bool(that >= THETA_HAT_MAX),
             "clamped": clamped}
    if clamped:
        return ExponentResult(0.0, rho_star=0.0, theta_star=None,
                              diagnostics=diags)
    return ExponentResult(best, rho_star=rho,
                          theta_star=that / (rho * prob.scale),
                          diagnostics=diags)


# ----------------------------------------------------------------------
# constant-composition exponent, dual form
# ----------------------------------------------------------------------

def _e0cc(wp: np.ndarray, pp: np.ndarray, rho: float,
          v0: Optional[np.ndarray] = None):
    """min over V of -(1+rho) sum_x p log2 Z(x), Z = wp @ V^{rho/(1+rho)}.

    wp is W^{1/(1+rho)} on the support rows. Alternating minimization:
    tilt the channel toward V, then replace V by the tilted output
    marginal; the objective decreases monotonically. At the minimizer Z
    is the Z_rho fixed point and V = zeta^{1+rho}, zeta = sum_x p wp / Z.
    Stops when Z's relative sup-norm change drops below AM_TOL.

    Returns (E0cc in bits, V, Z, iterations), V = zeta^{1+rho} of the
    returned Z as FixedPoint.from_z derives it: Z follows the AM iterate
    of V at only rho/(1+rho) of its change, so pins V down better.
    """
    ny = wp.shape[1]
    v = np.full(ny, 1.0 / ny) if v0 is None else np.asarray(v0)
    ex = rho / (1.0 + rho)
    z_prev = math.inf
    for it in range(1, AM_MAX_ITER + 1):
        a = v ** ex
        z = wp @ a
        zeta = (pp / z) @ wp
        change = float(np.max(np.abs(z - z_prev) / z))
        if change < AM_TOL:
            e0 = float(-(1.0 + rho) * (pp @ np.log2(z)))
            return e0, zeta ** (1.0 + rho), z, it
        v, z_prev = a * zeta, z
    raise NonConvergentError(
        f"alternating minimization stalled at rho={rho:g}",
        residual=change, iterations=AM_MAX_ITER)


def _cc_primal_value(w: np.ndarray, pp: np.ndarray, q: np.ndarray,
                     rr: float) -> float:
    """D(Q||W|P) + [I_Q(X;Y) - R]_+ in bits for Q zero wherever W is."""
    pos = q > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(pos, q * np.log2(q / w), 0.0).sum(axis=1)
        i = np.where(pos, q * np.log2(q / (pp @ q)), 0.0).sum(axis=1)
    return float(pp @ d + max(pp @ i - rr, 0.0))


def er_cc_dual(ch: Dmc, p: InputDist,
               rate: Union[RatePoint, float]) -> ExponentResult:
    """Constant-composition exponent, dual form.

    max over rho in [0, 1] of E0cc(rho) - rho R, the min over V taken
    inside (exact: convex in V, concave in rho, compact simplex). At the
    inner minimizer, with W~ the tilted channel, the concave E0cc has
    the envelope-theorem slope

        E0cc'(rho) = -sum_x P log2 Z + (1+rho)^-1 sum_x P sum_y W~ log2(W/V)

    and E0cc'(0) = I(X;Y). So rho_star is 0 for R >= I(X;Y), 1 when
    E0cc'(1) >= R, and otherwise the root of E0cc'(rho) = R, found by
    brentq with V warm-started between probes.

    diagnostics: am_iterations; v_star and z_star, V and Z_rho on the
    support of P at rho_star; duality_gap, the primal objective
    D(W~||W|P) + [I_{W~}(X;Y) - R]_+ at the returned W~ minus the
    returned value (>= 0 up to round-off).
    """
    rp = as_rate(rate)
    _check_shapes(ch, p)
    keep = p.p > 0
    w = ch.w[keep]
    pp = p.p[keep]
    rr = rp.rate_bits
    mi = mutual_information(p, ch)
    # rho = 0 in closed form: Z = 1, V is the output law, W is its own
    # tilt, and E0cc'(0) = I(X;Y)
    solves = {0.0: (0.0, pp @ w, np.ones(len(pp)), w, mi)}
    am_iters = 0
    v = None

    def slope_minus_rate(rho: float) -> float:
        nonlocal am_iters, v
        if rho not in solves:
            wp = w ** (1.0 / (1.0 + rho))
            e0, v, z, it = _e0cc(wp, pp, rho, v)
            am_iters += it
            wt = wp * (v ** (rho / (1.0 + rho)))[None, :]
            wt /= wt.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                lr = np.where(wt > 0, wt * np.log2(w / v), 0.0).sum(axis=1)
            slope = -(pp @ np.log2(z)) + (pp @ lr) / (1.0 + rho)
            solves[rho] = (e0, v, z, wt, slope)
        return solves[rho][-1] - rr

    if rr >= mi:
        rho_star = 0.0
    elif slope_minus_rate(1.0) >= 0.0:
        rho_star = 1.0
    else:
        rho_star = float(brentq(slope_minus_rate, 0.0, 1.0))
        slope_minus_rate(rho_star)  # a lookup: brentq returns a probe
    e0, v_star, z_star, wt, _ = solves[rho_star]
    value = max(e0 - rho_star * rr, 0.0)
    diags = {"am_iterations": am_iters, "v_star": v_star, "z_star": z_star,
             "duality_gap": _cc_primal_value(w, pp, wt, rr) - value}
    return ExponentResult(value, rho_star=rho_star, diagnostics=diags)


# ----------------------------------------------------------------------
# constant-composition exponent, primal form
# ----------------------------------------------------------------------

def er_cc_primal(ch: Dmc, p: InputDist,
                 rate: Union[RatePoint, float]) -> ExponentResult:
    """min over Q_{Y|X} of D(Q||W|P_X) + [I_Q(X;Y) - R]_+, solved through
    the Lagrangian of the kink and independently of the dual form:

        E = max_{s in [0,1]} g(s),  g(s) = min_Q L_s(Q),
        L_s(Q) = D(Q||W|P_X) + s (I_Q(X;Y) - R),

    g concave with g'(s) = I_{Q_s} - R at the minimizer Q_s. So E = 0 at
    Q = W for R >= I(X;Y), E = g(1) when I_{Q_1} >= R, and otherwise
    s_star is the brentq root of I_{Q_s} = R. Each g(s) is an L-BFGS-B
    solve in softmax coordinates on the support of W, warm-started from
    the last probe, then Newton steps on the stationarity conditions
    (1+s) log Q - log W - s log Q_Y = const per row. Those are nearly
    linear in log Q, so they place even tiny entries to round-off, where
    a line search on the value stalls near sqrt(machine epsilon).

    The value is the primal objective at the returned Q, an upper bound.
    diagnostics: lbfgs_iterations and newton_steps over all solves,
    s_star, and duality_gap = value - (L_s(Q) - FW(Q)) at s_star, where
    FW(Q) = sum_x [sum_y Q dL_s/dQ - min_y dL_s/dQ] on the support is the
    Frank-Wolfe gap; by convexity L_s - FW is a lower bound on E.
    """
    rp = as_rate(rate)
    _check_shapes(ch, p)
    keep = p.p > 0
    w = ch.w[keep]
    pp = p.p[keep]
    rr = rp.rate_bits
    mi = mutual_information(p, ch)
    work = {"lbfgs_iterations": 0, "newton_steps": 0}
    if rr >= mi:
        return ExponentResult(0.0, diagnostics={
            **work, "s_star": 0.0, "duality_gap": 0.0})
    xs, ys = np.nonzero(w > 0)             # the support of W, row by row
    rows = np.flatnonzero(np.diff(xs, prepend=-1))
    n, nr = len(xs), len(rows)
    lw = np.log(w[xs, ys])
    px = pp[xs] / LN2                      # P(x) per support entry, in bits

    def terms(t, s):
        """Q, D, I and dL_s/dQ on the support, log Q = t up to row shifts."""
        t = t - np.maximum.reduceat(t, rows)[xs]
        lq = t - np.log(np.add.reduceat(np.exp(t), rows))[xs]
        q = np.exp(lq)
        ld = lq - lw
        li = lq - np.log(np.bincount(ys, px * q)[ys] * LN2)
        return q, px @ (q * ld), px @ (q * li), px * (ld + s * li)

    def lagrangian(t, s):
        q, d, i, g = terms(t, s)
        return d + s * (i - rr), q * (g - np.add.reduceat(q * g, rows)[xs])

    # Jacobian of [stationarity residual; row sums] in (log Q, row constant)
    jac = np.zeros((n + nr, n + nr))
    jac[np.arange(n), n + xs] = 1.0
    same_y = ys[:, None] == ys[None, :]

    def solve(t, s):
        res = minimize(lagrangian, t, args=(s,), jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-4})
        work["lbfgs_iterations"] += res.nit
        t = res.x
        for _ in range(NEWTON_MAX):
            work["newton_steps"] += 1
            q, _, _, g = terms(t, s)
            pq = px * q
            jac[:n, :n] = -s * same_y * pq / np.bincount(ys, pq)[ys][:, None]
            jac[np.arange(n), np.arange(n)] += 1.0 + s
            jac[n + xs, np.arange(n)] = q
            step = np.linalg.solve(jac, np.r_[-g / px, np.zeros(nr)])[:n]
            t = np.log(q) + step
            if np.max(np.abs(step)) <= NEWTON_TOL:
                break
        return t

    solves = {0.0: (lw, mi - rr)}          # s = 0 in closed form: Q = W
    t = lw

    def info_minus_rate(s: float) -> float:
        nonlocal t
        if s not in solves:
            t = solve(t, s)                # warm start: the last probe
            solves[s] = (t, terms(t, s)[2] - rr)
        return solves[s][1]

    if info_minus_rate(1.0) >= 0.0:
        s = 1.0
    else:
        s = float(brentq(info_minus_rate, 0.0, 1.0))
        info_minus_rate(s)  # a lookup: brentq returns a probe
    q, d, i, g = terms(solves[s][0], s)
    fw = q @ (g - np.minimum.reduceat(g, rows)[xs])
    # value - L_s(Q) = [I - R]_+ - s (I - R): one of the two products is
    # >= 0 and the other <= 0, so the gap is >= 0 in floating point too
    gap = fw + max((1.0 - s) * (i - rr), s * (rr - i))
    return ExponentResult(float(max(d + max(i - rr, 0.0), 0.0)), diagnostics={
        **work, "s_star": s, "duality_gap": float(gap)})


# ----------------------------------------------------------------------
# brute-force mismatch oracle (primal form)
# ----------------------------------------------------------------------

def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All compositions k/steps on the (dim-1)-simplex, shape (G, dim)."""
    combos = []
    def rec(prefix, left, slots):
        if slots == 1:
            combos.append(prefix + [left])
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k, slots - 1)
    rec([], steps, dim)
    return np.array(combos, dtype=float) / steps


def er_mismatch_primal_oracle(ch: Dmc, p: InputDist, u: DecodingMetric,
                              rate: Union[RatePoint, float],
                              grid_step: float) -> ExponentResult:
    """Brute-force primal evaluation of the mismatch exponent.

        min_{Q_{Y|X}}  D(Q||W|P_X)
            + [ H(P_X) - R - max_{Q_{X'|Y} in E} H_Q(X'|Y) ]_+

    where E is the half-space of reverse conditionals scoring at least
    as high as Q under log U at the induced output marginal. Both the
    outer and inner conditionals run over exhaustive simplex grids of
    pitch grid_step, so the result carries an O(grid_step) resolution
    bound. Intended for 2x2 or very coarse 3x3 problems only.
    """
    rp = as_rate(rate)
    _check_shapes(ch, p, u)
    if grid_step <= 0:
        raise ChannelSpecError("grid_step must be positive")
    keep = p.p > 0
    w = ch.w[keep]
    pp = p.p[keep]
    nx_sup, ny = w.shape
    nx_full = ch.input_size
    if nx_full > 3 or ny > 3:
        raise DimensionTooLargeError(
            f"oracle limited to |X|,|Y| <= 3, got {nx_full}x{ny}")
    steps = max(1, round(1.0 / grid_step))
    with np.errstate(divide="ignore"):
        l2u = np.where(u.u > 0, np.log2(np.where(u.u > 0, u.u, 1.0)),
                       -np.inf)

    rows_y = _simplex_grid(ny, steps)            # outer: rows over Y
    rows_x = _simplex_grid(nx_full, steps)       # inner: columns over X'
    if len(rows_y) ** nx_sup > 5e7 or len(rows_x) ** ny > 2e6:
        raise DimensionTooLargeError(
            f"grid too fine: {len(rows_y)}^{nx_sup} outer x "
            f"{len(rows_x)}^{ny} inner points")

    # per-x relative entropies of every candidate row (inf off support)
    d_rows = np.empty((nx_sup, len(rows_y)))
    for x in range(nx_sup):
        ok = ~((rows_y > 0) & (w[x][None, :] <= 0)).any(axis=1)
        t = np.where(rows_y > 0,
                     rows_y * np.log2(np.where(rows_y > 0, rows_y, 1.0) /
                                      np.where(w[x] > 0, w[x], 1.0)[None, :]),
                     0.0)
        d_rows[x] = np.where(ok, t.sum(axis=1), np.inf)

    # inner candidates: entropy and per-y metric score of each column
    h_rows = -np.where(rows_x > 0,
                       rows_x * np.log2(np.where(rows_x > 0, rows_x, 1.0)),
                       0.0).sum(axis=1)
    score_rows = np.empty((ny, len(rows_x)))
    for y in range(ny):
        full = rows_x @ np.where(np.isfinite(l2u[:, y]), l2u[:, y], 0.0)
        bad = ((rows_x > 0) & ~np.isfinite(l2u[:, y])[None, :]).any(axis=1)
        score_rows[y] = np.where(bad, -np.inf, full)

    l2u_sup = l2u[keep]
    h_p = p.entropy_bits
    best = math.inf
    best_q = None
    for combo in product(range(len(rows_y)), repeat=nx_sup):
        d = sum(pp[x] * d_rows[x, combo[x]] for x in range(nx_sup))
        if not math.isfinite(d) or d >= best:
            continue
        q = rows_y[list(combo)]                  # (nx_sup, ny)
        qy = pp @ q
        with np.errstate(invalid="ignore"):
            c0_terms = np.where(q > 0, q * l2u_sup, 0.0)
        c0 = float((pp[:, None] * c0_terms).sum())
        # max entropy over the product grid meeting the score constraint
        h_acc = None
        s_acc = None
        for y in range(ny):
            axis_shape = [1] * ny
            axis_shape[y] = len(rows_x)
            hy = (qy[y] * h_rows).reshape(axis_shape)
            sy = (qy[y] * score_rows[y]).reshape(axis_shape)
            h_acc = hy if h_acc is None else h_acc + hy
            s_acc = sy if s_acc is None else s_acc + sy
        feasible = s_acc >= c0 - 1e-12
        if not feasible.any():
            continue
        h_max = float(h_acc[feasible].max())
        val = d + max(h_p - rp.rate_bits - h_max, 0.0)
        if val < best:
            best = val
            best_q = q
    if not math.isfinite(best):
        raise NonConvergentError("oracle found no feasible grid point")
    diags = {"grid_step": 1.0 / steps,
             "outer_points": len(rows_y) ** nx_sup,
             "inner_points": len(rows_x) ** ny,
             "argmin_q": best_q}
    return ExponentResult(max(best, 0.0), diagnostics=diags)


# ----------------------------------------------------------------------
# MAP capacity criterion and curve sweeps
# ----------------------------------------------------------------------

def map_capacity_gap(ch: Dmc, p: InputDist, u_theta: TiltedMetric) -> float:
    """D(P_{X|Y} || U_theta | P_Y) in bits.

    Zero exactly when the tilted metric equals the posterior wherever
    P_Y > 0, which is the condition for the metric to achieve rates up
    to I(X;Y); +inf if the metric vanishes on positive posterior mass.
    """
    _check_shapes(ch, p)
    if u_theta.u_theta.shape != ch.w.shape:
        raise ChannelSpecError(
            f"tilted metric shape {u_theta.u_theta.shape} != channel "
            f"shape {ch.w.shape}")
    joint = p.p[:, None] * ch.w
    py = joint.sum(axis=0)
    post = posterior(p, ch).q
    ut = u_theta.u_theta
    mask = (post > 0) & (py[None, :] > 0)
    if np.any(mask & (ut <= 0)):
        return math.inf
    terms = np.where(mask,
                     post * np.log2(np.where(mask, post, 1.0) /
                                    np.where(mask & (ut > 0), ut, 1.0)),
                     0.0)
    return float((py[None, :] * terms).sum())


def sweep_curve(ch: Dmc, p: InputDist,
                metrics: Sequence[Union[DecodingMetric, str]],
                rates: Sequence[float]) -> ExponentCurve:
    """Evaluate er_mismatch_dual per metric per rate plus the
    constant-composition reference column.

    The string "optimal" may appear in place of a metric: the
    compensating metric is then re-optimized at every rate point. Errors
    are re-raised with the offending (metric, rate) named.
    """
    rates = np.asarray(list(rates), dtype=float)
    names = []
    for entry in metrics:
        names.append(entry if isinstance(entry, str) else entry.name)
    if len(set(names)) != len(names) or "cc_reference" in names:
        raise ChannelSpecError(f"metric names must be unique, got {names}")

    columns = {name: np.zeros(len(rates)) for name in names}
    columns["cc_reference"] = np.zeros(len(rates))
    for j, r in enumerate(rates):
        cc = None
        for entry, name in zip(metrics, names):
            try:
                if isinstance(entry, str):
                    if entry != "optimal":
                        raise ChannelSpecError(
                            f"unknown metric selector {entry!r}")
                    from .optimal_metric import optimize_metric
                    om = optimize_metric(ch, p, r)
                    # optimize_metric solved er_cc_dual at this rate
                    val, cc = om.achieved_exponent, om.cc_exponent
                else:
                    val = er_mismatch_dual(ch, p, entry, r).value_bits
            except Exception as exc:
                exc.args = ((f"(metric={name!r}, R={r:g}) "
                             + (str(exc.args[0]) if exc.args else "")),) \
                    + tuple(exc.args[1:])
                raise
            columns[name][j] = val
        if cc is None:
            try:
                cc = er_cc_dual(ch, p, r).value_bits
            except Exception as exc:
                exc.args = ((f"(cc_reference, R={r:g}) "
                             + (str(exc.args[0]) if exc.args else "")),) \
                    + tuple(exc.args[1:])
                raise
        columns["cc_reference"][j] = cc
    return ExponentCurve(rates, columns)
