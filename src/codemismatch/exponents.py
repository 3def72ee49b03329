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

computed here by exchanging min and max (the bracket is convex in V and
concave in rho, so the exchange is exact). Alternating minimization
solves the inner V problem, whose minimizer also yields the Z_rho fixed
point of the compensating metric, and rho_star is a root in rho.

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
import warnings
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
            self.log_u = _log_masked(u.u)
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
    rho in [RHO_FLOOR, 1] and theta_hat = rho*theta in [0, THETA_HAT_MAX].
    Convergence is judged by the projected-gradient norm at the
    returned point, not by the solver's own flag, which reports an
    ABNORMAL line search once steps reach the precision floor; a norm
    above PG_TOL at a positive exponent raises NonConvergentError.
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
    return ExponentResult(best, rho_star=rho, theta_star=that / rho,
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
    """min over Q_{Y|X} of D(Q||W|P_X) + [I_Q(X;Y) - R]_+.

    Each conditional row is parameterized by softmax coordinates over
    the support of the matching W row (the optimum is absolutely
    continuous w.r.t. W, so nothing is lost), minimized by L-BFGS-B
    with the analytic gradient from Q = W plus 5 random restarts, then
    polished with an SLSQP epigraph step (min t subject to t >= both
    branches of the max). The objective is convex, so restarts must
    agree; spread beyond 1e-7 is flagged.
    """
    rp = as_rate(rate)
    _check_shapes(ch, p)
    keep = p.p > 0
    w = ch.w[keep]
    pp = p.p[keep]
    nx, ny = w.shape
    rr = rp.rate_bits

    support = [np.flatnonzero(w[x] > 0) for x in range(nx)]
    sizes = [len(s) for s in support]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    dim = int(offs[-1])
    lw = [np.log(w[x, support[x]]) for x in range(nx)]

    def unpack(coords):
        q = np.zeros((nx, ny))
        for x in range(nx):
            t = coords[offs[x]:offs[x + 1]]
            t = t - _logsumexp(t)
            q[x, support[x]] = np.exp(t)
        return q

    def parts(coords):
        q = unpack(coords)
        qy = pp @ q
        f0 = 0.0
        iq = 0.0
        for x in range(nx):
            qx = q[x, support[x]]
            lq = np.log(np.maximum(qx, 1e-300))
            f0 += pp[x] * (qx * (lq - lw[x])).sum() / LN2
            lqy = np.log(np.maximum(qy[support[x]], 1e-300))
            iq += pp[x] * (qx * (lq - lqy)).sum() / LN2
        return f0, iq, q, qy

    def fval_grad(coords):
        f0, iq, q, qy = parts(coords)
        g = np.zeros(dim)
        active = iq - rr > 0
        for x in range(nx):
            qx = q[x, support[x]]
            lq = np.log(np.maximum(qx, 1e-300))
            d = pp[x] * (lq - lw[x] + 1.0) / LN2
            if active:
                lqy = np.log(np.maximum(qy[support[x]], 1e-300))
                d = d + pp[x] * (lq - lqy) / LN2
            g[offs[x]:offs[x + 1]] = qx * (d - (qx * d).sum())
        return f0 + max(iq - rr, 0.0), g

    # epigraph polish: min t  s.t.  t >= f0, t >= f0 + iq - R
    # (L-BFGS alone stalls on the [.]_+ kink, start-dependently)
    def c1(z):
        f0, _, _, _ = parts(z[:-1])
        return z[-1] - f0

    def c2(z):
        f0, iq, _, _ = parts(z[:-1])
        return z[-1] - (f0 + iq - rr)

    def polish(x0, v0):
        z0 = np.concatenate([x0, [v0 + 1e-9]])
        res = minimize(lambda z: z[-1], z0, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": c1},
                                    {"type": "ineq", "fun": c2}],
                       options={"maxiter": 400, "ftol": 1e-14})
        if not res.success:
            return v0
        f0, iq, _, _ = parts(res.x[:-1])
        return min(v0, max(f0, f0 + iq - rr))

    rng = np.random.default_rng(0)
    starts = [np.concatenate(lw)]
    starts += [rng.normal(0.0, 1.0, dim) for _ in range(5)]
    finals = []
    best_val, nit = math.inf, 0
    for s in starts:
        res = minimize(fval_grad, s, jac=True, method="L-BFGS-B",
                       options={"maxiter": 20000, "ftol": 1e-17,
                                "gtol": 1e-12})
        nit += res.nit
        finals.append(polish(res.x, float(res.fun)))
        best_val = min(best_val, finals[-1])
    if not math.isfinite(best_val):
        raise NonConvergentError("all primal restarts failed",
                                 iterations=nit)
    spread = float(max(finals) - min(finals))
    if spread > 1e-7:
        warnings.warn(
            f"primal restarts disagree by {spread:.3g} on a convex "
            "objective; treat the result with suspicion", RuntimeWarning)

    diags = {"restart_values": [float(v) for v in finals],
             "restart_spread": spread,
             "lbfgs_iterations": nit}
    return ExponentResult(max(best_val, 0.0), diagnostics=diags)


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
