"""Independent computations the benchmark checks the program against.

Nothing here imports codemismatch. Each function re-derives a quantity
from its definition with numpy/scipy alone, so a check that compares the
program with these functions does not share the program's code.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.optimize import minimize

LN2 = math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mutual_information_bits(w: np.ndarray, p: np.ndarray) -> float:
    """I(X;Y) in bits for input law p and channel rows w[x, y]."""
    py = p @ w
    total = 0.0
    for x in range(w.shape[0]):
        for y in range(w.shape[1]):
            if p[x] > 0 and w[x, y] > 0:
                total += p[x] * w[x, y] * math.log2(w[x, y] / py[y])
    return total


def entropy_bits(p: np.ndarray) -> float:
    return -sum(q * math.log2(q) for q in p if q > 0)


def mismatch_threshold_bits(w: np.ndarray, p: np.ndarray,
                            u: np.ndarray) -> float:
    """Largest rate with a positive mismatch exponent for metric u.

    Along each ray (rho, rho * theta) the mismatch dual objective is
    concave and 0 at rho = 0, so the exponent is positive exactly below
    H(P) + sup_theta E[log2 U_theta(X|Y)], U_theta being u^theta
    normalized over x in each output column. The sup over theta of this
    concave function is taken by golden section on [0, 64].
    """
    lu = np.log(u)
    joint = p[:, None] * w

    def gain(theta: float) -> float:
        t = theta * lu
        top = t.max(axis=0)
        norm = top + np.log(np.exp(t - top).sum(axis=0))
        return float((joint * (t - norm)).sum()) / LN2

    theta = _golden_max(gain, 0.0, 64.0, 1e-7)
    return entropy_bits(p) + gain(theta)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Argmax of a concave f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    best = max((f(lo), lo), (f(hi), hi), (f(0.5 * (a + b)), 0.5 * (a + b)))
    return best[1]


class CcExponent:
    """Constant-composition random-coding exponent in bits.

        E(R) = max_{rho in [0,1]} E0(rho) - rho R
        E0(rho) = min_V -(1+rho) sum_x P(x) log2 sum_y
                        W(y|x)^{1/(1+rho)} V(y)^{rho/(1+rho)}

    The inner minimum over the output law V is taken by L-BFGS in
    softmax coordinates with the analytic gradient (the program uses
    alternating minimization); the outer maximum over rho, a concave
    function, by golden-section search.
    """

    def __init__(self, w: np.ndarray, p: np.ndarray):
        keep = p > 0
        self.w = w[keep]
        self.p = p[keep]
        self.logits = np.zeros(w.shape[1])

    def e0(self, rho: float) -> float:
        if rho == 0.0:
            return 0.0
        lw = np.where(self.w > 0, np.log(np.where(self.w > 0, self.w, 1.0)),
                      -np.inf) / (1.0 + rho)
        ex = rho / (1.0 + rho)

        def objective(a):
            lv = a - a.max()
            lv = lv - math.log(np.exp(lv).sum())
            terms = lw + ex * lv[None, :]
            top = terms.max(axis=1, keepdims=True)
            e = np.exp(terms - top)
            s = e.sum(axis=1, keepdims=True)
            val = -(1.0 + rho) * float((self.p * (top[:, 0] + np.log(s[:, 0]))).sum())
            # d/dlv_y of the objective, then through the softmax
            g_lv = -(1.0 + rho) * ex * (self.p[:, None] * e / s).sum(axis=0)
            v = np.exp(lv)
            g = g_lv - v * g_lv.sum()
            return val / LN2, g / LN2

        res = minimize(objective, self.logits, jac=True, method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-16, "gtol": 1e-13})
        self.logits = res.x
        return float(res.fun)

    def value(self, rate: float) -> float:
        phi = lambda rho: self.e0(rho) - rho * rate
        rho = _golden_max(phi, 0.0, 1.0, 1e-9)
        return max(phi(rho), 0.0)


def seed_contract_block(w: np.ndarray, p: np.ndarray, u: np.ndarray,
                        n: int, m: int, k: int, master_seed: int,
                        trials: int) -> dict:
    """Replay a simulate block from its documented per-trial seeds.

    Trial t draws G (k x nm, row-major) then the offset v as uniform
    bits from the generator seeded (master_seed, t, 0); the message
    index, uniform over the composition subcode, and then one uniform
    per symbol for the channel output (inverse-CDF over the row of W)
    from (master_seed, t, 1). Every codeword of the full code is scored
    by the row sum of log u; a tie for the best score counts as an error.
    """
    nm = n * m
    counts = np.rint(p * n).astype(np.int64)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    cum = np.cumsum(w, axis=1)
    weights = 1 << np.arange(m - 1, -1, -1)
    errors = ties = empty = 0
    for t in range(trials):
        rng = np.random.default_rng((master_seed, t, 0))
        g = rng.integers(0, 2, size=(k, nm), dtype=np.uint8)
        v = rng.integers(0, 2, size=nm, dtype=np.uint8)
        table = v[None, :]
        for row in g[::-1]:          # the last row is the least significant
            table = np.concatenate([table, table ^ row[None, :]])
        sym = (table.reshape(-1, n, m).astype(np.int64) * weights).sum(axis=2)
        hist = np.stack([(sym == s).sum(axis=1) for s in range(len(p))], axis=1)
        members = np.flatnonzero((hist == counts[None, :]).all(axis=1))
        if members.size == 0:
            empty += 1
            continue
        rng = np.random.default_rng((master_seed, t, 1))
        sent = int(members[rng.integers(members.size)])
        unif = rng.random(n)
        y = np.minimum((cum[sym[sent]] < unif[:, None]).sum(axis=1),
                       w.shape[1] - 1)
        scores = log_u[sym, y[None, :]].sum(axis=1)
        best = scores.max()
        if int((scores == best).sum()) > 1:
            errors += 1
            ties += 1
        elif int(np.argmax(scores)) != sent:
            errors += 1
    return {"errors": errors, "tie_errors": ties,
            "empty_subcode_trials": empty}


def union_pair(u: np.ndarray, x: tuple, y: tuple, k: int, m: int) -> dict:
    """Exact union-of-errors probability for message 0 sent as x.

    M is the set of length-n symbol sequences whose score against y,
    summed position by position from the first, is at least the score
    of x. Conditioned on message 0 the offset equals x's bits, so the
    union event is a function of G alone; all 2^(k n m) matrices are
    enumerated. Returns |M|, the probability and its sandwich bounds.
    """
    nx = u.shape[0]
    n = len(x)
    nm = n * m
    with np.errstate(divide="ignore"):
        log_u = np.log(u)

    def score(seq):
        total = 0.0
        for s, t in zip(seq, y):
            total += float(log_u[s, t])
        return total

    s0 = score(x)
    seqs = list(product(range(nx), repeat=n))
    member = np.array([score(s) >= s0 for s in seqs])
    m_size = int(member.sum())

    x_bits = np.array([(s >> (m - 1 - j)) & 1 for s in x for j in range(m)])
    total = 2 ** (k * nm)
    g_all = ((np.arange(total)[:, None] >> np.arange(k * nm)[None, :]) & 1
             ).reshape(total, k, nm)
    msgs = np.array([[(w >> (k - 1 - j)) & 1 for j in range(k)]
                     for w in range(1, 2 ** k)])
    cw = (np.einsum("wj,gjn->gwn", msgs, g_all) + x_bits) % 2
    sym = (cw.reshape(total, len(msgs), n, m)
           * (1 << np.arange(m - 1, -1, -1))).sum(axis=3)
    index = (sym * (nx ** np.arange(n - 1, -1, -1))).sum(axis=2)
    union = member[index].any(axis=1)
    prob = int(union.sum()) / total
    alpha = m_size / nx ** n
    return {"m_size": m_size, "union_prob": prob,
            "lower": min(0.5, (2 ** k - 2) * alpha / 2.0),
            "upper": min(1.0, m_size * 2.0 ** (k - nm + 1))}


def fixed_point_residual(w: np.ndarray, p: np.ndarray, rho: float,
                         z: np.ndarray) -> float:
    """Sup-norm relative defect of one substitution of the Z_rho map:

        Z(x) = sum_y W(y|x)^{1/(1+rho)}
                     [sum_x' P(x') W(y|x')^{1/(1+rho)} / Z(x')]^rho
    """
    keep = p > 0
    wp = w[keep] ** (1.0 / (1.0 + rho))
    zs = z[keep]
    zeta = (p[keep] / zs) @ wp
    image = wp @ zeta ** rho
    return float(np.max(np.abs(image - zs) / zs))


def compensating_metric(w: np.ndarray, p: np.ndarray, rho: float,
                        z: np.ndarray) -> np.ndarray:
    """U(x|y) proportional to P(x) W(y|x)^{1/(1+rho)} / Z(x), columns
    normalized over x; zero rows at zero-mass inputs."""
    keep = p > 0
    raw = np.zeros_like(w)
    raw[keep] = (p[keep] / z[keep])[:, None] * w[keep] ** (1.0 / (1.0 + rho))
    return raw / raw.sum(axis=0, keepdims=True)
