"""Monte-Carlo validation of the mismatch model on random linear codes.

The ensemble: G is a uniform k x nm binary matrix, v a uniform length-nm
offset, c(w) = b(w) G xor v over GF(2) with b(w) the MSB-first binary
expansion of the message index. Bit strings become symbol strings through
the natural blockwise labeling (m bits per symbol, block read as an
integer). The encoder only ever transmits members of one exact type
class; the decoder ranks ALL 2^k codewords by an additive metric. That
asymmetry is the object under test, so the decoder never shortcuts by
subcode membership.

Everything randomized is a pure function of its seed. Per-trial
generators derive from (master_seed, trial, stream) tuples, so any
single trial replays in isolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import chdtrc

from .channel import DecodingMetric, Dmc, InputDist
from .errors import (AllZeroScoreError, ChannelSpecError, CompositionError,
                     SizeCapError)

__all__ = [
    "CodeParams",
    "Labeling",
    "LinearCodeInstance",
    "SubcodeSelection",
    "TrialReport",
    "IndependenceReport",
    "UnionPairResult",
    "UnionBoundReport",
    "sample_code",
    "select_subcode",
    "decode",
    "run_trials",
    "independence_probe",
    "union_bound_probe",
]

NM_CAP = 24          # exhaustive decoding: 2^k codewords of nm bits
K_CAP = 20
PROBE_NM_CAP = 10    # independence_probe cell tables
TRIPLE_BITS_CAP = 24 # 3*nm above this skips the triple cell table
UNION_K_CAP = 8
UNION_NM_CAP = 20    # 2^nm sequence-score table
BLOCK_ELEMENTS = 1 << 17  # (trials, 2^k, n) entries per run_trials block

_SeedLike = Union[int, Sequence[int]]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CodeParams:
    """Block structure: n symbols of m bits each, FEC rate r_fec."""

    n: int
    m: int
    r_fec: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ChannelSpecError(f"need n >= 1 and m >= 1, got "
                                   f"n={self.n}, m={self.m}")
        if not (0.0 < self.r_fec <= 1.0):
            raise ChannelSpecError(f"r_fec = {self.r_fec} outside (0, 1]")

    @property
    def nm(self) -> int:
        return self.n * self.m

    @property
    def k(self) -> int:
        return int(round(self.nm * self.r_fec))

    @property
    def k_integral(self) -> bool:
        return abs(self.nm * self.r_fec - self.k) < 1e-9


@dataclass(frozen=True)
class Labeling:
    """Blockwise natural-binary map from m-bit strings to symbols.

    phi is the identity on {0, ..., 2^m - 1}: an m-bit block read
    MSB-first as an integer is the symbol index. Fixed rather than
    arbitrary so runs are reproducible; ensemble statistics do not
    depend on the choice.
    """

    m: int

    @property
    def phi(self) -> np.ndarray:
        return np.arange(2 ** self.m)

    def apply(self, bits: np.ndarray) -> np.ndarray:
        """Map (..., n*m) bit arrays to (..., n) symbol-index arrays."""
        bits = np.asarray(bits)
        if bits.shape[-1] % self.m:
            raise ChannelSpecError(
                f"bit length {bits.shape[-1]} not a multiple of m={self.m}")
        n = bits.shape[-1] // self.m
        pw = (1 << np.arange(self.m - 1, -1, -1)).astype(np.int64)
        return bits.reshape(*bits.shape[:-1], n, self.m) @ pw


@dataclass(frozen=True)
class LinearCodeInstance:
    n: int
    m: int
    k: int
    g: np.ndarray
    v: np.ndarray
    seed: object = None

    def __post_init__(self):
        object.__setattr__(self, "g",
                           _readonly(np.asarray(self.g, dtype=np.uint8)))
        object.__setattr__(self, "v",
                           _readonly(np.asarray(self.v, dtype=np.uint8)))
        nm = self.n * self.m
        if self.g.shape != (self.k, nm):
            raise ChannelSpecError(
                f"G has shape {self.g.shape}, expected {(self.k, nm)}")
        if self.v.shape != (nm,):
            raise ChannelSpecError(
                f"v has shape {self.v.shape}, expected ({nm},)")

    @property
    def nm(self) -> int:
        return self.n * self.m

    @cached_property
    def codewords(self) -> np.ndarray:
        """(2^k, nm) table of c(w) = b(w) G xor v: its 1-bit symbols."""
        cw = _codeword_ints(self.g, self.v)
        return _readonly(_symbols(cw, self.nm, 1).astype(np.uint8))


def _codeword_ints(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., k, nm) bits of G and (..., nm) of v to the (..., 2^k) int64
    c(w), position 0 most significant, doubling over G's rows from the
    last, which is the least significant bit of w."""
    k, nm = g.shape[-2:]
    if nm > 63:
        raise SizeCapError(f"n*m = {nm} exceeds the 63 bits of an int64")
    pw = np.left_shift(1, np.arange(nm - 1, -1, -1, dtype=np.int64))
    rows = g.astype(np.int64) @ pw
    cw = np.empty(v.shape[:-1] + (1 << k,), dtype=np.int64)
    cw[..., 0] = v.astype(np.int64) @ pw
    for j in range(k):
        cw[..., 1 << j:2 << j] = cw[..., :1 << j] ^ rows[..., k - 1 - j, None]
    return cw


def _symbols(cw: np.ndarray, n: int, m: int) -> np.ndarray:
    """(..., 2^k) packed codewords to (..., 2^k, n) natural-labeling symbols."""
    shifts = m * np.arange(n - 1, -1, -1, dtype=np.int64)
    return (cw[..., None] >> shifts) & ((1 << m) - 1)


def _code_symbols(code: LinearCodeInstance, labeling: Labeling) -> np.ndarray:
    if labeling.m != code.m:
        raise ChannelSpecError(
            f"labeling is for m={labeling.m} bits, code has m={code.m}")
    return _symbols(_codeword_ints(code.g, code.v), code.n, code.m)


def _draw_code(seed: _SeedLike, k: int, nm: int) -> tuple:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(k, nm), dtype=np.uint8),
            rng.integers(0, 2, size=nm, dtype=np.uint8))


def _check_code_params(params: CodeParams) -> None:
    if params.nm > NM_CAP:
        raise SizeCapError(f"n*m = {params.nm} exceeds cap {NM_CAP}")
    if params.k > K_CAP:
        raise SizeCapError(f"k = {params.k} exceeds cap {K_CAP}")
    if not params.k_integral:
        warnings.warn(f"n*m*r_fec = {params.nm * params.r_fec:g} is not "
                      f"integral; rounding k to {params.k}", RuntimeWarning)


def sample_code(n: int, m: int, r_fec: float, seed: _SeedLike,
                xor_offset: Optional[np.ndarray] = None) -> LinearCodeInstance:
    """Draw (G, v) with i.i.d. uniform bits from the seeded generator.

    Draw order is fixed (G row-major, then v) so instances replay from
    the seed alone. xor_offset, when given, is folded into v after
    sampling; with identical seeds the offset sampler's code is the
    baseline code translated by the offset, which is the handle used to
    check coset invariance of ensemble statistics.
    """
    params = CodeParams(n=n, m=m, r_fec=r_fec)
    _check_code_params(params)
    g, v = _draw_code(seed, params.k, params.nm)
    if xor_offset is not None:
        off = np.asarray(xor_offset, dtype=np.uint8)
        if off.shape != (params.nm,):
            raise ChannelSpecError(
                f"xor_offset has shape {off.shape}, expected ({params.nm},)")
        v = v ^ off
    return LinearCodeInstance(n=n, m=m, k=params.k, g=g, v=v, seed=seed)


@dataclass(frozen=True)
class SubcodeSelection:
    """Messages whose codewords land exactly in the target type class."""

    composition: np.ndarray
    member_indices: np.ndarray
    effective_rate: float

    def __post_init__(self):
        object.__setattr__(self, "composition",
                           _readonly(np.asarray(self.composition, dtype=np.int64)))
        object.__setattr__(self, "member_indices",
                           _readonly(np.asarray(self.member_indices, dtype=np.int64)))

    @property
    def size(self) -> int:
        return len(self.member_indices)


def composition_counts(p: InputDist, n: int) -> np.ndarray:
    """Integer symbol counts n * P_X, or CompositionError if not exact."""
    raw = p.p * n
    counts = np.rint(raw).astype(np.int64)
    bad = np.flatnonzero(np.abs(raw - counts) > 1e-9)
    if bad.size:
        raise CompositionError(
            f"n*P_X is not integral at symbol(s) {bad.tolist()} "
            f"(n={n}, values {raw[bad].tolist()})")
    return counts


def _composition(p: InputDist, n: int, m: int) -> tuple:
    """counts = n*P_X, and symbol weights summing to target over a word
    exactly when its histogram is counts: a base-(n+1) digit per symbol of
    positive count, one shared by the rest; no carries, < 2^64 for nm <= 63."""
    counts = composition_counts(p, n)
    if len(p.p) < 2 ** m:
        raise ChannelSpecError(
            f"input distribution covers {len(p.p)} symbols, labeling "
            f"needs {2 ** m}")
    own = counts[:1 << m] > 0
    rank = np.where(own, np.cumsum(own) - 1, own.sum())
    weights = np.uint64(n + 1) ** rank.astype(np.uint64)
    return counts, weights, (counts[:1 << m].astype(np.uint64) * weights).sum()


def select_subcode(code: LinearCodeInstance, labeling: Labeling,
                   p: InputDist) -> SubcodeSelection:
    """Keep exactly the codewords whose symbol histogram matches n*P_X.

    An empty selection is a legitimate outcome for an unlucky (G, v)
    draw; it is reported with effective_rate -inf, never resampled here.
    """
    counts, weights, target = _composition(p, code.n, code.m)
    sym = _code_symbols(code, labeling)
    members = np.flatnonzero(np.take(weights, sym).sum(axis=-1) == target)
    eff = math.log2(len(members)) / code.n if len(members) else -math.inf
    return SubcodeSelection(composition=counts, member_indices=members,
                            effective_rate=eff)


def _log_metric(u: DecodingMetric, m: int) -> np.ndarray:
    if u.u.shape[0] < 2 ** m:
        raise ChannelSpecError(
            f"metric covers {u.u.shape[0]} inputs, labeling needs {2 ** m}")
    with np.errstate(divide="ignore"):
        return np.log(u.u)


def _rank(sym: np.ndarray, log_u: np.ndarray, y: np.ndarray) -> tuple:
    """First argmax and tie count of the additive scores of (B, 2^k, n)
    codeword symbols against (B, n) outputs; one row sum per codeword."""
    scores = log_u[sym, y[:, None, :]].sum(axis=-1)
    best = scores.max(axis=-1, keepdims=True)
    if np.any(best == -math.inf):
        raise AllZeroScoreError(
            "every codeword hits a zero-metric position for this output")
    top = scores == best
    return top.argmax(axis=-1), top.sum(axis=-1)


def decode(code: LinearCodeInstance, labeling: Labeling, u: DecodingMetric,
           y: np.ndarray) -> tuple[int, bool]:
    """Rank all 2^k messages by the additive log-metric score.

    Returns (first argmax, tie flag). The scan always covers the full
    code; restricting to a subcode would erase the mismatch under study.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != code.n:
        raise ChannelSpecError(f"y has shape {y.shape}, expected ({code.n},)")
    w_hat, ties = _rank(_code_symbols(code, labeling)[None],
                        _log_metric(u, code.m), y[None])
    return int(w_hat[0]), bool(ties[0] > 1)


@dataclass(frozen=True)
class TrialReport:
    """Ensemble error-rate estimate with full seed bookkeeping.

    Ties count as errors (the decoder's >= event) and are also tallied
    separately. Trials whose subcode came up empty are skipped and
    counted; they never enter the denominator.
    """

    trials: int
    decoded_trials: int
    empty_subcode_trials: int
    errors: int
    tie_errors: int
    empirical_log2_pe: float
    master_seed: int
    per_trial_seeds: tuple = field(repr=False, default=())
    empty_dominated: bool = False

    @property
    def error_rate(self) -> float:
        return self.errors / self.decoded_trials if self.decoded_trials else math.nan

    @property
    def wilson_interval(self) -> tuple:
        """95% Wilson score interval (Wilson 1927) around error_rate, or NaNs."""
        d, e, z = self.decoded_trials, self.errors, 1.959963984540054
        if not d:
            return (math.nan, math.nan)
        mid = (e + z * z / 2) / (d + z * z)
        half = z * math.sqrt(e * (d - e) / d + z * z / 4) / (d + z * z)
        return (max(0.0, mid - half), min(1.0, mid + half))


def _sample_outputs(ch: Dmc, x_idx: np.ndarray, unif: np.ndarray) -> np.ndarray:
    cum = np.cumsum(ch.w, axis=1)
    idx = (cum[x_idx] < unif[..., None]).sum(axis=-1)
    # row sums are 1 only within tolerance; clip the residual sliver
    return np.minimum(idx, ch.output_size - 1)


def run_trials(ch: Dmc, p: InputDist, code_params: CodeParams,
               u: DecodingMetric, trials: int, master_seed: int) -> TrialReport:
    """Estimate the ensemble average error probability.

    Per trial t: a fresh code from seed (master_seed, t, 0); the message
    index and channel noise from (master_seed, t, 1), drawn in that
    order and only when the subcode is not empty. The message is uniform
    over the subcode members; the decoder sees the full code. The draws
    stay per trial; all else runs on blocks of about BLOCK_ELEMENTS symbols.
    """
    if trials < 1:
        raise ChannelSpecError(f"trials = {trials}, need >= 1")
    n, m, k, nm = code_params.n, code_params.m, code_params.k, code_params.nm
    _check_code_params(code_params)
    if 2 ** m > ch.input_size:
        raise ChannelSpecError(
            f"m = {m} needs {2 ** m} input symbols, channel has {ch.input_size}")
    _, weights, target = _composition(p, n, m)
    log_u = _log_metric(u, m)

    errors = tie_errors = empty = 0
    block = max(1, BLOCK_ELEMENTS // ((1 << k) * n))
    for t0 in range(0, trials, block):
        b = min(block, trials - t0)
        g, v = zip(*(_draw_code((master_seed, t, 0), k, nm)
                     for t in range(t0, t0 + b)))
        sym = _symbols(_codeword_ints(np.stack(g), np.stack(v)), n, m)
        ok = np.take(weights, sym).sum(axis=-1) == target
        size = ok.sum(axis=1)
        live = np.flatnonzero(size)
        empty += b - live.size
        rngs = [np.random.default_rng((master_seed, t0 + int(i), 1)) for i in live]
        pick = np.array([r.integers(int(size[i])) for r, i in zip(rngs, live)])
        unif = np.array([r.random(n) for r in rngs]).reshape(-1, n)
        sym, ok = sym[live], ok[live]
        # the pick-th member is preceded by exactly pick members
        sent = (np.cumsum(ok, axis=1) <= pick[:, None]).sum(axis=1)
        y = _sample_outputs(ch, sym[np.arange(live.size), sent], unif)
        w_hat, ties = _rank(sym, log_u, y)
        tie_errors += int((ties > 1).sum())
        errors += int(((ties > 1) | (w_hat != sent)).sum())

    decoded = trials - empty
    dominated = empty > trials // 2
    if dominated:
        warnings.warn(
            f"{empty}/{trials} trials had empty subcodes; parameters are "
            "poorly chosen for this composition", RuntimeWarning)
    if decoded and errors:
        log2_pe = -math.log2(errors / decoded)
    else:
        log2_pe = math.inf
    return TrialReport(trials=trials, decoded_trials=decoded,
                       empty_subcode_trials=empty, errors=errors,
                       tie_errors=tie_errors, empirical_log2_pe=log2_pe,
                       master_seed=master_seed,
                       per_trial_seeds=tuple((master_seed, t, 0)
                                             for t in range(trials)),
                       empty_dominated=dominated)


@dataclass(frozen=True)
class IndependenceReport:
    """Chi-square uniformity checks of the codeword ensemble.

    Singles are tested per message index; the pair and the XOR-linked
    triple each get one table. p-values near 0 reject uniformity.
    """

    samples: int
    nm: int
    k: int
    single_p: dict
    pair_p: Optional[float]
    pair_messages: Optional[tuple]
    triple_p: Optional[float]
    triple_messages: Optional[tuple]
    triple_vacuous: bool
    triple_skipped: Optional[str] = None
    zero_offset: bool = False


def independence_probe(code_params: CodeParams, samples: int,
                       master_seed: int,
                       zero_offset: bool = False) -> IndependenceReport:
    """Sample (G, v) and test the uniformity claims behind the ensemble.

    (a) c(w) uniform on {0,1}^nm for each tested single w; (b) a pair
    (c(w), c(w')) uniform on the product space; (c) the XOR-linked
    triple (w, w', w xor w') uniform on the triple space. zero_offset
    forces v = 0, a deliberately broken ensemble where c(0) is constant.

    The triple table needs 2^{3 nm} cells; above TRIPLE_BITS_CAP total
    bits it is skipped with a reason rather than allocated.
    """
    nm, k = code_params.nm, code_params.k
    if nm > PROBE_NM_CAP:
        raise SizeCapError(f"n*m = {nm} exceeds probe cap {PROBE_NM_CAP}")
    if samples < 1:
        raise ChannelSpecError("samples must be >= 1")

    singles = [0, 1] if k >= 1 else [0]
    pair = (1, 2) if k >= 2 else ((0, 1) if k == 1 else None)
    triple = (1, 2, 3) if k >= 2 else None
    triple_skipped = None
    if triple is not None and 3 * nm > TRIPLE_BITS_CAP:
        triple_skipped = (f"3*nm = {3 * nm} bits exceeds triple cell cap "
                          f"{TRIPLE_BITS_CAP}")
        triple = None

    single_counts = {w: np.zeros(2 ** nm, dtype=np.int64) for w in singles}
    pair_counts = (np.zeros(2 ** (2 * nm), dtype=np.int64)
                   if pair is not None else None)
    triple_counts = (np.zeros(2 ** (3 * nm), dtype=np.int64)
                     if triple is not None else None)

    rng = np.random.default_rng(master_seed)
    chunk = 1 << 17
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        g = rng.integers(0, 2, size=(b, k, nm), dtype=np.uint8)
        v = rng.integers(0, 2, size=(b, nm), dtype=np.uint8)
        if zero_offset:
            v = np.zeros_like(v)
        # the last two rows of G are the low bits of w: c(0), ..., c(3)
        idx = _codeword_ints(g[:, -2:], v)
        for w in singles:
            single_counts[w] += np.bincount(idx[:, w], minlength=2 ** nm)
        if pair is not None:
            pi = idx[:, pair[0]] * (2 ** nm) + idx[:, pair[1]]
            pair_counts += np.bincount(pi, minlength=2 ** (2 * nm))
        if triple is not None:
            ti = ((idx[:, triple[0]] * (2 ** nm) + idx[:, triple[1]])
                  * (2 ** nm) + idx[:, triple[2]])
            triple_counts += np.bincount(ti, minlength=2 ** (3 * nm))
        done += b

    def pval(counts: np.ndarray) -> float:
        """Pearson's statistic against the uniform table and its chi-square
        survival function, the same operations as scipy.stats.chisquare."""
        if counts.min() == counts.max():
            return 1.0   # statistic 0; an all-zero table would divide by 0
        f = counts.astype(np.float64)
        e = f.mean(keepdims=True)
        return float(chdtrc(f.size - 1, ((f - e) ** 2 / e).sum()))

    single_p = {w: pval(c) for w, c in single_counts.items()}
    pair_p = pval(pair_counts) if pair is not None else None
    triple_p = pval(triple_counts) if triple is not None else None
    return IndependenceReport(
        samples=samples, nm=nm, k=k, single_p=single_p,
        pair_p=pair_p, pair_messages=pair,
        triple_p=triple_p, triple_messages=triple,
        triple_vacuous=(k < 2 and triple_skipped is None),
        triple_skipped=triple_skipped, zero_offset=zero_offset)


@dataclass(frozen=True)
class UnionPairResult:
    """Union-of-errors probability vs its sandwich at one (x, y)."""

    x: tuple
    y: tuple
    m_size: int
    alpha: float
    union_prob: float
    lower_decaen: float
    upper_truncated: float
    upper_union: float
    in_sandwich: bool
    mode: str
    draws: int


@dataclass(frozen=True)
class UnionBoundReport:
    k: int
    nm: int
    pairs: tuple
    all_in_sandwich: bool
    master_seed: int


def _sequence_score_table(log_u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scores of every symbol sequence in X^n against y, ravel order
    matching base-|X| integer encoding (first position most significant)."""
    cols = [log_u[:, yi] for yi in y]
    return reduce(np.add.outer, cols).ravel()


def union_bound_probe(ch: Dmc, p: InputDist, code_params: CodeParams,
                      u: DecodingMetric, trials: int,
                      master_seed: int = 0, *, n_pairs: int = 6,
                      exact_limit: int = 1 << 20) -> UnionBoundReport:
    """Sandwich the union-of-pairwise-errors probability at sampled (x, y).

    M(x, y) is counted exhaustively over all |X|^n candidate sequences
    with the >= tie convention (so x itself is in M and alpha >= |X|^-n).
    Conditioning on message 0 pins v to the transmitted bits, leaving
    the union event a function of G alone: when 2^{k*nm} <= exact_limit
    every G is enumerated and the union probability is exact; otherwise
    `trials` sampled G draws estimate it, each draw still evaluating all
    2^k - 1 competitors exhaustively. Membership in M is looked up by
    integer sequence index, never by re-summed float scores, so the
    count and the union event agree bitwise.
    """
    k, nm, n, m = code_params.k, code_params.nm, code_params.n, code_params.m
    if k > UNION_K_CAP:
        raise SizeCapError(f"k = {k} exceeds union probe cap {UNION_K_CAP}")
    if nm > UNION_NM_CAP:
        raise SizeCapError(f"n*m = {nm} exceeds union probe cap {UNION_NM_CAP}")
    if 2 ** m > ch.input_size or u.u.shape != ch.w.shape:
        raise ChannelSpecError("metric/channel shapes do not match the code")
    if trials < 1:
        raise ChannelSpecError("trials must be >= 1")

    nx = ch.input_size
    with np.errstate(divide="ignore"):
        log_u = np.log(u.u)
    seq_pow = (nx ** np.arange(n - 1, -1, -1)).astype(np.int64)

    exact = 2 ** (k * nm) <= exact_limit
    pair_rng = np.random.default_rng((master_seed, 1))

    def union_over_g(g_bits: np.ndarray, x_bits: np.ndarray,
                     member: np.ndarray) -> np.ndarray:
        v = np.broadcast_to(x_bits, (len(g_bits), nm))
        competitors = _codeword_ints(g_bits, v)[..., 1:]
        seq_idx = _symbols(competitors, n, m) @ seq_pow
        return member[seq_idx].any(axis=1)

    results = []
    for _ in range(n_pairs):
        x_sym = pair_rng.choice(nx, size=n, p=p.p)
        y = _sample_outputs(ch, x_sym, pair_rng.random(n))
        table = _sequence_score_table(log_u, y)
        s0 = table[int(x_sym @ seq_pow)]
        if s0 == -math.inf:
            raise AllZeroScoreError(
                "sampled (x, y) has zero metric score; cannot rank")
        member = table >= s0
        m_size = int(member.sum())
        alpha = m_size / nx ** n

        x_bits = ((x_sym[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
                  ).reshape(nm).astype(np.int64)
        if exact:
            total = 2 ** (k * nm)
            hits = 0
            draws = total
            shifts = np.arange(k * nm - 1, -1, -1)
            for lo in range(0, total, 1 << 16):
                hi = min(lo + (1 << 16), total)
                enc = np.arange(lo, hi, dtype=np.int64)
                g_bits = ((enc[:, None] >> shifts[None, :]) & 1).reshape(
                    hi - lo, k, nm)
                hits += int(union_over_g(g_bits, x_bits, member).sum())
            union_prob = hits / total
            mode = "exact"
        else:
            g_rng = np.random.default_rng((master_seed, 2, len(results)))
            hits = 0
            draws = trials
            for lo in range(0, trials, 1 << 14):
                b = min(1 << 14, trials - lo)
                g_bits = g_rng.integers(0, 2, size=(b, k, nm))
                hits += int(union_over_g(g_bits, x_bits, member).sum())
            union_prob = hits / trials
            mode = "mc"

        lower = min(0.5, (2 ** k - 2) * alpha / 2.0)
        upper_tr = min(1.0, m_size * 2.0 ** (k - nm + 1))
        upper_pl = min(1.0, (2 ** k - 1) * alpha)
        results.append(UnionPairResult(
            x=tuple(int(s) for s in x_sym), y=tuple(int(t) for t in y),
            m_size=m_size, alpha=alpha, union_prob=union_prob,
            lower_decaen=lower, upper_truncated=upper_tr,
            upper_union=upper_pl,
            in_sandwich=lower <= union_prob <= upper_tr,
            mode=mode, draws=draws))

    return UnionBoundReport(k=k, nm=nm, pairs=tuple(results),
                            all_in_sandwich=all(r.in_sandwich for r in results),
                            master_seed=master_seed)
