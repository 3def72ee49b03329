"""Linear code ensemble, subcode selection, decoding, and probes."""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from codemismatch import (AllZeroScoreError, ChannelSpecError, CodeParams,
                          CompositionError, DecodingMetric, Dmc, InputDist,
                          Labeling, LinearCodeInstance, SizeCapError,
                          TrialReport, composition_counts, decode,
                          independence_probe, map_metric, ml_metric,
                          run_trials, sample_code, select_subcode,
                          union_bound_probe)
from codemismatch import simulation

UNIFORM2 = InputDist(p=np.array([0.5, 0.5]))
IDENTITY2 = Dmc(input_size=2, output_size=2, w=np.eye(2))


def test_code_params_derived_sizes():
    cp = CodeParams(n=4, m=2, r_fec=0.5)
    assert cp.nm == 8 and cp.k == 4 and cp.k_integral
    assert not CodeParams(n=3, m=1, r_fec=0.5).k_integral
    with pytest.raises(ChannelSpecError):
        CodeParams(n=0, m=1, r_fec=0.5)
    with pytest.raises(ChannelSpecError):
        CodeParams(n=4, m=1, r_fec=1.5)


def test_labeling_packs_msb_first():
    lab = Labeling(m=2)
    assert lab.apply(np.array([1, 0, 0, 1, 1, 1])).tolist() == [2, 1, 3]
    batch = lab.apply(np.array([[0, 0, 0, 1], [1, 1, 1, 0]]))
    assert batch.tolist() == [[0, 1], [3, 2]]
    assert np.array_equal(Labeling(m=1).apply(np.array([0, 1, 1])),
                          np.array([0, 1, 1]))
    with pytest.raises(ChannelSpecError):
        lab.apply(np.array([1, 0, 1]))


def test_sample_code_replays_from_seed():
    a = sample_code(4, 2, 0.5, seed=11)
    b = sample_code(4, 2, 0.5, seed=11)
    assert np.array_equal(a.g, b.g) and np.array_equal(a.v, b.v)
    c = sample_code(4, 2, 0.5, seed=12)
    assert not (np.array_equal(a.g, c.g) and np.array_equal(a.v, c.v))
    assert a.codewords.shape == (2 ** 4, 8)


def test_sample_code_offset_translates_codewords():
    off = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    base = sample_code(4, 2, 0.5, seed=7)
    shifted = sample_code(4, 2, 0.5, seed=7, xor_offset=off)
    assert np.array_equal(shifted.codewords, base.codewords ^ off)
    with pytest.raises(ChannelSpecError):
        sample_code(4, 2, 0.5, seed=7, xor_offset=off[:5])


def test_sample_code_caps_and_rounding():
    with pytest.raises(SizeCapError):
        sample_code(25, 1, 0.5, seed=0)
    with pytest.raises(SizeCapError):
        sample_code(24, 1, 1.0, seed=0)
    with pytest.warns(RuntimeWarning, match="not integral"):
        sample_code(3, 1, 0.5, seed=0)


def test_sample_code_rate_zero_is_offset_only():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = sample_code(4, 1, 0.1, seed=9)  # k rounds to 0
    assert code.codewords.shape == (1, 4)
    assert np.array_equal(code.codewords[0], code.v)


def test_codewords_xor_linear():
    code = sample_code(3, 2, 0.5, seed=5)
    cw = code.codewords
    for w in range(8):
        for wp in range(8):
            lhs = cw[w] ^ cw[wp] ^ code.v
            assert np.array_equal(lhs, cw[w ^ wp]), (w, wp)


def test_composition_counts_integral_or_error():
    assert composition_counts(InputDist(p=np.full(4, 0.25)), 8).tolist() == [2, 2, 2, 2]
    with pytest.raises(CompositionError, match=r"symbol\(s\) \[0, 1\]"):
        composition_counts(InputDist(p=np.array([0.3, 0.7])), 4)


def test_select_subcode_members_match_composition():
    p = InputDist(p=np.array([0.125, 0.375, 0.375, 0.125]))
    code = sample_code(8, 2, 0.5, seed=3)
    lab = Labeling(m=2)
    sel = select_subcode(code, lab, p)
    counts = composition_counts(p, 8)
    assert sel.size > 0
    for w in sel.member_indices:
        sym = lab.apply(code.codewords[w])
        assert np.array_equal(np.bincount(sym, minlength=4), counts)
    assert sel.effective_rate == pytest.approx(math.log2(sel.size) / 8)


def test_select_subcode_point_mass_composition():
    code = sample_code(4, 1, 0.5, seed=2)
    sel = select_subcode(code, Labeling(m=1), InputDist(p=np.array([1.0, 0.0])))
    for w in sel.member_indices:
        assert not code.codewords[w].any()


def test_select_subcode_empty_is_reported_not_resampled():
    code = LinearCodeInstance(n=4, m=1, k=0,
                              g=np.zeros((0, 4), dtype=np.uint8),
                              v=np.array([1, 1, 1, 1], dtype=np.uint8))
    sel = select_subcode(code, Labeling(m=1), UNIFORM2)
    assert sel.size == 0
    assert sel.effective_rate == -math.inf


def test_select_subcode_validates_labeling_and_alphabet():
    code = sample_code(4, 2, 0.5, seed=0)
    with pytest.raises(ChannelSpecError, match="labeling"):
        select_subcode(code, Labeling(m=1), InputDist(p=np.full(4, 0.25)))
    with pytest.raises(ChannelSpecError, match="symbols"):
        select_subcode(code, Labeling(m=2), UNIFORM2)


def test_select_subcode_mean_size_matches_ensemble():
    """Each of the 2^k codewords is marginally uniform, so the expected
    subcode size is 2^k * |T| / 2^nm = 4096 * 2520 / 65536 = 157.5."""
    p = InputDist(p=np.full(4, 0.25))
    lab = Labeling(m=2)
    sizes = np.array([select_subcode(sample_code(8, 2, 0.75, seed=s), lab, p).size
                      for s in range(1000)], dtype=float)
    se = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(sizes.mean() - 157.5) < 3 * se


def test_decode_noiseless_recovers_message():
    ch = Dmc(input_size=2, output_size=2, w=np.array([[0.9, 0.1], [0.2, 0.8]]))
    code = sample_code(6, 1, 0.5, seed=0)  # this seed gives 8 distinct codewords
    assert np.unique(code.codewords, axis=0).shape[0] == 8
    lab = Labeling(m=1)
    u = ml_metric(ch)
    for w in range(8):
        y = lab.apply(code.codewords[w])
        w_hat, tie = decode(code, lab, u, y)
        assert (w_hat, tie) == (w, False)


def test_decode_constant_metric_ties():
    code = sample_code(4, 1, 0.5, seed=1)
    u = DecodingMetric(u=np.full((2, 2), 0.5), name="flat")
    w_hat, tie = decode(code, Labeling(m=1), u, np.array([0, 1, 0, 1]))
    assert w_hat == 0 and tie


def test_decode_matches_naive_rescan(paper_channel):
    ch, p = paper_channel
    code = sample_code(3, 2, 0.5, seed=13)
    lab = Labeling(m=2)
    u = map_metric(p, ch)
    rng = np.random.default_rng(8)
    for _ in range(25):
        y = rng.integers(0, 4, size=3)
        scores = []
        for w in range(2 ** code.k):
            sym = lab.apply(code.codewords[w])
            scores.append(sum(math.log(u.u[s, t]) if u.u[s, t] else -math.inf
                              for s, t in zip(sym, y)))
        best = max(scores)
        naive = (scores.index(best), sum(s == best for s in scores) > 1)
        assert decode(code, lab, u, y) == naive


def test_decode_invariant_to_per_output_scaling():
    # a generic metric: symmetric ones tie distinct codewords exactly,
    # and those ties are rounding-fragile under rescaling
    rng = np.random.default_rng(14)
    u = DecodingMetric(u=rng.uniform(0.05, 1.0, size=(4, 4)), name="generic")
    code = sample_code(3, 2, 0.5, seed=13)
    lab = Labeling(m=2)
    scaled = DecodingMetric(u=u.u * np.array([3.0, 0.25, 1.0, 7.5])[None, :],
                            name="scaled")
    for _ in range(25):
        y = rng.integers(0, 4, size=3)
        assert decode(code, lab, u, y) == decode(code, lab, scaled, y)


def test_decode_all_zero_scores_raise():
    code = LinearCodeInstance(n=4, m=1, k=0,
                              g=np.zeros((0, 4), dtype=np.uint8),
                              v=np.zeros(4, dtype=np.uint8))
    u = DecodingMetric(u=np.array([[0.9, 0.0], [0.0, 0.8]]), name="hard")
    with pytest.raises(AllZeroScoreError):
        decode(code, Labeling(m=1), u, np.array([1, 1, 1, 1]))


def test_decode_validates_shapes():
    code = sample_code(4, 2, 0.5, seed=0)
    u4 = DecodingMetric(u=np.full((4, 4), 0.25))
    with pytest.raises(ChannelSpecError, match="shape"):
        decode(code, Labeling(m=2), u4, np.array([0, 1]))
    u2 = DecodingMetric(u=np.full((2, 2), 0.5))
    with pytest.raises(ChannelSpecError, match="metric covers"):
        decode(code, Labeling(m=2), u2, np.array([0, 1, 0, 1]))


def test_decode_rejects_mismatched_labeling():
    code = sample_code(4, 2, 0.5, seed=0)
    u4 = DecodingMetric(u=np.full((4, 4), 0.25))
    with pytest.raises(ChannelSpecError, match="labeling"):
        decode(code, Labeling(m=1), u4, np.array([0, 1, 2, 3]))


def test_run_trials_replays_from_master_seed(paper_channel):
    ch, _ = paper_channel
    p = InputDist(p=np.array([0.25, 0.25, 0.25, 0.25]))
    cp = CodeParams(n=4, m=2, r_fec=0.5)
    a = run_trials(ch, p, cp, map_metric(p, ch), trials=200, master_seed=42)
    b = run_trials(ch, p, cp, map_metric(p, ch), trials=200, master_seed=42)
    assert a == b
    assert a.decoded_trials + a.empty_subcode_trials == 200
    assert a.per_trial_seeds[0] == (42, 0, 0)
    assert a.errors >= a.tie_errors
    if a.errors:
        assert a.empirical_log2_pe == pytest.approx(
            -math.log2(a.errors / a.decoded_trials))
        assert a.error_rate == a.errors / a.decoded_trials


def test_run_trials_noiseless_errors_are_all_ties():
    rep = run_trials(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                     ml_metric(IDENTITY2), trials=300, master_seed=1)
    assert rep.errors == rep.tie_errors > 0


def test_run_trials_validates_inputs(paper_channel):
    ch, p = paper_channel
    u = map_metric(p, ch)
    with pytest.raises(ChannelSpecError, match="trials"):
        run_trials(ch, p, CodeParams(4, 2, 0.5), u, trials=0, master_seed=0)
    with pytest.raises(SizeCapError):
        run_trials(ch, p, CodeParams(16, 2, 0.5), u, trials=10, master_seed=0)
    with pytest.raises(ChannelSpecError, match="input symbols"):
        run_trials(IDENTITY2, UNIFORM2, CodeParams(4, 2, 0.5),
                   DecodingMetric(u=np.full((4, 2), 0.5)), trials=10,
                   master_seed=0)


def test_run_trials_flags_empty_domination():
    ch = Dmc(input_size=4, output_size=4,
             w=np.full((4, 4), 0.1) + np.eye(4) * 0.6)
    p = InputDist(p=np.array([0.5, 0.25, 0.125, 0.125]))
    with pytest.warns(RuntimeWarning, match="empty subcodes"):
        rep = run_trials(ch, p, CodeParams(8, 2, 0.25), ml_metric(ch),
                         trials=40, master_seed=2)
    assert rep.empty_dominated
    assert rep.empty_subcode_trials > 20


def _per_trial_oracle(ch, p, cp, u, trials, master_seed):
    """run_trials spelled out one trial at a time through the public
    per-code functions, with the documented seed contract."""
    lab = Labeling(m=cp.m)
    cum = np.cumsum(ch.w, axis=1)
    errors = ties = empty = 0
    for t in range(trials):
        code = sample_code(cp.n, cp.m, cp.r_fec, seed=(master_seed, t, 0))
        sel = select_subcode(code, lab, p)
        if sel.size == 0:
            empty += 1
            continue
        rng = np.random.default_rng((master_seed, t, 1))
        w = int(sel.member_indices[rng.integers(sel.size)])
        x = lab.apply(code.codewords[w])
        y = np.minimum((cum[x] < rng.random(cp.n)[:, None]).sum(axis=1),
                       ch.output_size - 1)
        w_hat, tie = decode(code, lab, u, y)
        errors += int(tie or w_hat != w)
        ties += int(tie)
    decoded = trials - empty
    return TrialReport(
        trials=trials, decoded_trials=decoded, empty_subcode_trials=empty,
        errors=errors, tie_errors=ties,
        empirical_log2_pe=(-math.log2(errors / decoded) if decoded and errors
                           else math.inf),
        master_seed=master_seed,
        per_trial_seeds=tuple((master_seed, t, 0) for t in range(trials)),
        empty_dominated=empty > trials // 2)


BSC002 = Dmc(input_size=2, output_size=2,
             w=np.array([[0.998, 0.002], [0.002, 0.998]]))
SHAPED4 = Dmc(input_size=4, output_size=4,
              w=np.full((4, 4), 1.0 / 64) + np.eye(4) * (60.0 / 64))
P1331 = InputDist(p=np.array([1, 3, 3, 1]) / 8)
SKEWED4 = Dmc(input_size=4, output_size=4,
              w=np.full((4, 4), 0.1) + np.eye(4) * 0.6)
P_EMPTY = InputDist(p=np.array([0.5, 0.25, 0.125, 0.125]))

# (channel, input, code, metric, trials, trials per block or None)
BATCH_CASES = {
    "k6": (BSC002, UNIFORM2, CodeParams(12, 1, 0.5), ml_metric(BSC002),
           500, None),
    "k12": (SHAPED4, P1331, CodeParams(8, 2, 0.75), map_metric(P1331, SHAPED4),
            10, None),
    "all_ties": (IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                 ml_metric(IDENTITY2), 300, None),
    "mostly_empty": (SKEWED4, P_EMPTY, CodeParams(8, 2, 0.25),
                     ml_metric(SKEWED4), 60, None),
    "ragged_blocks": (SHAPED4, P1331, CodeParams(8, 2, 0.5),
                      map_metric(P1331, SHAPED4), 23, 5),
    "k0": (BSC002, UNIFORM2, CodeParams(4, 1, 0.1), ml_metric(BSC002),
           40, None),
}


# the RuntimeWarnings a case must raise, as a pattern for pytest.warns
BATCH_WARNINGS = {"mostly_empty": "empty subcodes",
                  "k0": "not integral|empty subcodes"}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@pytest.mark.parametrize("master_seed", [3, 20261021])
def test_run_trials_matches_per_trial_oracle(case, master_seed, monkeypatch):
    ch, p, cp, u, trials, block = BATCH_CASES[case]
    if block is not None:
        monkeypatch.setattr(simulation, "BLOCK_ELEMENTS",
                            block * 2 ** cp.k * cp.n)
    per_block = simulation.BLOCK_ELEMENTS // (2 ** cp.k * cp.n)
    expect = BATCH_WARNINGS.get(case)
    with (pytest.warns(RuntimeWarning, match=expect) if expect
          else contextlib.nullcontext()) as seen:
        got = run_trials(ch, p, cp, u, trials=trials, master_seed=master_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _per_trial_oracle(ch, p, cp, u, trials, master_seed)
    assert got == want
    assert got.decoded_trials > 0
    if case == "all_ties":
        assert got.errors == got.tie_errors > 0
    if case == "mostly_empty":
        assert got.empty_dominated
    if case == "ragged_blocks":
        assert trials > per_block and trials % per_block
    if case == "k0":
        assert cp.k == 0
        assert any("not integral" in str(w.message) for w in seen)


@pytest.mark.parametrize("k,nm", [(0, 5), (1, 1), (3, 8), (6, 12), (5, 63)])
def test_codeword_ints_matches_naive_gf2_product(k, nm):
    rng = np.random.default_rng(k * 100 + nm)
    g = rng.integers(0, 2, size=(7, k, nm), dtype=np.uint8)
    v = rng.integers(0, 2, size=(7, nm), dtype=np.uint8)
    got = simulation._codeword_ints(g, v)
    assert got.shape == (7, 2 ** k) and got.dtype == np.int64
    for b in range(7):
        for w in range(2 ** k):
            msg = np.array([(w >> (k - 1 - j)) & 1 for j in range(k)],
                           dtype=np.int64)
            bits = (msg @ g[b].astype(np.int64) + v[b]) % 2
            assert int(got[b, w]) == int("".join(map(str, bits)), 2)
    single = simulation._codeword_ints(g[0], v[0])
    assert np.array_equal(single, got[0])


def test_codeword_ints_refuses_more_than_63_bits():
    with pytest.raises(SizeCapError, match="63"):
        simulation._codeword_ints(np.zeros((1, 64), dtype=np.uint8),
                                  np.zeros(64, dtype=np.uint8))


def test_run_trials_raises_when_every_codeword_scores_zero():
    """The identity metric on a noisy BSC gives some output a zero score
    against every codeword; that is an error, not a silent tie."""
    bsc = Dmc(input_size=2, output_size=2,
              w=np.array([[0.9, 0.1], [0.1, 0.9]]))
    with pytest.raises(AllZeroScoreError):
        run_trials(bsc, UNIFORM2, CodeParams(4, 1, 0.5),
                   DecodingMetric(u=np.eye(2), name="identity"),
                   trials=50, master_seed=1)


def test_run_trials_warns_on_non_integral_k():
    with pytest.warns(RuntimeWarning, match="not integral"):
        rep = run_trials(BSC002, UNIFORM2, CodeParams(6, 1, 0.25),
                         ml_metric(BSC002), trials=20, master_seed=4)
    assert rep.trials == 20


def test_run_trials_rejects_narrow_metric_up_front(paper_channel):
    """A metric with fewer than 2^m rows is refused before any trial,
    even when no trial would reach the decoder."""
    ch, _ = paper_channel
    point = InputDist(p=np.array([0.0, 0.0, 0.0, 1.0]))
    narrow = DecodingMetric(u=np.full((2, 4), 0.5))
    with pytest.raises(ChannelSpecError, match="metric covers"):
        run_trials(ch, point, CodeParams(4, 2, 0.5), narrow, trials=5,
                   master_seed=0)


def _report(decoded, errors):
    return TrialReport(trials=decoded, decoded_trials=decoded,
                       empty_subcode_trials=0, errors=errors, tie_errors=0,
                       empirical_log2_pe=math.inf, master_seed=0)


def test_wilson_interval_edges_and_published_values():
    # Newcombe (1998), Stat. Med. 17:857, Table I, method 3
    lo, hi = _report(263, 81).wilson_interval
    assert lo == pytest.approx(0.2553, abs=5e-5)
    assert hi == pytest.approx(0.3662, abs=5e-5)
    lo, hi = _report(20, 0).wilson_interval
    assert lo == 0.0 and hi == pytest.approx(0.1611, abs=5e-5)
    z2 = 1.959963984540054 ** 2
    assert hi == pytest.approx(z2 / (20 + z2), rel=1e-12)
    lo, hi = _report(20, 20).wilson_interval
    assert hi == 1.0 and lo == pytest.approx(20 / (20 + z2), rel=1e-12)
    assert all(math.isnan(x) for x in _report(0, 0).wilson_interval)


def test_wilson_interval_brackets_a_simulated_error_rate():
    rep = run_trials(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                     ml_metric(IDENTITY2), trials=300, master_seed=1)
    lo, hi = rep.wilson_interval
    assert 0.0 < lo < rep.error_rate < hi < 1.0
    assert "wilson_interval" not in dataclasses.asdict(rep)


def _einsum_probe_pvalues(cp, samples, master_seed):
    """The probe's p-values from full message-bit einsums over G."""
    nm, k = cp.nm, cp.k
    singles = [0, 1] if k >= 1 else [0]
    pair = (1, 2) if k >= 2 else ((0, 1) if k == 1 else None)
    triple = (1, 2, 3) if k >= 2 and 3 * nm <= 24 else None
    used = set(singles) | set(pair or ()) | set(triple or ())
    b_of = {w: np.array([(w >> (k - 1 - j)) & 1 for j in range(k)],
                        dtype=np.int64) for w in used}
    pw = (1 << np.arange(nm - 1, -1, -1)).astype(np.int64)
    rng = np.random.default_rng(master_seed)
    g = rng.integers(0, 2, size=(samples, k, nm), dtype=np.uint8)
    v = rng.integers(0, 2, size=(samples, nm), dtype=np.uint8)
    idx = {w: ((np.einsum("j,bjn->bn", b_of[w], g.astype(np.int64))
                + v.astype(np.int64)) % 2) @ pw for w in used}

    def pval(cells, size):
        counts = np.bincount(cells, minlength=size)
        if counts.min() == counts.max():
            return float(chisquare(counts).pvalue) if counts.max() else 1.0
        return float(chisquare(counts).pvalue)

    single_p = {w: pval(idx[w], 2 ** nm) for w in singles}
    pair_p = (pval(idx[pair[0]] * 2 ** nm + idx[pair[1]], 4 ** nm)
              if pair else None)
    triple_p = (pval((idx[1] * 2 ** nm + idx[2]) * 2 ** nm + idx[3], 8 ** nm)
                if triple else None)
    return single_p, pair_p, triple_p


@pytest.mark.parametrize("cp,samples", [(CodeParams(4, 1, 0.5), 20000),
                                        (CodeParams(10, 1, 1.0), 3000)])
def test_independence_probe_matches_einsum_construction(cp, samples,
                                                        monkeypatch):
    kernel = simulation._codeword_ints

    def at_most_two_rows(g, v):
        assert g.shape[-2] <= 2   # never a (samples, 2^k) table
        return kernel(g, v)

    monkeypatch.setattr(simulation, "_codeword_ints", at_most_two_rows)
    rep = independence_probe(cp, samples, master_seed=11)
    single_p, pair_p, triple_p = _einsum_probe_pvalues(cp, samples, 11)
    assert rep.single_p == single_p
    assert rep.pair_p == pair_p
    assert rep.triple_p == triple_p


def test_independence_probe_uniformity_holds():
    rep = independence_probe(CodeParams(4, 1, 0.5), 50000, master_seed=5)
    assert rep.single_p[0] > 0.001 and rep.single_p[1] > 0.001
    assert rep.pair_p > 0.001
    assert rep.triple_p > 0.001
    assert rep.pair_messages == (1, 2) and rep.triple_messages == (1, 2, 3)
    assert not rep.triple_vacuous


def test_independence_probe_rejects_zero_offset_ensemble():
    """With v forced to 0, c(0) is constant and the XOR triple collapses
    onto a subspace; untouched messages keep passing."""
    rep = independence_probe(CodeParams(4, 1, 0.5), 50000, master_seed=5,
                             zero_offset=True)
    assert rep.single_p[0] < 1e-12
    assert rep.triple_p < 1e-12
    assert rep.single_p[1] > 0.001
    assert rep.pair_p > 0.001


def test_independence_probe_single_message_code():
    rep = independence_probe(CodeParams(2, 1, 0.5), 5000, master_seed=0)
    assert rep.k == 1
    assert rep.pair_messages == (0, 1)
    assert rep.triple_p is None and rep.triple_vacuous


def test_independence_probe_caps_and_triple_skip():
    with pytest.raises(SizeCapError):
        independence_probe(CodeParams(11, 1, 0.5), 100, master_seed=0)
    rep = independence_probe(CodeParams(9, 1, 0.5), 2000, master_seed=1)
    assert rep.triple_p is None
    assert "exceeds" in rep.triple_skipped
    assert not rep.triple_vacuous


def test_independence_probe_deterministic():
    a = independence_probe(CodeParams(4, 1, 0.5), 8000, master_seed=3)
    b = independence_probe(CodeParams(4, 1, 0.5), 8000, master_seed=3)
    assert a == b


def test_union_probe_single_competitor_exact():
    """Noiseless channel with the matched metric leaves M = {x}, so the
    union event is {G has a nonzero kernel vector}: 1 - (15/16)(14/16)."""
    rep = union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                            ml_metric(IDENTITY2), trials=10)
    assert rep.all_in_sandwich
    for r in rep.pairs:
        assert r.mode == "exact" and r.draws == 256
        assert r.m_size == 1 and r.alpha == 1 / 16
        assert r.union_prob == 46 / 256


def test_union_probe_flat_metric_saturates():
    flat = DecodingMetric(u=np.full((2, 2), 0.5), name="flat")
    rep = union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                            flat, trials=10, master_seed=3)
    for r in rep.pairs:
        assert r.alpha == 1.0 and r.union_prob == 1.0
        assert r.lower_decaen == 0.5 and r.upper_truncated == 1.0
        assert r.in_sandwich


def test_union_probe_mc_mode_tracks_exact_value():
    rep = union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                            ml_metric(IDENTITY2), trials=4000, master_seed=7,
                            n_pairs=2, exact_limit=1)
    again = union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(4, 1, 0.5),
                              ml_metric(IDENTITY2), trials=4000, master_seed=7,
                              n_pairs=2, exact_limit=1)
    assert rep == again
    for r in rep.pairs:
        assert r.mode == "mc" and r.draws == 4000
        assert abs(r.union_prob - 46 / 256) < 0.03


def test_union_probe_paper_channel_sandwich(paper_channel):
    ch, p = paper_channel
    rep = union_bound_probe(ch, p, CodeParams(4, 2, 0.5), map_metric(p, ch),
                            trials=2000, master_seed=9, n_pairs=3)
    assert rep.all_in_sandwich
    for r in rep.pairs:
        assert r.lower_decaen <= r.union_prob <= r.upper_truncated
        assert r.alpha >= 1 / 4 ** 4  # x itself always lands in M


def test_union_probe_caps_and_validation(paper_channel):
    ch, p = paper_channel
    u = map_metric(p, ch)
    with pytest.raises(SizeCapError, match="k ="):
        union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(18, 1, 0.5),
                          ml_metric(IDENTITY2), trials=10)
    with pytest.raises(SizeCapError, match=r"n\*m"):
        union_bound_probe(IDENTITY2, UNIFORM2, CodeParams(21, 1, 0.3),
                          ml_metric(IDENTITY2), trials=10)
    with pytest.raises(ChannelSpecError, match="shapes"):
        union_bound_probe(ch, p, CodeParams(4, 1, 0.5), ml_metric(IDENTITY2),
                          trials=10)
    with pytest.raises(ChannelSpecError, match="trials"):
        union_bound_probe(ch, p, CodeParams(4, 2, 0.5), u, trials=0)
