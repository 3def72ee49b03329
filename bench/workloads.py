"""The benchmark's workloads: inputs made from the seed, the timed units
of one round, and the checks run on each unit's output.

`prepare` makes the benchmark's own inputs and files and is left out of
setup_s; `setup` is the program's work before the first timed unit.
A unit's `run` is the only code inside the timer. It reaches the program
through attribute lookups on the imported modules at call time, so the
tracer's wrappers see every call. A unit's `check` runs after the timer
stops and returns a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

BUNDLED_SPEC = Path("src") / "codemismatch" / "data" / "quantized_gaussian_4x4.json"


class OperationFailed(RuntimeError):
    """A timed operation did not complete."""


class Unit:
    """One timed operation. `slot` names its position in the round;
    `ops` is the number of user-level operations it performs."""

    __slots__ = ("kind", "slot", "ops", "run", "check")

    def __init__(self, kind, slot, ops, run, check):
        self.kind, self.slot, self.ops = kind, slot, ops
        self.run, self.check = run, check


def read_spec(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(w[x, y], p) from a channel spec file, rows renormalized as the
    spec format documents."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    w = np.array(raw["w"], dtype=float)
    if raw["matrix_orientation"] == "paper_column":
        w = w.T.copy()
    w = w / w.sum(axis=1)[:, None]
    p = np.array(raw["p_x"], dtype=float)
    return w, p / p.sum()


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


class Workload:
    """Base: `kinds` maps a unit kind to (metric name, unit, per_ops);
    per_ops metrics are operations per second, the others seconds."""

    kinds: dict = {}

    def __init__(self, cm, root: Path, work: Path, seed: int):
        self.cm, self.root, self.work, self.seed = cm, root, work, seed

    def cli(self, argv: list) -> None:
        code = self.cm.cli.main([str(a) for a in argv])
        if code != 0:
            raise OperationFailed(f"codemismatch {argv[0]} exited with {code}")

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def units(self, r: int) -> list:
        raise NotImplementedError

    def final_checks(self) -> list:
        return []


class Curve(Workload):
    """`exponents` CLI sweep on the bundled channel, R in {0.05, ..., 0.45}
    shifted by a seeded offset below 0.004 that differs in every round."""

    kinds = {"sweep": ("curve_s", "s", False)}
    STEP = 0.05
    POINTS = 9
    SHAPE_TOL = 1e-8     # CSV values carry 9 significant digits

    def prepare(self):
        self.spec = self.root / BUNDLED_SPEC
        self.w, self.p = read_spec(self.spec)
        self.out = self.work / "curve.csv"
        self.rng = np.random.default_rng([self.seed, 1])
        self.first = None

    def units(self, r):
        lo = 0.05 + float(self.rng.uniform(0.0, 0.004))
        hi = lo + (self.POINTS - 1) * self.STEP
        rates = [lo + i * self.STEP for i in range(self.POINTS)]
        argv = ["exponents", "--channel", self.spec,
                "--rates", f"{lo!r}:{hi!r}:{self.STEP!r}",
                "--metrics", "ml,map,optimal", "--out", self.out]
        return [Unit("sweep", "sweep", 1, lambda: self.cli(argv),
                     lambda _: self.check(rates, r))]

    def check(self, rates, r):
        lines = self.out.read_text(encoding="utf-8").strip().splitlines()
        if lines[1] != "rate,ml,map,optimal,cc_reference":
            return [f"curve header {lines[1]!r}"]
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        if table.shape != (self.POINTS, 5):
            return [f"curve has shape {table.shape}"]
        ml, mp, opt, cc = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
        bad = []
        if np.any(ml > cc + 1e-9) or np.any(mp > cc + 1e-9):
            bad.append("curve: ml or map above cc")
        if np.any(np.abs(opt - cc) > 1e-6):
            bad.append(f"curve: |optimal - cc| = {np.abs(opt - cc).max():.3g}")
        for name, col in zip(("ml", "map", "optimal", "cc"), (ml, mp, opt, cc)):
            if np.any(np.diff(col) > self.SHAPE_TOL):
                bad.append(f"curve: {name} increases in R")
            if np.any(np.diff(col, 2) < -self.SHAPE_TOL):
                bad.append(f"curve: {name} is not convex in R")
        if r == 0:
            self.first = (rates, cc)
        return bad

    def final_checks(self):
        rates, cc = self.first
        own = ref.CcExponent(self.w, self.p)
        worst = max(abs(own.value(rate) - c) for rate, c in zip(rates, cc))
        return [f"curve: cc differs from own solve by {worst:.3g}"] \
            if worst > 1e-6 else []


class Corpus(Workload):
    """Seeded random (W, P_X, U) triples through the library, one pair
    of channels per shape. U is the MAP metric times lognormal noise;
    a triple is kept when I(X;Y) >= 0.05 bits and U's zero-exponent
    rate is at least 0.6 I(X;Y), so both exponents are positive below
    I/2. Rates are fractions of I(X;Y) from the bands below; the primal
    runs at the first, below the critical rate. Every round multiplies
    each rate by its own factor within 1 +- 1e-3."""

    kinds = {"dual_point": ("dual_points_per_s", "points/s", True),
             "primal_point": ("primal_points_per_s", "points/s", True)}
    SHAPES = ((2, 2), (2, 3), (2, 4), (4, 2), (4, 3), (4, 4))
    COPIES = 2
    BANDS = ((0.08, 0.16), (0.3, 0.45), (1.02, 1.25))
    JITTER = 1e-3
    # "0" above I(X;Y) up to round-off: the dual's clamp at 0 lets values
    # such as 1.3e-17 through when its maximizer sits at rho -> 0
    ZERO_TOL = 1e-12

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        self.raw = []
        for _ in range(self.COPIES):
            for nx, ny in self.SHAPES:
                while True:
                    w = rng.dirichlet(np.full(ny, 2.0), size=nx)
                    p = rng.dirichlet(np.full(nx, 3.0))
                    u = p[:, None] * w * np.exp(0.3 * rng.normal(size=(nx, ny)))
                    mi = ref.mutual_information_bits(w, p)
                    if mi >= 0.05 and \
                            ref.mismatch_threshold_bits(w, p, u) >= 0.6 * mi:
                        break
                rates = [mi * rng.uniform(lo, hi) for lo, hi in self.BANDS]
                self.raw.append((w, p, u, mi, rates))
        self.rng = np.random.default_rng([self.seed, 3])

    def setup(self):
        pkg = self.cm.pkg
        self.triples = [(pkg.Dmc(*w.shape, w), pkg.InputDist(p),
                         pkg.DecodingMetric(u, "noisy-map"), mi, rates)
                        for w, p, u, mi, rates in self.raw]

    def units(self, r):
        out = []
        for c, (ch, p, u, mi, rates) in enumerate(self.triples):
            jit = 1.0 + self.JITTER * self.rng.uniform(-1.0, 1.0, len(rates) + 1)
            for j, rate in enumerate(rates):
                rate = float(rate * jit[j])
                out.append(Unit("dual_point", f"c{c}.r{j}", 1,
                                self._dual(ch, p, u, rate),
                                self._dual_check(c, mi, rate)))
            rate = float(rates[0] * jit[-1])
            out.append(Unit("primal_point", f"c{c}", 1,
                            self._primal(ch, p, rate),
                            self._primal_check(c, ch, p, mi, rate)))
        return out

    def _dual(self, ch, p, u, rate):
        pkg = self.cm.pkg

        def run():
            return (pkg.er_mismatch_dual(ch, p, u, rate).value_bits,
                    pkg.er_cc_dual(ch, p, rate).value_bits)
        return run

    def _primal(self, ch, p, rate):
        pkg = self.cm.pkg
        return lambda: pkg.er_cc_primal(ch, p, rate).value_bits

    @staticmethod
    def _dual_check(c, mi, rate):
        def check(out):
            mm, cc = out
            bad = []
            if mm > cc + 1e-9:
                bad.append(f"corpus c{c} R={rate:.6g}: mismatch {mm} > cc {cc}")
            if rate >= mi and max(abs(mm), abs(cc)) > Corpus.ZERO_TOL:
                bad.append(f"corpus c{c} R={rate:.6g} >= I: {mm}, {cc} not 0")
            if rate < 0.5 * mi and not (mm > 0.0 and cc > 0.0):
                bad.append(f"corpus c{c} R={rate:.6g} < I/2: {mm}, {cc} not > 0")
            return bad
        return check

    def _primal_check(self, c, ch, p, mi, rate):
        def check(primal):
            dual = self.cm.pkg.er_cc_dual(ch, p, rate).value_bits
            bad = []
            if abs(primal - dual) > 1e-6:
                bad.append(f"corpus c{c} R={rate:.6g}: primal {primal} vs "
                           f"dual {dual}")
            if rate < 0.5 * mi and not primal > 0.0:
                bad.append(f"corpus c{c} R={rate:.6g} < I/2: primal {primal}")
            return bad
        return check


class MonteCarlo(Workload):
    """`simulate` blocks on two codes and one `probe --kind both` per
    round, every unit on a fresh master seed drawn from the run's seed.

    k6:  BSC(0.002), n = 12, m = 1, r_fec = 0.5, ML metric: 64 codewords.
    k12: 4-ary channel W = 61/64 on the diagonal and 1/64 elsewhere,
         P_X = (1,3,3,1)/8, n = 8, m = 2, r_fec = 0.75: 4096 codewords,
         decoded with the compensating metric written by `optimal-metric`
         during setup.
    probe: the bundled channel with n = 3, m = 2, r_fec = 1/3 (k = 2), a
         MAP metric file; k n m = 12 keeps the union probe exact.
    The channel entries are dyadic, so loading them is exact and the
    replay check sees the same W as the program.
    """

    kinds = {"k6_block": ("k6_trials_per_s", "trials/s", True),
             "k12_block": ("k12_trials_per_s", "trials/s", True),
             "probe": ("probe_s", "s", False)}
    K6 = {"n": 12, "m": 1, "r_fec": 0.5, "k": 6, "trials": 500}
    K12 = {"n": 8, "m": 2, "r_fec": 0.75, "k": 12, "trials": 40}
    PROBE = {"n": 3, "m": 2, "r_fec": 1.0 / 3.0, "k": 2, "trials": 50000}
    REPLAYED_ROUNDS = (0, 1)

    def prepare(self):
        work = self.work
        bsc = [[0.998, 0.002], [0.002, 0.998]]
        shaped = (np.full((4, 4), 1.0 / 64) + np.eye(4) * (60.0 / 64)).tolist()
        k6_spec = write_json(work / "k6_channel.json", {
            "input_size": 2, "output_size": 2, "matrix_orientation": "x_major",
            "w": bsc, "p_x": [0.5, 0.5]})
        self.k12_spec = write_json(work / "k12_channel.json", {
            "input_size": 4, "output_size": 4, "matrix_orientation": "x_major",
            "w": shaped, "p_x": [0.125, 0.375, 0.375, 0.125]})
        self.k12_metric = work / "k12_metric.json"

        wb, pb = read_spec(self.root / BUNDLED_SPEC)
        self.probe_u = pb[:, None] * wb
        probe_metric = write_json(work / "probe_metric.json",
                                  {"name": "map", "u": self.probe_u.tolist()})

        w6, p6 = read_spec(k6_spec)
        self.codes = {}
        for kind, cfg, spec, metric, w, p, u in (
                ("k6_block", self.K6, k6_spec, "ml", w6, p6, w6),
                ("k12_block", self.K12, self.k12_spec, self.k12_metric,
                 None, None, None),
                ("probe", self.PROBE, self.root / BUNDLED_SPEC, probe_metric,
                 None, None, None)):
            path = write_json(work / f"{kind}.json", {
                "n": cfg["n"], "m": cfg["m"], "r_fec": cfg["r_fec"],
                "channel": str(spec), "metric": str(metric),
                "trials": cfg["trials"], "master_seed": 0})
            self.codes[kind] = (cfg, path, work / f"{kind}.out.json", w, p, u)
        self.rng = np.random.default_rng([self.seed, 4])
        self.used_seeds = set()
        self.replays = {}

    def setup(self):
        self.cli(["optimal-metric", "--channel", self.k12_spec,
                  "--r-fec", self.K12["r_fec"], "--out", self.k12_metric])

    def _k12_metric(self) -> list:
        """Checks the k12 metric written at set-up and keeps its (w, p, u)
        for the replay."""
        w, p = read_spec(self.k12_spec)
        opt = json.loads(self.k12_metric.read_text(encoding="utf-8"))
        u = np.array(opt["metric"]["u"], dtype=float)
        cfg, path, result, *_ = self.codes["k12_block"]
        self.codes["k12_block"] = (cfg, path, result, w, p, u)
        fp = opt["fixed_point"]
        z = np.array(fp["z"], dtype=float)
        bad = []
        res = ref.fixed_point_residual(w, p, fp["rho"], z)
        if not res < 1e-10:
            bad.append(f"k12 metric: fixed-point residual {res:.3g}")
        dev = np.abs(ref.compensating_metric(w, p, fp["rho"], z) - u).max()
        if not dev < 1e-12:
            bad.append(f"k12 metric: differs from its fixed point by {dev:.3g}")
        return bad

    def _fresh_seed(self) -> int:
        while True:
            s = int(self.rng.integers(1, 2 ** 31 - 1))
            if s not in self.used_seeds:
                self.used_seeds.add(s)
                return s

    def units(self, r):
        out = []
        for kind in self.kinds:
            cfg, path, result, *_ = self.codes[kind]
            seed = self._fresh_seed()
            if kind == "probe":
                argv = ["probe", path, "--kind", "both"]
            else:
                argv = ["simulate", path]
            argv += ["--seed", seed, "--out", result]
            ops = cfg["trials"] if kind != "probe" else 1
            check = self._probe_check if kind == "probe" else \
                self._block_check(kind, seed, r)
            out.append(Unit(kind, kind, ops,
                            lambda argv=argv: self.cli(argv), check))
        return out

    def _block_check(self, kind, seed, r):
        cfg, _, result, *_ = self.codes[kind]

        def check(_):
            rep = json.loads(result.read_text(encoding="utf-8"))["report"]
            bad = []
            if rep["master_seed"] != seed or rep["trials"] != cfg["trials"]:
                bad.append(f"{kind}: report is for another block")
            if rep["decoded_trials"] + rep["empty_subcode_trials"] != rep["trials"] \
                    or not 0 <= rep["tie_errors"] <= rep["errors"] <= rep["decoded_trials"]:
                bad.append(f"{kind}: inconsistent counts {rep}")
            if r in self.REPLAYED_ROUNDS:
                self.replays[kind, seed] = rep
            return bad
        return check

    def _probe_check(self, _):
        cfg = self.PROBE
        _, _, result, *_ = self.codes["probe"]
        out = json.loads(result.read_text(encoding="utf-8"))
        bad = []
        ind = out["independence"]
        pvals = list(ind["single_p"].values()) + [ind["pair_p"], ind["triple_p"]]
        if ind["samples"] != cfg["trials"] or not all(0.0 <= v <= 1.0 for v in pvals):
            bad.append(f"probe: independence report {ind}")
        for pair in out["union_bound"]["pairs"]:
            own = ref.union_pair(self.probe_u, tuple(pair["x"]), tuple(pair["y"]),
                                 cfg["k"], cfg["m"])
            if pair["mode"] != "exact" or pair["m_size"] != own["m_size"] \
                    or pair["union_prob"] != own["union_prob"]:
                bad.append(f"probe: pair {pair['x']}/{pair['y']} gives |M| = "
                           f"{pair['m_size']}, P = {pair['union_prob']}; own "
                           f"{own['m_size']}, {own['union_prob']}")
            if not own["lower"] <= pair["union_prob"] <= own["upper"]:
                bad.append(f"probe: P = {pair['union_prob']} outside "
                           f"[{own['lower']}, {own['upper']}]")
        return bad

    def final_checks(self):
        bad = self._k12_metric()
        for (kind, seed), rep in self.replays.items():
            cfg, _, _, w, p, u = self.codes[kind]
            own = ref.seed_contract_block(w, p, u, cfg["n"], cfg["m"], cfg["k"],
                                          seed, cfg["trials"])
            got = {key: rep[key] for key in own}
            if got != own:
                bad.append(f"{kind} seed {seed}: simulate {got}, replay {own}")
        return bad


WORKLOADS = {"curve": Curve, "corpus": Corpus, "montecarlo": MonteCarlo}
