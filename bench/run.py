#!/usr/bin/env python3
"""Benchmark of codemismatch, run from the root of a checkout:

    python3 bench/run.py --workload {curve,corpus,montecarlo} --seed N \
        --seconds S --trace {0,1}

One process and one thread run set-up, then whole rounds of timed units
until S seconds have passed. Each timing metric sums, over the slots of
a round (a slot is a unit's position in the round; every round gives it
fresh inputs), the median of the slot's unit times rescaled to the
host's reference speed (speed.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
See bench/README.md.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_ROUNDS = 2


def seconds_since_process_start() -> float:
    """Boot-clock time minus the kernel's start time of this process
    (clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("curve", "corpus", "montecarlo"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_program() -> SimpleNamespace:
    """The checkout's codemismatch package (`pkg`) and CLI module (`cli`)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import codemismatch
    import codemismatch.cli
    if Path(codemismatch.__file__).resolve().parent != src / "codemismatch":
        raise SystemExit(f"error: imported {codemismatch.__file__}, "
                         f"not the checkout's {src}")
    return SimpleNamespace(pkg=codemismatch, cli=codemismatch.cli)


def environment() -> dict:
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def slot_estimates(times: dict) -> dict:
    """Per slot, the median of its scaled unit times over the rounds."""
    return {key: statistics.median(vals) for key, vals in times.items() if vals}


def trace_overhead(units: list) -> float:
    """Median over rounds of the traced minus the untraced scaled time
    of the round's units."""
    diff = {}
    for kind, slot, r, traced, net, kernel_s in units:
        sign = 1.0 if traced else -1.0
        diff[r] = diff.get(r, 0.0) + sign * speed.scaled(net, kernel_s)
    return statistics.median(diff.values())


def kind_metrics(kinds: dict, times: dict, ops: dict) -> dict:
    """Per unit kind of every workload, from per-slot estimates; 0 for
    the kinds this workload does not run."""
    est = slot_estimates(times)
    out = {}
    for kind, (name, unit, per_ops) in kinds.items():
        keys = [k for k in est if k[0] == kind]
        busy = sum(est[k] for k in keys)
        if not keys:
            value = 0.0
        elif per_ops:
            value = sum(ops[k] for k in keys) / busy
        else:
            value = busy
        out[name] = {"value": value, "unit": unit}
    return out


def layer_metrics(tracer, factors: list, rounds: int) -> dict:
    """Per public function: calls and work counts in set-up plus round 0,
    and scaled self time in set-up plus the median over the rounds."""
    first = {"setup", "r0"}
    calls, self_s, work = {}, {}, {}
    for span, own, factor in zip(tracer.spans, tracer.self_times(), factors):
        name, label = span[0], span[4]
        self_s[name, label] = self_s.get((name, label), 0.0) + own * factor
        if label in first:
            calls[name] = calls.get(name, 0) + 1
            for key, val in (span[5] or {}).items():
                prev = work.get((name, key), 0)
                work[name, key] = None if prev is None or val is None \
                    else prev + val
    out = {}
    for name in spans.span_names():
        per_round = [self_s.get((name, f"r{r}"), 0.0) for r in range(rounds)]
        out[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        out[f"{name}.self_s"] = {
            "value": self_s.get((name, "setup"), 0.0) + statistics.median(per_round),
            "unit": "s"}
        keys = [spans.WORK_COUNTS[name][0]] if name in spans.WORK_COUNTS else []
        keys += [spans.WARNING_COUNTS[name]] if name in spans.WARNING_COUNTS else []
        for key in keys:
            # None when a result no longer carries the count
            out[f"{name}.{key}"] = {"value": work.get((name, key), 0),
                                    "unit": "count"}
    opt = calls.get("optimal_metric.optimize_metric", 0)
    fps = calls.get("optimal_metric.solve_fixed_point", 0)
    out["optimal_metric.fixed_points_per_optimize"] = {
        "value": fps / opt if opt else 0.0, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codemismatch" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'codemismatch'} not found; run from "
              "a checkout that holds the program's sources", file=sys.stderr)
        return 2
    probe = speed.SpeedProbe()
    probe.start()
    cm = import_program()

    # the benchmark's own modules, inputs and files stay out of setup_s
    with probe.excluded():
        import workloads
        kinds = {k: v for w in workloads.WORKLOADS.values()
                 for k, v in w.kinds.items()}
        work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
        work.mkdir(parents=True, exist_ok=True)
        wl = workloads.WORKLOADS[args.workload](cm, ROOT, work, args.seed)
        wl.prepare()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
    setup_end = seconds_since_process_start()
    _, setup_samples = probe.stop()
    setup_s = setup_end - probe.spent
    setup_kernel_s = statistics.mean(setup_samples)
    # per span: reference speed over the speed of the stretch it ran in
    factors = [speed.REFERENCE_S / setup_kernel_s] * len(tracer.spans) \
        if tracer else []

    times, ops = {}, {}
    units = []        # [kind, slot, round, traced, net s, kernel s]
    attempted = failed = 0
    problems = []
    deadline = time.perf_counter() + args.seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        # traced mode runs every slot twice, traced and untraced, each on
        # inputs of its own, alternating which goes first
        passes = [(False, wl.units(r))]
        if tracer:
            passes.insert(r % 2, (True, wl.units(r)))
        for traced, round_units in passes:
            for unit in round_units:
                key = (unit.kind, unit.slot)
                ops[key] = unit.ops
                attempted += 1
                if traced:
                    tracer.unit = f"r{r}"
                    tracer.install()
                ok = True
                try:
                    out, net, kernel_s = probe.measure(unit.run)
                except Exception:  # a failed operation is counted, not fatal
                    ok = False
                    failed += 1
                    traceback.print_exc()
                    kernel_s = probe.samples[-1]
                if traced:
                    tracer.uninstall()
                    factors += [speed.REFERENCE_S / kernel_s] * \
                        (len(tracer.spans) - len(factors))
                if not ok:
                    continue
                units.append([unit.kind, unit.slot, r, traced, net, kernel_s])
                if not traced:
                    times.setdefault(key, []).append(speed.scaled(net, kernel_s))
                try:
                    problems += unit.check(out)
                except Exception as exc:  # unreadable output fails the check
                    problems.append(f"{unit.kind} {unit.slot}: check raised {exc!r}")
        r += 1
    problems += wl.final_checks()
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer:
        metrics = kind_metrics(kinds, times, ops)
        metrics.update(layer_metrics(tracer, factors, r))
        metrics["trace.overhead_s"] = {"value": trace_overhead(units),
                                       "unit": "s"}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": speed.scaled(setup_s, setup_kernel_s),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "round_s": {"value": sum(slot_estimates(times).values()),
                        "unit": "s"},
        }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    env = environment()
    record = {"env": env, "args": vars(args), "rounds": r,
              "setup_raw_s": setup_s, "setup_samples": setup_samples,
              "units": units,
              "problems": problems, "result": result}
    if tracer:
        record["spans"] = tracer.spans
    (work / "record.json").write_text(json.dumps(record), encoding="utf-8")
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
