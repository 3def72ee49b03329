"""Command-line frontend: load channel specs, compute exponent curves,
solve for compensating metrics, run Monte-Carlo trials and ensemble
probes, and emit CSV/JSON.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence,
4 size-cap violation. Output files are written atomically (temp file,
then rename) and embed the resolved config and seed so any run can be
replayed byte-identically. CODEMISMATCH_LOG controls log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .channel import (DecodingMetric, Dmc, InputDist, load_channel_spec,
                      map_metric, ml_metric, mutual_information)
from .errors import ChannelSpecError, CodeMismatchError
from .exponents import RatePoint, sweep_curve
from .optimal_metric import SATURATION_TOL, optimize_metric
from .simulation import (CodeParams, independence_probe, run_trials,
                         union_bound_probe)

log = logging.getLogger("codemismatch")

SEED_LIST_LIMIT = 10000  # above this, reports carry the seed scheme only

KNOWN_TOLS = {"saturation"}


def _json_safe(obj):
    """Recursively coerce report objects into strict-JSON material."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _json_safe(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"


# Replacing an existing file waits ~50 ms on ext4 for the data flush that keeps
# old-or-new contents after a crash; every cheaper variant gives that up.
def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".tmp-", suffix="-" + os.path.basename(target))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _atomic_write(out, text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _parse_rates(spec: str) -> list[float]:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ChannelSpecError(
            f"--rates expects min:max:step, got {spec!r}") from None
    if step <= 0:
        raise ChannelSpecError(f"--rates step must be > 0, got {step:g}")
    if lo > hi:
        raise ChannelSpecError(f"--rates has min {lo:g} > max {hi:g}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _parse_tols(pairs: Optional[list[str]]) -> dict:
    tols = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ChannelSpecError(f"--tol expects name=value, got {item!r}")
        if name not in KNOWN_TOLS:
            raise ChannelSpecError(
                f"unknown tolerance {name!r}; known: {sorted(KNOWN_TOLS)}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise ChannelSpecError(
                f"--tol {name} value {value!r} is not a number") from None
    return tols


def load_metric_file(path: str) -> DecodingMetric:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ChannelSpecError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ChannelSpecError(f"{path}: invalid JSON ({exc})") from exc
    # plain {"u": [[...]]} files and optimal-metric output files both work
    if isinstance(raw.get("metric"), dict) and "u" in raw["metric"]:
        raw = raw["metric"]
    if "u" not in raw:
        raise ChannelSpecError(f"{path}: metric file needs a 'u' field")
    name = raw.get("name", os.path.splitext(os.path.basename(path))[0])
    return DecodingMetric(u=np.array(raw["u"], dtype=float), name=str(name))


def _resolve_metric(token: str, ch: Dmc, p: InputDist):
    low = token.strip().lower()
    if low == "ml":
        return ml_metric(ch)
    if low == "map":
        return map_metric(p, ch)
    if low == "optimal":
        return "optimal"
    return load_metric_file(token.strip())


def _load_sim_config(path: str, args) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ChannelSpecError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ChannelSpecError(f"{path}: invalid JSON ({exc})") from exc
    for key in ("n", "m", "r_fec", "channel"):
        if key not in cfg:
            raise ChannelSpecError(f"{path}: missing field '{key}'")
    if args.channel:
        cfg["channel"] = args.channel
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    cfg.setdefault("metric", "ml")
    cfg.setdefault("trials", 1000)
    cfg.setdefault("master_seed", 0)
    if int(cfg["trials"]) < 1:
        raise ChannelSpecError(f"trials = {cfg['trials']}, need >= 1")
    return cfg


def _metric_for_sim(cfg: dict, ch: Dmc, p: InputDist) -> DecodingMetric:
    sel = _resolve_metric(str(cfg["metric"]), ch, p)
    if sel == "optimal":
        rate = RatePoint.from_code_params(p, ch.m, float(cfg["r_fec"]))
        return optimize_metric(ch, p, rate).metric
    return sel


def cmd_info(args) -> int:
    ch, p = load_channel_spec(args.channel)
    mi = mutual_information(p, ch)
    lines = [
        f"channel: {args.channel}",
        f"|X| = {ch.input_size}",
        f"|Y| = {ch.output_size}",
        f"m = {ch.m} bits/symbol",
        f"H(P_X) = {p.entropy_bits:.9g} bits",
        f"I(X;Y) = {mi:.9g} bits",
    ]
    if args.r_fec is not None:
        rp = RatePoint.from_code_params(p, ch.m, args.r_fec)
        lines.append(f"R(r_fec={args.r_fec:g}) = {rp.rate_bits:.9g} bits")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_exponents(args) -> int:
    ch, p = load_channel_spec(args.channel)
    rates = _parse_rates(args.rates)
    tokens = [t for t in (args.metrics or "ml,map").split(",") if t.strip()]
    if not tokens:
        raise ChannelSpecError("--metrics resolved to an empty list")
    metrics = [_resolve_metric(t, ch, p) for t in tokens]
    curve = sweep_curve(ch, p, metrics, rates)
    config = {
        "subcommand": "exponents",
        "channel": args.channel,
        "rates": args.rates,
        "metrics": tokens,
    }
    text = curve.to_csv_text(comment=json.dumps(config, sort_keys=True))
    _emit(text, args.out)
    return 0


def cmd_optimal_metric(args) -> int:
    ch, p = load_channel_spec(args.channel)
    if (args.rate is None) == (args.r_fec is None):
        raise ChannelSpecError(
            "optimal-metric needs exactly one of --rate or --r-fec")
    if args.rate is not None:
        rate = RatePoint(rate_bits=args.rate)
    else:
        rate = RatePoint.from_code_params(p, ch.m, args.r_fec)
    tols = _parse_tols(args.tol)
    sat_tol = tols.get("saturation", SATURATION_TOL)
    opt = optimize_metric(ch, p, rate, saturation_tol=sat_tol)
    payload = {
        "config": {
            "subcommand": "optimal-metric",
            "channel": args.channel,
            "rate_bits": rate.rate_bits,
            "r_fec": args.r_fec,
            "saturation_tol": sat_tol,
        },
        "rho_star": opt.rho_star,
        "achieved_exponent": opt.achieved_exponent,
        "cc_exponent": opt.cc_exponent,
        "saturation_gap": opt.saturation_gap,
        "fixed_point": {
            "rho": opt.fixed_point.rho,
            "z": opt.fixed_point.z,
            "residual": opt.fixed_point.residual,
            "iterations": opt.fixed_point.iterations,
        },
        "metric": {"name": opt.metric.name, "u": opt.metric.u},
    }
    _emit(_dump_json(payload), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_sim_config(args.sim_config, args)
    ch, p = load_channel_spec(cfg["channel"])
    params = CodeParams(n=int(cfg["n"]), m=int(cfg["m"]),
                        r_fec=float(cfg["r_fec"]))
    u = _metric_for_sim(cfg, ch, p)
    report = run_trials(ch, p, params, u, int(cfg["trials"]),
                        int(cfg["master_seed"]))
    payload = {
        "config": dict(cfg, subcommand="simulate", metric_name=u.name),
        "report": report,
    }
    if report.trials > SEED_LIST_LIMIT:
        payload["report"] = dataclasses.replace(report, per_trial_seeds=())
        payload["seed_scheme"] = (
            "per-trial: code rng (master_seed, t, 0); "
            "message+noise rng (master_seed, t, 1)")
    _emit(_dump_json(payload), args.out)
    return 0


def cmd_probe(args) -> int:
    cfg = _load_sim_config(args.sim_config, args)
    ch, p = load_channel_spec(cfg["channel"])
    params = CodeParams(n=int(cfg["n"]), m=int(cfg["m"]),
                        r_fec=float(cfg["r_fec"]))
    payload = {"config": dict(cfg, subcommand="probe", kind=args.kind)}
    if args.kind in ("independence", "both"):
        payload["independence"] = independence_probe(
            params, int(cfg["trials"]), int(cfg["master_seed"]))
    if args.kind in ("union", "both"):
        u = _metric_for_sim(cfg, ch, p)
        payload["config"]["metric_name"] = u.name
        payload["union_bound"] = union_bound_probe(
            ch, p, params, u, int(cfg["trials"]),
            master_seed=int(cfg["master_seed"]))
    _emit(_dump_json(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="codemismatch",
        description="Error exponents and compensating metrics for "
                    "constant-composition coding over mismatched decoders.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, channel_required):
        sp.add_argument("--channel", required=channel_required,
                        help="channel spec JSON path")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("info", help="summarize a channel spec")
    add_common(sp, True)
    sp.add_argument("--r-fec", type=float, help="also report the implied rate")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("exponents", help="exponent curve CSV over a rate grid")
    add_common(sp, True)
    sp.add_argument("--rates", required=True, help="grid as min:max:step")
    sp.add_argument("--metrics", default="ml,map",
                    help="comma list: ml, map, optimal, or metric JSON paths")
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("optimal-metric",
                        help="solve the compensating metric at one rate")
    add_common(sp, True)
    sp.add_argument("--rate", type=float, help="rate in bits/symbol")
    sp.add_argument("--r-fec", type=float, help="FEC rate implying R")
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="tolerance override (saturation=...)")
    sp.set_defaults(func=cmd_optimal_metric)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding trials")
    sp.add_argument("sim_config", help="simulation config JSON")
    add_common(sp, False)
    sp.add_argument("--trials", type=int, help="override trial count")
    sp.add_argument("--seed", type=int, help="override master seed")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("probe", help="ensemble independence / union-bound probes")
    sp.add_argument("sim_config", help="simulation config JSON")
    add_common(sp, False)
    sp.add_argument("--kind", choices=("independence", "union", "both"),
                    default="both")
    sp.add_argument("--trials", type=int, help="override sample/draw count")
    sp.add_argument("--seed", type=int, help="override master seed")
    sp.set_defaults(func=cmd_probe)

    return ap


def main(argv=None) -> int:
    level = os.environ.get("CODEMISMATCH_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
