"""End-to-end command-line runs, in process via cli.main(argv)."""

import json

import numpy as np
import pytest

from codemismatch import (ExponentResult, er_cc_dual, load_channel_spec,
                          mutual_information, optimal_metric, posterior)
from codemismatch.cli import main

W4 = [[0.80, 0.12, 0.05, 0.03],
      [0.10, 0.72, 0.12, 0.06],
      [0.05, 0.12, 0.70, 0.13],
      [0.02, 0.08, 0.15, 0.75]]


def write_spec(tmp_path, name="chan.json", *, input_size=4, output_size=4,
               w=W4, p_x=(0.25, 0.25, 0.25, 0.25), orientation="x_major"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "input_size": input_size, "output_size": output_size,
        "matrix_orientation": orientation, "w": w, "p_x": list(p_x)}))
    return str(path)


def write_sim_config(tmp_path, channel, name="sim.json", **overrides):
    cfg = {"n": 4, "m": 2, "r_fec": 0.5, "channel": channel,
           "metric": "ml", "trials": 150, "master_seed": 4}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_info_reports_entropy_capacity_rate(paper_spec_path, paper_channel, capsys):
    ch, p = paper_channel
    assert main(["info", "--channel", paper_spec_path, "--r-fec", "0.5"]) == 0
    out = capsys.readouterr().out
    assert f"H(P_X) = {p.entropy_bits:.9g} bits" in out
    assert f"I(X;Y) = {mutual_information(p, ch):.9g} bits" in out
    assert f"R(r_fec=0.5) = {p.entropy_bits - 1.0:.9g} bits" in out
    assert "|X| = 4" in out and "m = 2 bits/symbol" in out


def test_info_uniform_input_rate_equals_fec_rate(tmp_path, capsys):
    spec = write_spec(tmp_path, input_size=2, output_size=2,
                      w=[[0.9, 0.1], [0.1, 0.9]], p_x=(0.5, 0.5))
    assert main(["info", "--channel", spec, "--r-fec", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "H(P_X) = 1 bits" in out
    assert "R(r_fec=0.75) = 0.75 bits" in out


def test_exponents_csv_layout(paper_spec_path, capsys):
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.1:0.3:0.1", "--metrics", "ml,map"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# {")
    json.loads(lines[0][2:])  # the comment is the run config
    assert lines[1] == "rate,ml,map,cc_reference"
    assert len(lines) == 5
    for line in lines[2:]:
        rate, *vals = map(float, line.split(","))
        assert 0.1 <= rate <= 0.3
        assert all(v >= 0.0 for v in vals)
    # 9 significant digits survive the round trip
    assert float(lines[2].split(",")[1]) != round(float(lines[2].split(",")[1]), 4)


def test_exponents_zero_row_at_capacity(paper_spec_path, paper_channel, capsys):
    ch, p = paper_channel
    mi = mutual_information(p, ch)
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", f"{mi}:{mi}:1", "--metrics", "map"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    _, map_val, cc_val = map(float, lines[2].split(","))
    assert map_val <= 1e-8 and cc_val <= 1e-8


def test_exponents_rejects_bad_rate_grids(paper_spec_path, capsys):
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.3:0.1:0.1"]) == 2
    assert "min" in capsys.readouterr().err
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.1:0.2:0"]) == 2
    assert "step" in capsys.readouterr().err
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "nonsense"]) == 2


def test_exponents_metric_file_roundtrip(paper_spec_path, tmp_path, capsys):
    metric_file = tmp_path / "u.json"
    assert main(["optimal-metric", "--channel", paper_spec_path,
                 "--rate", "0.25", "--out", str(metric_file)]) == 0
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.25:0.25:1",
                 "--metrics", f"ml,{metric_file}"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "rate,ml,optimal,cc_reference"
    _, ml_val, opt_val, cc_val = map(float, lines[2].split(","))
    assert abs(opt_val - cc_val) <= 1e-6
    assert ml_val < cc_val


def test_optimal_metric_output_is_deterministic(paper_spec_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["optimal-metric", "--channel", paper_spec_path,
                     "--r-fec", "0.75", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["config"]["r_fec"] == 0.75
    assert payload["saturation_gap"] <= 1e-6
    assert payload["achieved_exponent"] <= payload["cc_exponent"] + 1e-9
    u = np.array(payload["metric"]["u"], dtype=float)
    assert np.max(np.abs(u.sum(axis=0) - 1.0)) < 1e-12
    assert payload["fixed_point"]["residual"] < 1e-10


def test_optimal_metric_at_capacity_is_posterior(paper_spec_path, paper_channel,
                                                 tmp_path):
    ch, p = paper_channel
    out = tmp_path / "cap.json"
    mi = mutual_information(p, ch)
    assert main(["optimal-metric", "--channel", paper_spec_path,
                 "--rate", f"{mi}", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    u = np.array(payload["metric"]["u"], dtype=float)
    assert np.max(np.abs(u - posterior(p, ch).q)) < 1e-6


def test_optimal_metric_needs_exactly_one_rate(paper_spec_path, capsys):
    assert main(["optimal-metric", "--channel", paper_spec_path]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["optimal-metric", "--channel", paper_spec_path,
                 "--rate", "0.2", "--r-fec", "0.5"]) == 2


def test_optimal_metric_unreachable_tolerance(paper_spec_path, capsys,
                                              monkeypatch):
    # the re-check misses the cc exponent by 1e-3, so no round-off decides
    def short_by_1e3(ch, p, u, rate):
        return ExponentResult(er_cc_dual(ch, p, rate).value_bits - 1e-3)

    monkeypatch.setattr(optimal_metric, "er_mismatch_dual", short_by_1e3)
    assert main(["optimal-metric", "--channel", paper_spec_path,
                 "--rate", "0.25", "--tol", "saturation=1e-18"]) == 3
    err = capsys.readouterr().err
    assert "misses the constant-composition exponent" in err
    assert "1e-18" in err


def test_optimal_metric_rejects_unknown_tolerance(paper_spec_path, capsys):
    assert main(["optimal-metric", "--channel", paper_spec_path,
                 "--rate", "0.25", "--tol", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_simulate_replays_and_overrides(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cfg = write_sim_config(tmp_path, spec)
    assert main(["simulate", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", cfg]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["report"]["trials"] == 150
    assert payload["report"]["master_seed"] == 4
    assert payload["config"]["metric_name"] == "ml"
    assert (payload["report"]["decoded_trials"]
            + payload["report"]["empty_subcode_trials"]) == 150
    assert payload["report"]["per_trial_seeds"][0] == [4, 0, 0]

    assert main(["simulate", cfg, "--seed", "99", "--trials", "50"]) == 0
    override = json.loads(capsys.readouterr().out)
    assert override["report"]["master_seed"] == 99
    assert override["report"]["trials"] == 50


def test_simulate_zero_trials_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cfg = write_sim_config(tmp_path, spec)
    assert main(["simulate", cfg, "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_simulate_truncates_giant_seed_lists(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cfg = write_sim_config(tmp_path, spec, trials=10001)
    assert main(["simulate", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["per_trial_seeds"] == []
    assert "per-trial" in payload["seed_scheme"]
    assert payload["report"]["trials"] == 10001


def test_simulate_optimal_metric_config(tmp_path, capsys):
    spec = write_spec(tmp_path, p_x=(0.125, 0.375, 0.375, 0.125))
    cfg = write_sim_config(tmp_path, spec, n=8, r_fec=0.5, metric="optimal",
                           trials=200)
    assert main(["simulate", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["metric_name"] == "optimal"
    assert payload["report"]["decoded_trials"] > 0


def test_simulate_cap_violation_exit4(tmp_path, capsys):
    spec = write_spec(tmp_path)
    cfg = write_sim_config(tmp_path, spec, n=16)
    assert main(["simulate", cfg]) == 4
    assert "exceeds cap" in capsys.readouterr().err


def test_simulate_missing_field_exit2(tmp_path, capsys):
    spec = write_spec(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "r_fec": 0.5, "channel": spec}))
    assert main(["simulate", str(path)]) == 2
    assert "missing field 'm'" in capsys.readouterr().err


def test_probe_kinds_and_structure(tmp_path, capsys):
    spec = write_spec(tmp_path, input_size=2, output_size=2,
                      w=[[0.9, 0.1], [0.1, 0.9]], p_x=(0.5, 0.5))
    cfg = write_sim_config(tmp_path, spec, m=1, trials=2000)
    assert main(["probe", cfg, "--kind", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"config", "independence", "union_bound"}
    assert payload["independence"]["samples"] == 2000
    assert 0.0 <= payload["independence"]["pair_p"] <= 1.0
    assert len(payload["union_bound"]["pairs"]) == 6
    assert payload["union_bound"]["pairs"][0]["mode"] == "exact"

    assert main(["probe", cfg, "--kind", "independence"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "union_bound" not in payload


def test_malformed_channel_exit2(tmp_path, capsys):
    bad = write_spec(tmp_path, w=[[0.5, 0.1, 0.05, 0.03],
                                  [0.10, 0.72, 0.12, 0.06],
                                  [0.05, 0.12, 0.70, 0.13],
                                  [0.02, 0.08, 0.15, 0.75]])
    assert main(["info", "--channel", bad]) == 2
    err = capsys.readouterr().err
    assert "row 0" in err and "sums" in err
    missing = str(tmp_path / "nope.json")
    assert main(["info", "--channel", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_metric_file_errors(paper_spec_path, tmp_path, capsys):
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.1:0.1:1",
                 "--metrics", str(tmp_path / "gone.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    nou = tmp_path / "nou.json"
    nou.write_text("{\"name\": \"x\"}")
    assert main(["exponents", "--channel", paper_spec_path,
                 "--rates", "0.1:0.1:1", "--metrics", str(nou)]) == 2
    assert "'u' field" in capsys.readouterr().err


def test_out_file_matches_stdout(paper_spec_path, tmp_path, capsys):
    args = ["exponents", "--channel", paper_spec_path, "--rates", "0.2:0.4:0.1"]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "curve.csv"
    assert main(args + ["--out", str(target)]) == 0
    assert target.read_text() == streamed


def test_loaded_spec_matches_library_loader(tmp_path):
    spec = write_spec(tmp_path)
    ch, p = load_channel_spec(spec)
    assert ch.w.shape == (4, 4)
    assert np.array_equal(p.p, np.full(4, 0.25))
