"""Command-line behaviour: exit codes, precedence, units, byte-stable output."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import bmixlhv
from bmixlhv import analysis, cli, montecarlo
from bmixlhv.model import ModelParams
from bmixlhv.montecarlo import config_fingerprint, read_events


def run(*argv):
    return cli.main([str(a) for a in argv])


def _load_events(path):
    return np.loadtxt(
        path, delimiter=",", comments="#", usecols=(1, 2, 4), ndmin=2
    )


# ---------------------------------------------------------------------------
# happy paths

def test_simulate_writes_events_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("simulate", "--x", 0.776, "--events", 400, "--seed", 9, "--out", out) == 0
    # no manifest.csv: a key/value tree is not columnar; no temporary files left
    assert sorted(p.name for p in out.iterdir()) == [
        "events.bin", "events.csv", "manifest.txt", "manifest.yaml"]
    assert "simulated 400 events" in capsys.readouterr().out
    batch = read_events(out / "events.csv")
    config = batch.config
    assert len(batch) == 400
    assert config.seed == 9
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["n_events"] == 400
    assert manifest["event_file"] == "events.bin"
    assert 0.55 < manifest["lambda_acceptance_rate"] < 0.72


def test_verify_report_is_green_and_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("verify", "--x", "0.776", "--out", a) == 0
    assert run("verify", "--x", "0.776", "--out", b) == 0
    for name in ("verify_report.txt", "verify_report.yaml", "verify_report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    tree = yaml.safe_load((a / "verify_report.yaml").read_text())
    assert tree["summary"]["all_passed"] is True
    assert tree["summary"]["n_failures"] == 0
    assert tree["summary"]["max_residual"] < 1e-8
    assert len(tree["checks"]) == tree["summary"]["n_checks"]


def test_analyze_fits_the_simulated_file(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 30000, "--seed", 4, "--out", out) == 0
    fit_out = tmp_path / "fit"
    assert run("analyze", out / "events.csv", "--bins", 40, "--out", fit_out) == 0
    assert "fitted delta_m" in capsys.readouterr().out
    fit = yaml.safe_load((fit_out / "analysis_fit.yaml").read_text())
    assert fit["true_delta_m"] == 0.776
    assert abs(fit["fitted_delta_m"] - 0.776) / 0.776 < 0.05
    assert fit["dof"] == fit["n_groups"] - 2
    for name in ("analysis_fit.txt", "analysis_fit.csv", "analysis_bins.csv",
                 "analysis_curves.csv"):
        assert (fit_out / name).exists()
    bins = np.loadtxt(fit_out / "analysis_bins.csv", delimiter=",", comments="#",
                      skiprows=6, ndmin=2)
    assert bins.shape[0] == 40


def test_scan_summarizes_each_mixing_value(tmp_path):
    out = tmp_path / "scan"
    assert run("scan", "0.5", "0.776", "--events", 4000, "--seed", 6, "--out", out) == 0
    tree = yaml.safe_load((out / "scan_summary.yaml").read_text())
    points = tree["points"]
    assert [p["x"] for p in points] == [0.5, 0.776]
    for p in points:
        assert p["verify_passed"] is True
        assert p["status"] == "ok"
        assert abs(p["fitted_delta_m"] - p["x"]) / p["x"] < 0.1


# ---------------------------------------------------------------------------
# units

def test_physical_units_rescale_the_same_stream(tmp_path):
    internal = tmp_path / "internal"
    physical = tmp_path / "physical"
    assert run("simulate", "--x", 0.776, "--events", 300, "--seed", 42,
               "--out", internal) == 0
    assert run("simulate", "--tau", 2.0, "--delta-m", 0.388, "--events", 300,
               "--seed", 42, "--out", physical) == 0
    a = _load_events(internal / "events.csv")
    b = _load_events(physical / "events.csv")
    assert np.array_equal(a[:, 0], b[:, 0])  # hidden phases agree
    assert np.array_equal(2.0 * a[:, 1], b[:, 1])  # decay times scale by tau
    assert np.array_equal(2.0 * a[:, 2], b[:, 2])


def test_analysis_results_scale_with_tau(tmp_path):
    for tag, flags in (("i", ["--x", "0.776"]),
                       ("p", ["--tau", "2.0", "--delta-m", "0.388"])):
        assert run("simulate", *flags, "--events", 20000, "--seed", 3,
                   "--out", tmp_path / f"sim{tag}") == 0
        assert run("analyze", tmp_path / f"sim{tag}" / "events.csv",
                   "--out", tmp_path / f"fit{tag}") == 0
    fi = yaml.safe_load((tmp_path / "fiti" / "analysis_fit.yaml").read_text())
    fp = yaml.safe_load((tmp_path / "fitp" / "analysis_fit.yaml").read_text())
    # same underlying stream, so the dimensionless fit is identical and the
    # physical frequency halves exactly
    assert fp["fitted_delta_m"] == fi["fitted_delta_m"] / 2.0
    assert fp["chi2_same"] == fi["chi2_same"]
    assert fp["n_in_range"] == fi["n_in_range"]


def test_analyze_adopts_file_parameters(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--tau", 1.5, "--delta-m", 0.5, "--events", 5000,
               "--seed", 1, "--out", out) == 0
    fit_out = tmp_path / "fit"
    assert run("analyze", out / "events.csv", "--out", fit_out) == 0
    fit = yaml.safe_load((fit_out / "analysis_fit.yaml").read_text())
    assert fit["true_delta_m"] == 0.5


# ---------------------------------------------------------------------------
# reproducibility

# sha256 of the analysis artifacts of a small physical-units run, pinned so
# that any change of their bytes is deliberate.  The run rescales times
# (tau = 1.5), has bins whose asymmetry variance hits its 1/total floor, and
# 21 empty bins that report NaN.
GOLDEN_ANALYSIS_SHA256 = {
    "analysis_bins.csv": "7b8c02158e01324eb760463ea733ea9aeff57eb9d4f525d1295e68d2ddf86784",
    "analysis_curves.csv": "113dfe1b15c43adafdba84344c52e924375f857e422e1dd74388866854192451",
    "analysis_fit.csv": "5647914be4deae7b23e4b6820dec399edcdddf7fd6424e5d95c1ebffba57679c",
    "analysis_fit.txt": "d3236902feb42097b7c9bddbe5ef8947b2376016bed06b9095e66a387a319c89",
    "analysis_fit.yaml": "be2da7510339c8ebe25ebe184cbfb5da2d2ec586a4bc10f1eaf1ed40bec1ed76",
}


def test_analysis_golden_digests(tmp_path):
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert run("simulate", "--tau", 1.5, "--delta-m", 0.5, "--events", 3000,
               "--seed", 5, "--out", sim) == 0
    assert run("analyze", sim / "events.csv", "--bins", 200, "--out", fit) == 0
    bins = np.loadtxt(fit / "analysis_bins.csv", delimiter=",", comments="#",
                      skiprows=6, ndmin=2)
    total = bins[:, 2] + bins[:, 3]
    assert np.count_nonzero(total == 0.0) == 21
    assert np.isnan(bins[total == 0.0, 6:]).all()
    # bins of one class only: the variance (1 - asym^2)/total vanishes and
    # the error is the floor's, 1/sqrt(total)
    floored = np.abs(bins[:, 6]) == 1.0
    assert floored.any()
    assert np.allclose(bins[floored, 7] ** 2 * total[floored], 1.0, rtol=1e-12)
    digests = {name: hashlib.sha256((fit / name).read_bytes()).hexdigest()
               for name in GOLDEN_ANALYSIS_SHA256}
    assert digests == GOLDEN_ANALYSIS_SHA256

def test_simulation_bytes_are_reproducible(tmp_path):
    args = ("simulate", "--x", 0.776, "--events", 2000, "--seed", 11)
    assert run(*args, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "events.csv").read_bytes() == (
        tmp_path / "b" / "events.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "manifest.yaml").read_bytes() == (
        tmp_path / "b" / "manifest.yaml"
    ).read_bytes()
    assert run(*args, "--out", tmp_path / "c", "--seed", 12) == 0  # last flag wins
    assert (tmp_path / "a" / "events.csv").read_bytes() != (
        tmp_path / "c" / "events.csv"
    ).read_bytes()


def test_thread_count_does_not_change_output_bytes(tmp_path):
    args = ("simulate", "--x", 0.776, "--events", 3001, "--seed", 13)
    assert run(*args, "--threads", 1, "--out", tmp_path / "t1") == 0
    assert run(*args, "--threads", 4, "--out", tmp_path / "t4") == 0
    assert (tmp_path / "t1" / "events.csv").read_bytes() == (
        tmp_path / "t4" / "events.csv"
    ).read_bytes()


@pytest.mark.parametrize("symmetrized", [(), ("--symmetrized",)])
def test_hand_off_bytes_are_reproducible_across_runs_and_threads(tmp_path, symmetrized):
    args = ("simulate", "--x", 0.776, "--events", 3001, "--seed", 13, *symmetrized)
    assert run(*args, "--threads", 1, "--out", tmp_path / "t1") == 0
    assert run(*args, "--threads", 4, "--out", tmp_path / "t4") == 0
    assert run(*args, "--threads", 4, "--out", tmp_path / "again") == 0
    hand_off = (tmp_path / "t1" / "events.bin").read_bytes()
    assert (tmp_path / "t4" / "events.bin").read_bytes() == hand_off
    assert (tmp_path / "again" / "events.bin").read_bytes() == hand_off
    assert read_events(tmp_path / "t1" / "events.bin") == read_events(
        tmp_path / "t1" / "events.csv")


def test_analyze_of_the_hand_off_matches_the_delimited_file(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "--tau", 2.0, "--delta-m", 0.388, "--events", 20000, "--seed", 4,
               "--out", sim) == 0
    manifest = yaml.safe_load((sim / "manifest.yaml").read_text())
    assert run("analyze", sim / manifest["event_file"], "--out", tmp_path / "bin") == 0
    assert run("analyze", sim / "events.csv", "--out", tmp_path / "csv") == 0
    names = sorted(p.name for p in (tmp_path / "csv").iterdir())
    assert len(names) == 5
    assert sorted(p.name for p in (tmp_path / "bin").iterdir()) == names
    for name in names:
        assert (tmp_path / "bin" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()


def test_threads_env_var_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "3")
    args = ("simulate", "--x", 0.776, "--events", 1000, "--seed", 14)
    assert run(*args, "--out", tmp_path / "env") == 0
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "not-a-number")
    assert run(*args, "--out", tmp_path / "bad") == 2
    monkeypatch.delenv(cli.THREADS_ENV_VAR)
    assert run(*args, "--out", tmp_path / "plain") == 0
    assert (tmp_path / "env" / "events.csv").read_bytes() == (
        tmp_path / "plain" / "events.csv"
    ).read_bytes()


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    # under taskset or a cpuset the machine's CPU count over-subscribes
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = cli.build_parser().parse_args(["simulate", "--x", "0.776"])
    assert cli.resolve_config(args).threads == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.resolve_config(args).threads == 64


def test_every_artifact_opens_with_its_fingerprint(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 25, "--seed", 2, "--out", out) == 0
    assert run("analyze", out / "events.csv", "--bins", 5, "--out", tmp_path / "fit") in (0, 1)
    assert run("verify", "--out", tmp_path / "ver") == 0
    assert run("scan", "0.776", "--events", 600, "--out", tmp_path / "scan") == 0
    artifacts = [p for d in ("sim", "fit", "ver", "scan")
                 for p in sorted((tmp_path / d).glob("*")) if p.is_file()]
    assert len(artifacts) >= 8
    for path in artifacts:
        first = path.read_bytes().splitlines()[0]
        assert first.startswith(b"# fingerprint="), path


# ---------------------------------------------------------------------------
# config files and precedence

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nx = 0.9\n"
        "[simulate]\nevents = 500\nseed = 7\n"
        f"[output]\nout = {tmp_path / 'fromfile'}\n"
    )
    assert run("simulate", "--config", cfg) == 0
    batch = read_events(tmp_path / "fromfile" / "events.csv")
    config = batch.config
    assert len(batch) == 500
    assert config.seed == 7
    assert config.params.delta_m == 0.9


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[simulate]\nevents = 500\nseed = 7\n")
    out = tmp_path / "o"
    assert run("simulate", "--config", cfg, "--events", 123, "--out", out) == 0
    config = read_events(out / "events.csv").config
    assert config.n_events == 123
    assert config.seed == 7  # untouched keys still come from the file


def test_cli_model_flags_replace_file_model_wholesale(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\ntau = 3.0\ndelta_m = 0.2\n")
    out = tmp_path / "o"
    assert run("simulate", "--config", cfg, "--x", 0.776, "--events", 50,
               "--out", out) == 0
    config = read_events(out / "events.csv").config
    assert config.params.tau == 1.0  # file tau does not leak under --x
    assert config.params.delta_m == 0.776


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    assert run("simulate", "--config", missing, "--out", tmp_path / "o") == 2
    bad_section = tmp_path / "bad1.ini"
    bad_section.write_text("[mystery]\nkey = 1\n")
    assert run("simulate", "--config", bad_section, "--out", tmp_path / "o") == 2
    bad_key = tmp_path / "bad2.ini"
    bad_key.write_text("[simulate]\nevvents = 10\n")
    assert run("simulate", "--config", bad_key, "--out", tmp_path / "o") == 2
    conflicted = tmp_path / "bad3.ini"
    conflicted.write_text("[model]\nx = 0.7\ntau = 2.0\n")
    assert run("simulate", "--config", conflicted, "--out", tmp_path / "o") == 2


def test_format_subsets(tmp_path):
    out = tmp_path / "yamlonly"
    assert run("simulate", "--x", 0.776, "--events", 30, "--seed", 1,
               "--format", "machine-tree", "--out", out) == 0
    assert (out / "events.csv").exists()  # the event file itself is always written
    assert (out / "manifest.yaml").exists()
    assert not (out / "manifest.txt").exists()

    fit_out = tmp_path / "csvonly"
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 20000, "--seed", 4, "--out", sim) == 0
    assert run("analyze", sim / "events.csv", "--format", "delimited-columns",
               "--out", fit_out) == 0
    assert (fit_out / "analysis_fit.csv").exists()
    assert (fit_out / "analysis_bins.csv").exists()
    assert not (fit_out / "analysis_fit.yaml").exists()
    assert not (fit_out / "analysis_fit.txt").exists()

    assert run("simulate", "--x", 0.776, "--events", 10, "--format", "pdf",
               "--out", tmp_path / "bad") == 2


# ---------------------------------------------------------------------------
# failure modes

def test_usage_errors_exit_2(tmp_path):
    out = tmp_path / "o"
    assert run("simulate", "--x", 0, "--events", 10, "--out", out) == 2
    assert run("simulate", "--x", 0.7, "--tau", 1.0, "--events", 10, "--out", out) == 2
    assert run("simulate", "--tau", 1.0, "--events", 10, "--out", out) == 2
    assert run("simulate", "--x", 0.7, "--events", 0, "--out", out) == 2
    assert run("simulate", "--x", 0.7, "--events", 10, "--seed", -1, "--out", out) == 2
    assert run("analyze", tmp_path / "missing.csv", "--out", out) == 2
    assert run("scan", "--out", out) == 2
    assert run("scan", "0.0", "--out", out) == 2
    assert run("analyze", tmp_path / "missing.csv", "--bins", 0, "--out", out) == 2
    assert run("simulate", "--x", 0.7, "--events", 10, "--threads", 0, "--out", out) == 2


@pytest.mark.parametrize("argv, message", [
    (("analyze", "events.csv", "--dt-max", "inf"), "dt-max must be finite and positive, got inf"),
    (("analyze", "events.csv", "--dt-max", "nan"), "dt-max must be finite and positive, got nan"),
    (("scan", "inf"), "all mixing values must be finite and positive"),
    (("scan", "0.776", "nan"), "all mixing values must be finite and positive"),
])
def test_non_finite_values_are_refused_as_such(tmp_path, capsys, argv, message):
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "simulate", "analyze", "scan"])
@pytest.mark.parametrize("below", [False, True])
def test_an_out_that_names_a_regular_file_exits_2(tmp_path, capsys, monkeypatch, command,
                                                  below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile
    argv = {
        "verify": ["verify"],
        "simulate": ["simulate", "--events", 300],
        "analyze": ["analyze", tmp_path / "sim" / "events.bin"],
        "scan": ["scan", 0.776, "--events", 600],
    }[command]
    if command == "analyze":  # a sample the fit accepts, so that analyze gets to write
        assert run("simulate", "--events", 20000, "--seed", 4, "--out", tmp_path / "sim") == 0
    if command == "simulate":  # the directory is checked before any event is drawn
        monkeypatch.setattr(montecarlo, "generate", None)
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert err.count("\n") == 1
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", [["analyze", "events.bin"], ["scan", 0.776]])
def test_bins_above_the_limit_exit_2(capsys, command):
    assert run(*command, "--bins", analysis.MAX_BINS + 1) == 2
    err = capsys.readouterr().err
    assert err == (f"error: bins must be between 1 and {analysis.MAX_BINS}, "
                   f"got {analysis.MAX_BINS + 1}\n")
    args = cli.build_parser().parse_args([*map(str, command), "--bins", str(analysis.MAX_BINS)])
    assert cli.resolve_config(args).bins == analysis.MAX_BINS


@pytest.mark.parametrize("command", ["simulate", "scan 0.776"])
def test_more_events_than_host_memory_exit_2(tmp_path, capsys, command):
    # 10^12 events take 35 TB: refused before anything is allocated
    assert run(*command.split(), "--events", 10**12, "--out", tmp_path / "o") == 2
    out, err = capsys.readouterr()
    assert re.fullmatch(r"error: events=1000000000000 take 35000000000000 bytes, more than "
                        r"the \d+ bytes of this host's memory\n", err)
    assert out == "" and not (tmp_path / "o").exists()


def test_simulate_refuses_a_tau_whose_decay_times_overflow(tmp_path, capsys):
    # the longest decay time drawn is 53 ln 2 tau, which is inf at 1e308
    out = tmp_path / "huge"
    assert run("simulate", "--tau", 1e308, "--delta-m", 1e-308, "--events", 20,
               "--out", out) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith("error: tau must be at most 4.89") and err.count("\n") == 1
    assert stdout == "" and not out.exists()
    out = tmp_path / "large"
    assert run("simulate", "--tau", 4e306, "--delta-m", 0.776 / 4e306, "--events", 20,
               "--out", out) == 0
    assert read_events(out / "events.bin").config.params.tau == 4e306


def test_simulate_runs_far_below_the_supported_x_range(tmp_path):
    # 1/N must stay finite there, or no lambda proposal is ever accepted and
    # the rejection budget runs out
    out = tmp_path / "tiny"
    assert run("simulate", "--x", 1e-200, "--events", 1000, "--seed", 1, "--out", out) == 0
    assert len(read_events(out / "events.csv")) == 1000


@pytest.mark.parametrize("x", [1e-10, 1e-20, 1e-200])
def test_verify_and_scan_refuse_a_quadrature_too_fine_to_afford(tmp_path, capsys, x):
    # the phase integrals take parts x/4 wide, so quad refuses before it
    # allocates 1e12 nodes and more: one stderr line, exit 1, no report
    assert run("verify", "--x", x, "--out", tmp_path / "verify") == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: rho marginal normalization: more than ")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "verify").exists()
    assert run("scan", x, "--events", 200, "--seed", 1, "--out", tmp_path / "scan") == 1
    (point,) = yaml.safe_load((tmp_path / "scan" / "scan_summary.yaml").read_text())["points"]
    assert point["status"].startswith("error: rho marginal normalization: more than ")
    assert point["verify_passed"] is False and point["fitted_delta_m"] is None


def test_analyze_rejects_mismatched_model(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 20000, "--out", sim) == 0
    assert run("analyze", sim / "events.csv", "--tau", 2.0, "--delta-m", 0.388,
               "--out", tmp_path / "fit") == 2
    assert "do not match" in capsys.readouterr().err
    # explicitly restating the file's own parameters is fine
    assert run("analyze", sim / "events.csv", "--x", 0.776,
               "--out", tmp_path / "fit2") == 0


def test_analyze_runtime_failures_exit_1(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 5, "--out", sim) == 0
    # too few events to populate three groups: the fit must refuse, not lie
    assert run("analyze", sim / "events.csv", "--out", tmp_path / "f2") == 1
    assert "group" in capsys.readouterr().err


def test_analyze_refuses_aliased_bins(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 1000, "--events", 20000, "--seed", 1, "--out", sim) == 0
    capsys.readouterr()
    # the default 0.1-lifetime bins span 16 periods at x = 1000
    assert run("analyze", sim / "events.csv", "--out", tmp_path / "f1") == 1
    err = capsys.readouterr().err
    assert "lag bins up to 0.1 wide exceed half an oscillation period" in err
    assert "pi/delta_m = 0.003142;" in err
    assert not (tmp_path / "f1").exists()
    assert run("analyze", sim / "events.csv", "--dt-max", 0.02, "--bins", 50,
               "--out", tmp_path / "f2") == 0


def test_analyze_refuses_a_one_class_event_file(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 5000, "--seed", 2, "--out", sim) == 0
    # copy each first-side label onto the second side: every pair is then
    # same-flavour, and the rows still pass read_events
    lines = (sim / "events.csv").read_text().splitlines(keepends=True)
    edited = []
    for line in lines:
        if not line.startswith("#"):
            fields = line.split(",")
            fields[5] = fields[3]
            line = ",".join(fields)
        edited.append(line)
    one_class = tmp_path / "one_class.csv"
    one_class.write_text("".join(edited))
    batch = read_events(one_class)
    assert (batch.flavour1 == batch.flavour2).all()
    capsys.readouterr()
    assert run("analyze", one_class, "--out", tmp_path / "fit") == 1
    assert "error: no opposite-flavour pairs" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_scan_records_a_refused_fit(tmp_path, monkeypatch):
    generate = cli.montecarlo.generate

    def same_flavour(config, workers=1):
        batch = generate(config, workers)
        return dataclasses.replace(batch, flavour2=batch.flavour1.copy())

    monkeypatch.setattr(cli.montecarlo, "generate", same_flavour)
    out = tmp_path / "scan"
    assert run("scan", "0.776", "--events", 4000, "--seed", 6, "--out", out) == 1
    (point,) = yaml.safe_load((out / "scan_summary.yaml").read_text())["points"]
    assert point["status"].startswith("error: no opposite-flavour pairs")
    assert point["fitted_delta_m"] is None


def _python(tmp_path, code):
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(bmixlhv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=tmp_path).stdout


def _loaded_modules(tmp_path, *argv):
    """Modules loaded in a fresh interpreter after importing the CLI and
    running ``main(argv)``, if given."""
    code = (
        "import sys, bmixlhv.cli\n"
        f"argv = {[str(a) for a in argv]!r}\n"
        "if argv:\n"
        "    assert bmixlhv.cli.main(argv) == 0\n"
        "print('loaded:', *sys.modules)\n"
    )
    return set(_python(tmp_path, code).splitlines()[-1].split()[1:])


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


# the event-file writer imports these only for worker processes
_POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test-only dependency: no command imports any of it.  The
    # process pool's modules load only for a multi-block event file
    imported = _loaded_modules(tmp_path)
    assert _scipy(imported) == set()
    assert not imported & _POOL_MODULES
    simulated = _loaded_modules(tmp_path, "simulate", "--x", 0.776, "--events", 3000,
                                "--seed", 4, "--threads", 2, "--out", tmp_path / "sim")
    assert _scipy(simulated) == set()
    assert not simulated & _POOL_MODULES
    verified = _loaded_modules(tmp_path, "verify", "--x", 2.0, "--out", tmp_path / "verify")
    assert _scipy(verified) == set()
    assert not verified & _POOL_MODULES
    # analyze parses the event file in its own process
    analyzed = _loaded_modules(tmp_path, "analyze", tmp_path / "sim" / "events.csv",
                               "--threads", 2, "--out", tmp_path / "fit")
    assert _scipy(analyzed) == set()
    assert not analyzed & _POOL_MODULES
    scanned = _loaded_modules(tmp_path, "scan", 0.776, 2, "--events", 3000,
                              "--out", tmp_path / "scan")
    assert _scipy(scanned) == set()


def test_commands_run_without_scipy(tmp_path):
    # with scipy unimportable, as in an install without the test extra
    argvs = [
        ["simulate", "--x", "0.776", "--events", "3000", "--seed", "4", "--out", "sim"],
        ["analyze", "sim/events.csv", "--out", "fit"],
        ["scan", "0.776", "2", "--events", "3000", "--out", "scan"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import bmixlhv.cli\n"
        f"print([bmixlhv.cli.main(argv) for argv in {argvs!r}])\n"
    )
    assert _python(tmp_path, code).splitlines()[-1] == "[0, 0, 0]"
    assert (tmp_path / "fit" / "analysis_fit.yaml").is_file()


def _with_delta_m(path, out, delta_m):
    """Copy an event file with another delta_m in its header and the
    fingerprint recomputed, so that only the rows disagree with it."""
    config = read_events(path).config
    edited = dataclasses.replace(config, params=ModelParams(config.params.tau, delta_m))
    replaced = {"# fingerprint=": config_fingerprint(edited), "# delta_m=": repr(delta_m)}
    lines = []
    for line in path.read_text().splitlines(keepends=True):
        for prefix, value in replaced.items():
            if line.startswith(prefix):
                line = f"{prefix}{value}\n"
        lines.append(line)
    out.write_text("".join(lines))
    return out


def test_analyze_refuses_a_delta_m_outside_the_scan(tmp_path, capsys):
    # events oscillating at 1.8 under a header that claims 0.776: the scan
    # over [0.388, 1.164] has its best point at the edge, which is no fit
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 1.8, "--events", 20000, "--seed", 3, "--out", sim) == 0
    edited = _with_delta_m(sim / "events.csv", tmp_path / "edited.csv", 0.776)
    config = read_events(edited).config
    assert config.params.delta_m == 0.776
    capsys.readouterr()
    assert run("analyze", edited, "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err
    assert "no interior minimum in the scanned delta_m range [0.388, 1.164]" in err
    assert not (tmp_path / "fit").exists()
    assert run("analyze", sim / "events.csv", "--out", tmp_path / "fit_true") == 0


def test_analyze_rejects_impossible_event_values(tmp_path, capsys):
    # NaN lags used to fall silently out of range and negative times and
    # out-of-range phases were binned: analyze reported delta_m = 0.618 for
    # a 0.776 sample with exit 0
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 5000, "--seed", 2, "--out", sim) == 0
    lines = (sim / "events.csv").read_text().splitlines(keepends=True)
    # every eighth row from row 7: 300 get a NaN t1, 300 more t1 = -3 and lambda = 99
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")][7::8][:600]
    for n, i in enumerate(rows):
        fields = lines[i].split(",")
        if n < 300:
            fields[2] = "nan"
        else:
            fields[1], fields[2] = "99.0", "-3.0"
        lines[i] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert run("analyze", bad, "--out", tmp_path / "fit") == 2
    assert "error: row 7 has an impossible value" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_corrupted_event_file_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 10, "--out", sim) == 0
    text = (sim / "events.csv").read_text().replace("# seed=", "# seed=9")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run("analyze", bad, "--out", tmp_path / "fit") == 2
    assert "fingerprint" in capsys.readouterr().err

    # a body that lost rows no longer matches the header's n_events
    lines = (sim / "events.csv").read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    for name, kept in (("empty.csv", header), ("truncated.csv", lines[:-4])):
        (tmp_path / name).write_text("".join(kept))
        assert run("analyze", tmp_path / name, "--out", tmp_path / "fit") == 2
        assert "n_events=10" in capsys.readouterr().err


def test_analyze_refuses_another_generator_version(tmp_path, capsys, monkeypatch):
    # generator 3, with a fingerprint over its own generator line
    monkeypatch.setattr(montecarlo, "GENERATOR_VERSION", 3)
    assert run("simulate", "--x", 0.776, "--events", 10, "--out", tmp_path / "v3") == 0
    monkeypatch.undo()
    v3 = tmp_path / "v3" / "events.csv"
    assert "# generator=3\n" in v3.read_text()
    # a generator 1 header has no generator line
    v1 = tmp_path / "v1.csv"
    v1.write_text("".join(line for line in v3.read_text().splitlines(keepends=True)
                          if not line.startswith("# generator=")))
    capsys.readouterr()
    for path, found in ((v1, 1), (v3, 3)):
        assert run("analyze", path, "--out", tmp_path / "fit") == 2
        err = capsys.readouterr().err
        assert err == (f"error: event file is from generator {found}; this version reads "
                       "generator 2 files only (generator 1 wrote no generator line)\n")
    assert not (tmp_path / "fit").exists()


def test_analyze_of_an_unreadable_path_exits_2(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.csv"):
        assert run("analyze", path, "--out", tmp_path / "fit") == 2
        assert f"error: cannot read event file {path}: " in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


@pytest.fixture(scope="module")
def small_event_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert run("simulate", "--x", 0.776, "--events", 40, "--seed", 8, "--out", out) == 0
    return (out / "events.csv").read_bytes()


_EDITS = st.lists(
    st.tuples(st.sampled_from(("flip", "insert", "delete")), st.floats(0.0, 1.0,
              exclude_max=True), st.integers(0, 255)),
    min_size=1, max_size=4)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_analyze_survives_random_byte_edits(tmp_path, capsys, small_event_file, edits):
    # a flip XORs a byte with a nonzero mask; positions are fractions of the
    # current length, so shrinking keeps them inside the file
    data = bytearray(small_event_file)
    for kind, where, value in edits:
        at = int(where * len(data))
        if kind == "flip":
            data[at] ^= value or 1
        elif kind == "insert":
            data.insert(at, value)
        else:
            del data[at]
    path = tmp_path / "edited.csv"
    path.write_bytes(bytes(data))
    assert run("analyze", path, "--out", tmp_path / "fit") in (0, 1, 2)
    capsys.readouterr()


def test_analyze_refuses_a_broken_hand_off(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--x", 0.776, "--events", 50, "--seed", 8, "--out", sim) == 0
    data = (sim / "events.bin").read_bytes()
    huge = dataclasses.replace(read_events(sim / "events.bin").config, n_events=10**12)
    header_10e12 = data
    for key, value in (("fingerprint", config_fingerprint(huge)), ("n_events", 10**12),
                       ("lambda_proposals", 10**12), ("t2_proposals", 10**12),
                       ("lambda_acceptance_rate", 1.0), ("t2_acceptance_rate", 1.0)):
        header_10e12 = re.sub(rb"(?m)^# %s=.*$" % key.encode(), b"# %s=%s" % (
            key.encode(), str(value).encode()), header_10e12, count=1)
    cases = {
        "flipped": (data[:-9] + bytes([data[-9] ^ 0x40]) + data[-8:],
                    "event file body does not match its body_sha256 digest"),
        "truncated": (data[:-1], "event file body holds 1749 bytes, its header says "
                      "n_events=50, which take 1750"),
        "extended": (data + b"\n", "event file body holds 1751 bytes, its header says "
                     "n_events=50, which take 1750"),
        "version": (data.replace(b"\n# body_version=1\n", b"\n# body_version=2\n"),
                    "event file body version is 2; this version reads body version 1 only"),
        "fingerprint": (data.replace(b"\n# seed=8\n", b"\n# seed=9\n"),
                        "event file fingerprint does not match its header fields"),
        "huge": (header_10e12, "event file body holds 1750 bytes, its header says "
                 "n_events=1000000000000, which take 35000000000000"),
    }
    for name, (content, message) in cases.items():
        assert content != data, name
        path = tmp_path / f"{name}.bin"
        path.write_bytes(content)
        assert run("analyze", path, "--out", tmp_path / "fit") == 2, name
        assert capsys.readouterr().err == f"error: {message}\n", name
    assert not (tmp_path / "fit").exists()


@pytest.fixture(scope="module")
def small_hand_off(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_hand_off")
    assert run("simulate", "--x", 0.776, "--events", 40, "--seed", 8, "--out", out) == 0
    return (out / "events.bin").read_bytes(), read_events(out / "events.bin")


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_analyze_survives_random_byte_edits_of_the_hand_off(tmp_path, capsys, small_hand_off,
                                                            edits):
    original, batch = small_hand_off
    data = bytearray(original)
    for kind, where, value in edits:
        at = int(where * len(data))
        if kind == "flip":
            data[at] ^= value or 1
        elif kind == "insert":
            data.insert(at, value)
        else:
            del data[at]
    path = tmp_path / "edited.bin"
    path.write_bytes(bytes(data))
    code = run("analyze", path, "--out", tmp_path / "fit")
    assert code in (0, 1, 2)
    capsys.readouterr()
    if code != 2:  # an edit the header parse forgives, such as "0.7760" for "0.776"
        assert read_events(path) == batch


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
