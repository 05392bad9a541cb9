"""Command-line behaviour: exit codes, precedence, units, byte-stable output."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import bmixlhv
from bmixlhv import cli
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
        "events.csv", "manifest.txt", "manifest.yaml"]
    assert "simulated 400 events" in capsys.readouterr().out
    batch = read_events(out / "events.csv")
    config = batch.config
    assert len(batch) == 400
    assert config.seed == 9
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["n_events"] == 400
    assert manifest["event_file"] == "events.csv"
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
# 29 empty bins that report NaN.
GOLDEN_ANALYSIS_SHA256 = {
    "analysis_bins.csv": "cdc539cefa27eae31800f0d7d87b1affb55dd59f0110097f282d5df00c7988d9",
    "analysis_curves.csv": "a467083c0ce36db8986f962a1b9a2564b47f2d482fdd8dcea40d9573a0a4a121",
    "analysis_fit.csv": "de4b2bfbc35aa4256bac6fe479d9cf8da95ef20469864c9969fa5c06565902b1",
    "analysis_fit.txt": "733f699f79f1e45cc490635782038dbd2408226022f875907c866da2598c7983",
    "analysis_fit.yaml": "5dd03921e3cd235ee278f9855f17acec68dea0f6cdd9e5dbc27027e913aacc80",
}


def test_analysis_golden_digests(tmp_path):
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    assert run("simulate", "--tau", 1.5, "--delta-m", 0.5, "--events", 3000,
               "--seed", 5, "--out", sim) == 0
    assert run("analyze", sim / "events.csv", "--bins", 200, "--out", fit) == 0
    bins = np.loadtxt(fit / "analysis_bins.csv", delimiter=",", comments="#",
                      skiprows=6, ndmin=2)
    assert np.count_nonzero(bins[:, 2] + bins[:, 3] == 0.0) == 29
    assert np.isnan(bins[bins[:, 2] + bins[:, 3] == 0.0, 6:]).all()
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
        first = path.read_text().splitlines()[0]
        assert first.startswith("# fingerprint="), path


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


def _loaded_modules(tmp_path, *argv):
    """Modules loaded in a fresh interpreter after importing the CLI and
    running ``main(argv)``, if given."""
    src = str(Path(bmixlhv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, bmixlhv.cli\n"
        f"argv = {[str(a) for a in argv]!r}\n"
        "if argv:\n"
        "    assert bmixlhv.cli.main(argv) == 0\n"
        "print('loaded:', *sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=tmp_path)
    return set(done.stdout.splitlines()[-1].split()[1:])


def _scipy(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


# the event-file writer and reader import these only for worker processes
_POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # importing scipy costs most of a command's start-up; only the fit's
    # p-values need it, from scipy.special, and it loads on the first fit.
    # The process pool's modules load only for a multi-block event file
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
    # the 3000-event file is one read block: it is parsed inline
    analyzed = _loaded_modules(tmp_path, "analyze", tmp_path / "sim" / "events.csv",
                               "--threads", 2, "--out", tmp_path / "fit")
    assert not analyzed & _POOL_MODULES
    fitted = _scipy(analyzed)
    assert "scipy.special" in fitted
    assert not {m for m in fitted if m.startswith(("scipy.optimize", "scipy.stats"))}


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


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
