"""Command-line front end: verify | simulate | analyze | scan.

The model is fully determined by the dimensionless mixing parameter
x = delta_m * tau.  ``montecarlo.generate`` scales its decay times by tau
itself; ``verify`` and ``analyze`` compute at tau = 1 and scale physical
units back in (times multiplied by tau, frequencies divided) only at the
output boundary.  Either give --x, or give --tau together with --delta-m;
giving both specifications at once is a usage error.  Every option takes
its value from its flag, or else from its ``_OPTIONS`` default.

Every output file starts with a ``# fingerprint=`` comment so results can
be traced to their exact configuration; outputs contain no timestamps and
are byte-identical across reruns.

``simulate`` writes the events twice: ``events.csv``, one text row per
event, and ``events.bin``, the same header with a body digest over binary
columns, which the manifest's ``event_file`` names.  ``analyze`` reads
either; the binary file needs no text parse.  An output directory that
cannot be created, such as one that names a regular file, is a usage error
(exit 2); ``simulate`` creates it before it draws an event.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, montecarlo, quantum, reporting, verification
from .model import ModelParams
from .montecarlo import EventBatch, SimConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

DEFAULT_DT_MAX_LIFETIMES = 5.0


class ConfigError(ValueError):
    """Invalid configuration or command usage."""


# ---------------------------------------------------------------------------
# argument handling

@dataclasses.dataclass(frozen=True)
class _Option:
    type: type  # of the flag's value
    default: object  # None: resolve_config works the value out
    help: str


# Every option's flag is --name with "-" for "_".
_OPTIONS = {
    "tau": _Option(float, 1.0, "mean lifetime (time units)"),
    "delta_m": _Option(float, None, "oscillation frequency (inverse time units)"),
    "x": _Option(float, 0.776, "dimensionless mixing parameter (implies tau = 1)"),
    "out": _Option(Path, Path("out"), "output directory"),
    "events": _Option(int, 100_000, "number of events to generate"),
    "seed": _Option(int, 20_260_814, "64-bit generator seed"),
    "symmetrized": _Option(bool, False, "randomize which side receives which decay law"),
    "threads": _Option(int, None, "workers for generation and event-file formatting"),
    "bins": _Option(int, 50, f"number of lag bins, at most {analysis.MAX_BINS}"),
    "dt_max": _Option(float, None,
                      f"histogram upper edge (default: {DEFAULT_DT_MAX_LIFETIMES:g} tau)"),
}

# Each command's help and the names of the options it takes, in help order.
_COMMANDS = {
    "verify": ("run the quadrature identity suite", "tau delta_m x out"),
    "simulate": ("generate an event file", "tau delta_m x out events seed symmetrized threads"),
    "analyze": ("bin an event file and fit the asymmetry", "tau delta_m x out bins dt_max"),
    "scan": ("verify + simulate + analyze per mixing value",
             "out events seed symmetrized threads bins dt_max"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, as main gives every other usage error
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bmixlhv",
        description="Hidden-phase simulation of correlated neutral-meson pair decays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=command_help)
        for name in names.split():
            opt = _OPTIONS[name]
            if opt.type is bool:  # the flag sets True
                kind, text = {"action": "store_true", "default": None}, opt.help
            else:
                kind = {"type": opt.type}
                text = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
            sp.add_argument("--" + name.replace("_", "-"), dest=name, help=text, **kind)
        if command == "analyze":
            sp.add_argument("event_file", type=Path,
                            help="event file from `simulate`: events.bin or events.csv")
        if command == "scan":
            sp.add_argument("x_values", type=float, nargs="*", metavar="X",
                            help="mixing parameter values (tau = 1 for each)")
    return parser


def resolve_config(args) -> SimpleNamespace:
    """Every option's value under its ``_OPTIONS`` name (its default where the
    command takes no such option), the model as ``params``, ``model_specified``
    and, for the commands that draw events, their generator settings as ``sim``."""
    names = _COMMANDS[args.command][1].split()
    values = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    given = [name for name in ("tau", "delta_m", "x") if name in values]
    if "x" in given and len(given) > 1:
        raise ConfigError("give either --x or --tau/--delta-m, not both")
    if given == ["tau"]:
        raise ConfigError("--tau needs --delta-m (or use --x)")
    values = {name: values.get(name, opt.default) for name, opt in _OPTIONS.items()}
    cfg = SimpleNamespace(**values, model_specified=bool(given))
    try:
        cfg.params = ModelParams(cfg.tau, cfg.x if cfg.delta_m is None else cfg.delta_m)
        if "events" in names:  # simulate and scan: SimConfig refuses events, seed and tau
            cfg.sim = SimConfig(params=cfg.params, n_events=cfg.events, seed=cfg.seed,
                                symmetrized=cfg.symmetrized)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if "threads" not in names:  # verify and analyze run on one thread
        cfg.threads = 1
    elif cfg.threads is None:
        # the CPUs this process may run on, which taskset or a cpuset can
        # narrow below os.cpu_count()
        cfg.threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)

    if not 1 <= cfg.bins <= analysis.MAX_BINS:
        raise ConfigError(f"bins must be between 1 and {analysis.MAX_BINS}, got {cfg.bins}")
    if cfg.dt_max is not None and not (math.isfinite(cfg.dt_max) and cfg.dt_max > 0.0):
        raise ConfigError(f"dt-max must be finite and positive, got {cfg.dt_max}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {cfg.threads}")
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        memory = -1
    if memory > 0 and cfg.events * montecarlo.EVENT_BYTES > memory:
        raise ConfigError(f"events={cfg.events} take {cfg.events * montecarlo.EVENT_BYTES} "
                          f"bytes, more than the {memory} bytes of this host's memory")
    return cfg


# ---------------------------------------------------------------------------
# emission helpers

def _ensure_out(cfg: SimpleNamespace) -> Path:
    """The output directory, created if need be; raises :class:`ConfigError`
    when it cannot be, as when it names a regular file."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out}: "
                          f"{exc.strerror or exc}") from None
    return cfg.out


def _clear(cfg: SimpleNamespace, *names: str) -> None:
    """Remove the named files a command is about to write, so that an
    interrupted or refused run leaves none of an earlier run's beside its own."""
    for name in names:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # or no directory
            (cfg.out / name).unlink()


def _emit(cfg: SimpleNamespace, stem: str, fingerprint: str, headers, rows,
          tree, header_fields, csv: bool = True) -> None:
    """Write one logical artifact as stem.txt, stem.yaml and, if ``csv``, stem.csv,
    into the output directory, which the command has already made."""
    out = cfg.out
    reporting.write_text(out / f"{stem}.txt",
                         reporting.table_text(headers, rows, fingerprint, **header_fields))
    reporting.write_text(out / f"{stem}.yaml",
                         reporting.yaml_tree(tree, fingerprint, **header_fields))
    if csv:
        reporting.write_text(out / f"{stem}.csv",
                             reporting.csv_columns(headers, rows, fingerprint, **header_fields))


def _dt_max_for(cfg: SimpleNamespace, tau: float) -> float:
    """The run's histogram upper edge in the units of ``tau``."""
    return cfg.dt_max if cfg.dt_max is not None else DEFAULT_DT_MAX_LIFETIMES * tau


def _bin_and_fit(batch: EventBatch, params: ModelParams, bins: int, dt_max: float):
    """Histogram the lags of an internal-unit batch in ``bins`` bins over
    [0, dt_max] and fit them; raises :class:`analysis.FitRefusedError`."""
    binned = analysis.bin_events(batch, np.linspace(0.0, dt_max, bins + 1))
    return binned, analysis.goodness_of_fit(binned, params)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(cfg: SimpleNamespace) -> int:
    _ensure_out(cfg)  # refuse an unusable --out before the quadrature runs
    _clear(cfg, "verify_report.txt", "verify_report.yaml", "verify_report.csv")
    report = verification.full_verification(ModelParams(1.0, cfg.params.x))
    checks = report.sorted_checks()
    headers = ("name", "target", "computed", "residual", "tolerance", "passed")
    rows = [(c.name, c.target, c.computed, c.residual, c.tolerance, c.passed)
            for c in checks]
    model = {"tau": cfg.params.tau, "delta_m": cfg.params.delta_m, "x": cfg.params.x}
    tree = {
        "params": model,
        "checks": [dict(zip(headers, row)) for row in rows],
        "summary": {
            "n_checks": len(checks),
            "n_failures": len(report.failures),
            "max_residual": report.max_residual,
            "all_passed": report.all_passed,
        },
    }
    fingerprint = reporting.fingerprint_of_mapping({"command": "verify", **model})
    header_fields = {**model, "note": "checks evaluated in lifetime units (tau=1)"}
    _emit(cfg, "verify_report", fingerprint, headers, rows, tree, header_fields)
    print(
        f"verification: {len(checks)} checks, {len(report.failures)} failures, "
        f"max residual {report.max_residual!r}"
    )
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def cmd_simulate(cfg: SimpleNamespace) -> int:
    out = _ensure_out(cfg)
    _clear(cfg, "events.bin", "events.csv", "manifest.txt", "manifest.yaml")
    batch = montecarlo.generate(cfg.sim, workers=cfg.threads)
    # the hand-off that analyze reads without parsing text
    event_path = out / "events.bin"
    montecarlo.write_event_columns(batch, event_path)
    # path by keyword: perfbench's tracer reads it from there or the third argument
    montecarlo.write_events(batch, path=out / "events.csv", workers=cfg.threads)

    manifest = {
        "tau": cfg.params.tau,
        "delta_m": cfg.params.delta_m,
        "x": cfg.params.x,
        "n_events": cfg.events,
        "seed": cfg.seed,
        "symmetrized": cfg.symmetrized,
        "event_file": event_path.name,
        **batch.rng_stats.as_dict(),
    }
    rows = [(k, manifest[k]) for k in sorted(manifest)]
    _emit(cfg, "manifest", batch.config_fingerprint, ("key", "value"), rows, manifest, {},
          csv=False)
    print(f"simulated {cfg.events} events -> {event_path}")
    return EXIT_OK


def cmd_analyze(cfg: SimpleNamespace, event_file: Path) -> int:
    try:
        batch = montecarlo.read_events(event_file)
    except OSError as exc:
        raise ConfigError(f"cannot read event file {event_file}: {exc.strerror or exc}") from None
    except montecarlo.EventFileError as exc:
        raise ConfigError(str(exc)) from None
    physical = batch.config.params
    if cfg.model_specified and cfg.params != physical:
        raise ConfigError(
            "event file parameters "
            f"(tau={physical.tau!r}, delta_m={physical.delta_m!r}) do not match the "
            f"requested (tau={cfg.params.tau!r}, delta_m={cfg.params.delta_m!r})")

    scale = physical.tau
    internal = ModelParams(1.0, physical.x)
    if scale != 1.0:  # decay times to lifetimes in place; no one else holds this batch
        for times in (batch.t1, batch.t2):
            times *= 1.0 / scale
    dt_max = _dt_max_for(cfg, scale)
    _clear(cfg, "analysis_bins.csv", "analysis_curves.csv", "analysis_fit.txt",
           "analysis_fit.yaml", "analysis_fit.csv")
    binned, fit = _bin_and_fit(batch, internal, cfg.bins, dt_max / scale)

    fingerprint = reporting.fingerprint_of_mapping(
        {
            "command": "analyze",
            "event_fingerprint": batch.config_fingerprint,
            "bins": cfg.bins,
            "dt_max": dt_max,
            "tau": physical.tau,
            "delta_m": physical.delta_m,
        }
    )
    common_fields = {"tau": physical.tau, "delta_m": physical.delta_m, "x": physical.x,
                     "event_fingerprint": batch.config_fingerprint}

    # per-bin table and plot-ready curves, physical units, CSV only
    out = _ensure_out(cfg)
    table = analysis.bin_table(binned, internal)
    table["dt_lo"], table["dt_hi"] = table["dt_lo"] * scale, table["dt_hi"] * scale
    reporting.write_float_columns(out / "analysis_bins.csv", table, fingerprint, **common_fields)

    edges = binned.edges
    centers = 0.5 * (edges[:-1] + edges[1:])
    model_same, model_opp = quantum.rate_curve(internal, centers)
    denom = 2.0 * binned.n_total * np.diff(edges) * scale
    curves = {
        "dt_center": centers * scale,
        "rate_same": binned.counts_same / denom,
        "rate_same_err": np.sqrt(binned.counts_same) / denom,
        "rate_opp": binned.counts_opposite / denom,
        "rate_opp_err": np.sqrt(binned.counts_opposite) / denom,
        "model_same": model_same / scale,
        "model_opp": model_opp / scale,
    }
    reporting.write_float_columns(out / "analysis_curves.csv", curves, fingerprint,
                                  **common_fields)

    in_range = float(binned.counts_same.sum() + binned.counts_opposite.sum())
    summary = {
        "n_events": binned.n_total,
        "n_in_range": in_range,
        "chi2_same": fit.chi2_same,
        "chi2_opposite": fit.chi2_opposite,
        "dof": fit.dof,
        "chi2_dof_same": fit.chi2_same / fit.dof,
        "chi2_dof_opposite": fit.chi2_opposite / fit.dof,
        "p_value_same": fit.p_value_same,
        "p_value_opposite": fit.p_value_opposite,
        "fitted_delta_m": fit.fitted_delta_m / scale,
        "fitted_delta_m_error": fit.fitted_delta_m_error / scale,
        "true_delta_m": physical.delta_m,
        "n_groups": fit.n_groups,
    }
    rows = [(k, summary[k]) for k in sorted(summary)]
    _emit(cfg, "analysis_fit", fingerprint, ("key", "value"), rows, summary, common_fields)
    print(
        f"fitted delta_m = {summary['fitted_delta_m']!r} "
        f"+/- {summary['fitted_delta_m_error']!r} "
        f"(truth {physical.delta_m!r}); "
        f"chi2/dof same {summary['chi2_dof_same']!r}, "
        f"opposite {summary['chi2_dof_opposite']!r}"
    )
    return EXIT_OK


def cmd_scan(cfg: SimpleNamespace, x_values: list[float]) -> int:
    if not x_values:
        raise ConfigError("scan needs at least one mixing value")
    if any(not (math.isfinite(x) and x > 0.0) for x in x_values):
        raise ConfigError("all mixing values must be finite and positive")
    _ensure_out(cfg)  # refuse an unusable --out before anything is computed
    _clear(cfg, "scan_summary.txt", "scan_summary.yaml", "scan_summary.csv")

    headers = ("x", "max_verify_residual", "verify_passed", "fitted_delta_m",
               "fitted_delta_m_error", "chi2_dof_same", "chi2_dof_opposite", "status")
    rows = []
    all_ok = True
    dt_max = _dt_max_for(cfg, 1.0)

    def verify(params):  # errors are returned, so that neither map stops early
        try:
            return verification.full_verification(params)
        except verification.QuadratureError as exc:
            return exc

    def sample(params):  # and only the fit, so that no batch outlives its x
        report = pool.submit(verify, params)  # queued just ahead of the x's blocks
        try:
            config = dataclasses.replace(cfg.sim, params=params)
            batch = montecarlo.generate(config, workers=pool)
            return report, _bin_and_fit(batch, params, cfg.bins, dt_max)[1]
        except (montecarlo.RejectionOverflowError, analysis.FitRefusedError) as exc:
            return report, exc

    # Each x's quadrature and its sampling blocks run on one pool of --threads
    # threads (two at least), so the blocks take every thread the quadrature
    # leaves free.  One more thread runs each x's generate and fit in turn;
    # this one only collects the results in x order and opens no span:
    # perfbench's tracer hangs a pool thread's spans under this thread's.
    params = [ModelParams(1.0, x) for x in x_values]
    with montecarlo._thread_pool(max(2, cfg.threads)) as pool, \
            montecarlo._thread_pool(1) as sampler:
        for x, (report, fit) in zip(x_values, sampler.map(sample, params)):
            report = report.result()
            error = next((r for r in (report, fit) if isinstance(r, Exception)), None)
            if error is not None:  # the verification error first, as when x ran in turn
                rows.append((x, math.nan, False, math.nan, math.nan, math.nan, math.nan,
                             f"error: {error}"))
                all_ok = False
                continue
            ok = report.all_passed
            rows.append(
                (x, report.max_residual, ok, fit.fitted_delta_m, fit.fitted_delta_m_error,
                 fit.chi2_same / fit.dof, fit.chi2_opposite / fit.dof,
                 "ok" if ok else "verify-failed")
            )
            all_ok = all_ok and ok

    fingerprint = reporting.fingerprint_of_mapping(
        {
            "command": "scan",
            "x_values": ",".join(repr(x) for x in x_values),
            "events": cfg.events,
            "seed": cfg.seed,
            "symmetrized": cfg.symmetrized,
            "bins": cfg.bins,
            "dt_max": dt_max,
        }
    )
    tree = {
        "points": [
            {h: (None if isinstance(v, float) and math.isnan(v) else v)
             for h, v in zip(headers, row)}
            for row in rows
        ]
    }
    _emit(cfg, "scan_summary", fingerprint, headers, rows, tree,
          {"events": cfg.events, "seed": cfg.seed})
    print(f"scan: {len(rows)} points, {'all ok' if all_ok else 'failures recorded'}")
    return EXIT_OK if all_ok else EXIT_RUNTIME


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.event_file)
        if args.command == "scan":
            return cmd_scan(cfg, args.x_values)
    except (verification.QuadratureError, montecarlo.RejectionOverflowError,
            analysis.FitRefusedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        # every file is written through open_atomic, so none is left partial
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
