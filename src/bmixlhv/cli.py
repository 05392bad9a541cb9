"""Command-line front end: verify | simulate | analyze | scan.

The model is fully determined by the dimensionless mixing parameter
x = delta_m * tau.  ``montecarlo.generate`` scales its decay times by tau
itself; ``verify`` and ``analyze`` compute at tau = 1 and scale physical
units back in (times multiplied by tau, frequencies divided) only at the
output boundary.  Either give --x, or give --tau together with --delta-m;
giving both specifications at once is a usage error.

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
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, montecarlo, quantum, reporting, verification
from .model import ModelParams
from .montecarlo import EventBatch, SimConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

THREADS_ENV_VAR = "BMIXLHV_THREADS"

DEFAULT_DT_MAX_LIFETIMES = 5.0


class ConfigError(ValueError):
    """Invalid configuration or command usage."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams  # physical units
    model_specified: bool
    n_events: int
    seed: int
    symmetrized: bool
    bins: int
    dt_max: float | None  # physical units; None means DEFAULT_DT_MAX_LIFETIMES * tau
    out_dir: Path
    formats: tuple[str, ...]
    threads: int

    def sim_config(self, params: ModelParams) -> SimConfig:
        """The generator configuration of this run for ``params``."""
        return SimConfig(params=params, n_events=self.n_events, seed=self.seed,
                         symmetrized=self.symmetrized)

    def dt_max_for(self, tau: float) -> float:
        """Histogram upper edge in the units of ``tau``."""
        return self.dt_max if self.dt_max is not None else DEFAULT_DT_MAX_LIFETIMES * tau


# ---------------------------------------------------------------------------
# argument and config-file handling

@dataclass(frozen=True)
class _Option:
    section: str  # the config-file section that holds the key
    type: type  # of the flag's value, to which a config-file value is parsed
    default: object  # None: resolve_config works the value out
    help: str


# Every option's flag is --name with "-" for "_", and its config key is name.
_OPTIONS = {
    "tau": _Option("model", float, 1.0, "mean lifetime (time units)"),
    "delta_m": _Option("model", float, None, "oscillation frequency (inverse time units)"),
    "x": _Option("model", float, 0.776, "dimensionless mixing parameter (implies tau = 1)"),
    "out": _Option("output", Path, Path("out"), "output directory"),
    "format": _Option("output", str, ",".join(reporting.FORMATS),
                      "comma-separated subset of the output formats"),
    "events": _Option("simulate", int, 100_000, "number of events to generate"),
    "seed": _Option("simulate", int, 20_260_814, "64-bit generator seed"),
    "symmetrized": _Option("simulate", bool, False,
                           "randomize which side receives which decay law"),
    "threads": _Option("output", int, None, "workers for generation and event-file formatting"),
    "bins": _Option("analyze", int, 50, f"number of lag bins, at most {analysis.MAX_BINS}"),
    "dt_max": _Option("analyze", float, None,
                      f"histogram upper edge (default: {DEFAULT_DT_MAX_LIFETIMES:g} tau)"),
}

# Each command's help and the names of the options it takes, in help order.
_COMMANDS = {
    "verify": ("run the quadrature identity suite", "tau delta_m x out format"),
    "simulate": ("generate an event file",
                 "tau delta_m x out format events seed symmetrized threads"),
    "analyze": ("bin an event file and fit the asymmetry", "tau delta_m x out format bins dt_max"),
    "scan": ("verify + simulate + analyze per mixing value",
             "out format events seed symmetrized threads bins dt_max"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmixlhv",
        description="Hidden-phase simulation of correlated neutral-meson pair decays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=command_help)
        sp.add_argument("--config", type=Path, help="INI config file (flags win)")
        for name in names.split():
            opt = _OPTIONS[name]
            if opt.type is bool:  # the flag sets True; a config file may say either
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


def _read_config_file(path: Path) -> dict[str, str]:
    """The file's values as text, keyed by option name."""
    # No interpolation, so that a value means what its flag means, "%" and
    # all; and a default section no header can name, so that [DEFAULT] is
    # refused as an unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as file:
            parser.read_file(file)
    except OSError:
        raise ConfigError(f"config file not found: {path}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser's messages span lines
        raise ConfigError(f"malformed config file {path}: {detail}") from None
    values: dict[str, str] = {}
    for section in parser.sections():
        if section not in {opt.section for opt in _OPTIONS.values()}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _OPTIONS or _OPTIONS[key].section != section:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
            values[key] = value
    return values


def _parse_value(name: str, text: str):
    """A config-file value as its option's flag would give it."""
    kind = _OPTIONS[name].type
    if kind is not bool:
        return kind(text)
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def resolve_config(args) -> RunConfig:
    names = _COMMANDS[args.command][1].split()
    values = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    file_values = _read_config_file(args.config) if args.config else {}
    model = [name for name, opt in _OPTIONS.items() if opt.section == "model"]
    if any(name in values for name in model):  # model flags replace the file's [model] wholesale
        file_values = {k: v for k, v in file_values.items() if k not in model}
    if "threads" not in names:  # verify and analyze run on one thread and take no worker count
        values["threads"] = 1
    for name, text in file_values.items():
        if name not in values:  # a flag wins; its key's value is never parsed
            try:
                values[name] = _parse_value(name, text)
            except ValueError as exc:
                raise ConfigError(f"invalid config value for {name!r}: {exc}") from None

    given = [name for name in model if name in values]
    if "x" in given and len(given) > 1:
        raise ConfigError("give either --x or --tau/--delta-m, not both")
    if given == ["tau"]:
        raise ConfigError("--tau needs --delta-m (or use --x)")
    values = {name: values.get(name, opt.default) for name, opt in _OPTIONS.items()}
    try:
        params = ModelParams(values["tau"],
                             values["x"] if values["delta_m"] is None else values["delta_m"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    n_events, seed, bins, dt_max = (values[k] for k in ("events", "seed", "bins", "dt_max"))
    threads = values["threads"]
    env_threads = os.environ.get(THREADS_ENV_VAR)
    if threads is None and env_threads is not None:
        try:
            threads = int(env_threads)
        except ValueError:
            raise ConfigError(f"invalid {THREADS_ENV_VAR}={env_threads!r}") from None
    if threads is None:
        # the CPUs this process may run on, which taskset or a cpuset can
        # narrow below os.cpu_count()
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

    requested = [f.strip() for f in values["format"].split(",") if f.strip()]
    unknown = [f for f in requested if f not in reporting.FORMATS]
    if unknown:
        raise ConfigError(f"unknown output format(s): {unknown}")
    formats = tuple(f for f in reporting.FORMATS if f in requested)
    if not formats:
        raise ConfigError("at least one output format is required")

    if n_events < 1:
        raise ConfigError(f"events must be at least 1, got {n_events}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in 64 bits, got {seed}")
    if not 1 <= bins <= analysis.MAX_BINS:
        raise ConfigError(f"bins must be between 1 and {analysis.MAX_BINS}, got {bins}")
    if dt_max is not None and not (math.isfinite(dt_max) and dt_max > 0.0):
        raise ConfigError(f"dt-max must be finite and positive, got {dt_max}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        memory = -1
    if memory > 0 and n_events * montecarlo.EVENT_BYTES > memory:
        raise ConfigError(f"events={n_events} take {n_events * montecarlo.EVENT_BYTES} bytes, "
                          f"more than the {memory} bytes of this host's memory")

    return RunConfig(
        params=params,
        model_specified=bool(given),
        n_events=n_events,
        seed=seed,
        symmetrized=values["symmetrized"],
        bins=bins,
        dt_max=dt_max,
        out_dir=values["out"],
        formats=formats,
        threads=threads,
    )


# ---------------------------------------------------------------------------
# emission helpers

def _ensure_out(cfg: RunConfig) -> Path:
    """The output directory, created if need be; raises :class:`ConfigError`
    when it cannot be, as when it names a regular file."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: "
                          f"{exc.strerror or exc}") from None
    return cfg.out_dir


def _emit(cfg: RunConfig, stem: str, fingerprint: str, headers, rows,
          tree, header_fields, formats=None) -> list[Path]:
    """Write one logical artifact in each requested applicable format."""
    out = _ensure_out(cfg)
    written = []
    for fmt in formats if formats is not None else cfg.formats:
        path = out / (stem + reporting.FORMAT_SUFFIX[fmt])
        if fmt == "table-text":
            text = reporting.table_text(headers, rows, fingerprint, **header_fields)
        elif fmt == "machine-tree":
            text = reporting.yaml_tree(tree, fingerprint, **header_fields)
        else:
            text = reporting.csv_columns(headers, rows, fingerprint, **header_fields)
        reporting.write_text(path, text)
        written.append(path)
    return written


def _bin_and_fit(batch: EventBatch, params: ModelParams, bins: int, dt_max: float):
    """Histogram the lags of an internal-unit batch in ``bins`` bins over
    [0, dt_max] and fit them; raises :class:`analysis.FitRefusedError`."""
    binned = analysis.bin_events(batch, np.linspace(0.0, dt_max, bins + 1))
    return binned, analysis.goodness_of_fit(binned, params)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(cfg: RunConfig) -> int:
    _ensure_out(cfg)  # refuse an unusable --out before the quadrature runs
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


def cmd_simulate(cfg: RunConfig) -> int:
    try:
        config = cfg.sim_config(cfg.params)
    except ValueError as exc:  # a tau whose decay times would overflow
        raise ConfigError(str(exc)) from None
    out = _ensure_out(cfg)
    batch = montecarlo.generate(config, workers=cfg.threads)
    # the hand-off that analyze reads without parsing text
    event_path = out / "events.bin"
    montecarlo.write_event_columns(batch, event_path)
    # path by keyword: perfbench's tracer reads it from there or the third argument
    montecarlo.write_events(batch, path=out / "events.csv", workers=cfg.threads)

    manifest = {
        "tau": cfg.params.tau,
        "delta_m": cfg.params.delta_m,
        "x": cfg.params.x,
        "n_events": cfg.n_events,
        "seed": cfg.seed,
        "symmetrized": cfg.symmetrized,
        "event_file": event_path.name,
        **batch.rng_stats.as_dict(),
    }
    fingerprint = batch.config_fingerprint
    headers = ("key", "value")
    rows = [(k, manifest[k]) for k in sorted(manifest)]
    manifest_formats = tuple(f for f in cfg.formats if f != "delimited-columns")
    if manifest_formats:
        _emit(cfg, "manifest", fingerprint, headers, rows, manifest,
              {}, formats=manifest_formats)
    print(f"simulated {cfg.n_events} events -> {event_path}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, event_file: Path) -> int:
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
    dt_max = cfg.dt_max_for(scale)
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

    # per-bin table and plot-ready curves, physical units, delimited only
    if "delimited-columns" in cfg.formats:
        out = _ensure_out(cfg)
        table = analysis.bin_table(binned, internal)
        table["dt_lo"], table["dt_hi"] = table["dt_lo"] * scale, table["dt_hi"] * scale
        reporting.write_float_columns(out / "analysis_bins.csv", table, fingerprint,
                                      **common_fields)

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
    headers = ("key", "value")
    rows = [(k, summary[k]) for k in sorted(summary)]
    _emit(cfg, "analysis_fit", fingerprint, headers, rows, summary, common_fields)
    print(
        f"fitted delta_m = {summary['fitted_delta_m']!r} "
        f"+/- {summary['fitted_delta_m_error']!r} "
        f"(truth {physical.delta_m!r}); "
        f"chi2/dof same {summary['chi2_dof_same']!r}, "
        f"opposite {summary['chi2_dof_opposite']!r}"
    )
    return EXIT_OK


def cmd_scan(cfg: RunConfig, x_values: list[float]) -> int:
    if not x_values:
        raise ConfigError("scan needs at least one mixing value")
    if any(not (math.isfinite(x) and x > 0.0) for x in x_values):
        raise ConfigError("all mixing values must be finite and positive")
    _ensure_out(cfg)  # refuse an unusable --out before anything is computed

    headers = ("x", "max_verify_residual", "verify_passed", "fitted_delta_m",
               "fitted_delta_m_error", "chi2_dof_same", "chi2_dof_opposite", "status")
    rows = []
    all_ok = True
    dt_max = cfg.dt_max_for(1.0)
    for x in x_values:
        params = ModelParams(1.0, x)
        try:
            report = verification.full_verification(params)
            batch = montecarlo.generate(cfg.sim_config(params), workers=cfg.threads)
            _, fit = _bin_and_fit(batch, params, cfg.bins, dt_max)
        except (verification.QuadratureError, montecarlo.RejectionOverflowError,
                analysis.FitRefusedError) as exc:
            rows.append((x, math.nan, False, math.nan, math.nan, math.nan, math.nan,
                         f"error: {exc}"))
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
            "events": cfg.n_events,
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
          {"events": cfg.n_events, "seed": cfg.seed})
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
