"""Command-line front end: verify | simulate | analyze | scan.

Parameter handling follows the internal-units rule: the model is fully
determined by the dimensionless mixing parameter x = delta_m * tau, so all
computation runs at tau = 1 with delta_m = x, and physical units are scaled
back in (times multiplied by tau, frequencies divided) only at the output
boundary.  Either give --x, or give --tau together with --delta-m; giving
both specifications at once is a usage error.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, montecarlo, quantum, reporting, verification
from .model import ModelParams
from .montecarlo import EventBatch, SimConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

THREADS_ENV_VAR = "BMIXLHV_THREADS"

DEFAULT_X = 0.776
DEFAULT_EVENTS = 100_000
DEFAULT_SEED = 20_260_814
DEFAULT_BINS = 50
DEFAULT_DT_MAX_LIFETIMES = 5.0
DEFAULT_OUT = Path("out")

_CONFIG_SECTIONS = {
    "model": {"tau", "delta_m", "x"},
    "simulate": {"events", "seed", "symmetrized"},
    "analyze": {"bins", "dt_max"},
    "output": {"out", "format", "threads"},
}


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

    @property
    def internal_params(self) -> ModelParams:
        return ModelParams(1.0, self.params.x)

    def sim_config(self, params: ModelParams) -> SimConfig:
        """The generator configuration of this run for ``params``."""
        return SimConfig(params=params, n_events=self.n_events, seed=self.seed,
                         symmetrized=self.symmetrized)

    def dt_max_for(self, tau: float) -> float:
        """Histogram upper edge in the units of ``tau``."""
        return self.dt_max if self.dt_max is not None else DEFAULT_DT_MAX_LIFETIMES * tau


# ---------------------------------------------------------------------------
# argument and config-file handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmixlhv",
        description="Hidden-phase simulation of correlated neutral-meson pair decays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, model=True):
        sp.add_argument("--config", type=Path, help="INI config file (flags win)")
        if model:
            sp.add_argument("--tau", type=float, help="mean lifetime (time units)")
            sp.add_argument("--delta-m", type=float, dest="delta_m",
                            help="oscillation frequency (inverse time units)")
            sp.add_argument("--x", type=float,
                            help="dimensionless mixing parameter (implies tau = 1)")
        sp.add_argument("--out", type=Path, help="output directory (default: out)")
        sp.add_argument("--format", dest="format",
                        help="comma-separated subset of: " + ",".join(reporting.FORMATS))
        sp.add_argument("--threads", type=int,
                        help="workers for generation and event-file formatting")

    def add_sim(sp):
        sp.add_argument("--events", type=int, help="number of events to generate")
        sp.add_argument("--seed", type=int, help="64-bit generator seed")
        sp.add_argument("--symmetrized", action="store_const", const=True, default=None,
                        help="randomize which side receives which decay law")

    def add_binning(sp):
        sp.add_argument("--bins", type=int,
                        help=f"number of lag bins (default: 50, at most {analysis.MAX_BINS})")
        sp.add_argument("--dt-max", type=float, dest="dt_max",
                        help=f"histogram upper edge (default: {DEFAULT_DT_MAX_LIFETIMES:g} tau)")

    sp = sub.add_parser("verify", help="run the quadrature identity suite")
    add_common(sp)

    sp = sub.add_parser("simulate", help="generate an event file")
    add_common(sp)
    add_sim(sp)

    sp = sub.add_parser("analyze", help="bin an event file and fit the asymmetry")
    add_common(sp)
    add_binning(sp)
    sp.add_argument("event_file", type=Path,
                    help="event file from `simulate`: events.bin or events.csv")

    sp = sub.add_parser("scan", help="verify + simulate + analyze per mixing value")
    add_common(sp, model=False)
    add_sim(sp)
    add_binning(sp)
    sp.add_argument("x_values", type=float, nargs="*", metavar="X",
                    help="mixing parameter values (tau = 1 for each)")
    return parser


def _read_config_file(path: Path) -> dict[str, str]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
            flat[key] = value
    return flat


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _resolve_model(args, file_values) -> tuple[float, float, bool]:
    """Returns (tau, delta_m, specified).  CLI model flags, when present,
    replace the file's [model] section wholesale."""
    cli = {
        "tau": getattr(args, "tau", None),
        "delta_m": getattr(args, "delta_m", None),
        "x": getattr(args, "x", None),
    }
    if any(v is not None for v in cli.values()):
        tau, delta_m, x = cli["tau"], cli["delta_m"], cli["x"]
    else:
        try:
            tau = float(file_values["tau"]) if "tau" in file_values else None
            delta_m = float(file_values["delta_m"]) if "delta_m" in file_values else None
            x = float(file_values["x"]) if "x" in file_values else None
        except ValueError as exc:
            raise ConfigError(f"invalid model value in config file: {exc}") from None

    if x is not None:
        if tau is not None or delta_m is not None:
            raise ConfigError("give either --x or --tau/--delta-m, not both")
        return 1.0, x, True
    if delta_m is not None:
        return (tau if tau is not None else 1.0), delta_m, True
    if tau is not None:
        raise ConfigError("--tau needs --delta-m (or use --x)")
    return 1.0, DEFAULT_X, False


def resolve_config(args) -> RunConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_name, file_key, default, convert):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if file_key in file_values:
            try:
                return convert(file_values[file_key])
            except ValueError as exc:
                raise ConfigError(f"invalid config value for {file_key!r}: {exc}") from None
        return default

    tau, delta_m, specified = _resolve_model(args, file_values)
    try:
        params = ModelParams(tau, delta_m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    n_events = pick("events", "events", DEFAULT_EVENTS, int)
    seed = pick("seed", "seed", DEFAULT_SEED, int)
    symmetrized = pick("symmetrized", "symmetrized", False, _parse_bool)
    bins = pick("bins", "bins", DEFAULT_BINS, int)
    dt_max = pick("dt_max", "dt_max", None, float)
    out_dir = Path(pick("out", "out", DEFAULT_OUT, Path))
    formats_text = pick("format", "format", ",".join(reporting.FORMATS), str)
    env_threads = os.environ.get(THREADS_ENV_VAR)
    threads = pick("threads", "threads", None, int)
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

    requested = [f.strip() for f in formats_text.split(",") if f.strip()]
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
        model_specified=specified,
        n_events=n_events,
        seed=seed,
        symmetrized=bool(symmetrized),
        bins=bins,
        dt_max=dt_max,
        out_dir=out_dir,
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


def _rescale_batch(batch: EventBatch, config: SimConfig) -> EventBatch:
    """``batch`` relabelled ``config``, which differs from its own at most in
    tau, so both decay-time columns are multiplied by the ratio of the taus."""
    if config == batch.config:
        return batch
    scale = config.params.tau / batch.config.params.tau
    return replace(batch, t1=batch.t1 * scale, t2=batch.t2 * scale, config=config)


def _bin_and_fit(batch: EventBatch, params: ModelParams, bins: int, dt_max: float):
    """Histogram the lags of an internal-unit batch in ``bins`` bins over
    [0, dt_max] and fit them; raises :class:`analysis.FitRefusedError`."""
    binned = analysis.bin_events(batch, np.linspace(0.0, dt_max, bins + 1))
    return binned, analysis.goodness_of_fit(binned, params)


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(cfg: RunConfig) -> int:
    report = verification.full_verification(cfg.internal_params)
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


def _simulate_batch(cfg: RunConfig) -> EventBatch:
    """Generate in internal units and rescale to the physical configuration."""
    batch = montecarlo.generate(cfg.sim_config(cfg.internal_params), workers=cfg.threads)
    return _rescale_batch(batch, cfg.sim_config(cfg.params))


def cmd_simulate(cfg: RunConfig) -> int:
    max_tau = sys.float_info.max / montecarlo.MAX_DECAY_LIFETIMES
    if cfg.params.tau > max_tau:
        raise ConfigError(f"tau must be at most {max_tau!r} to simulate, since decay times "
                          f"reach {montecarlo.MAX_DECAY_LIFETIMES} tau; got {cfg.params.tau!r}")
    out = _ensure_out(cfg)
    batch = _simulate_batch(cfg)
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
        print(f"error: cannot read event file {event_file}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except montecarlo.EventFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    physical = batch.config.params
    if cfg.model_specified and cfg.params != physical:
        print(
            "error: event file parameters "
            f"(tau={physical.tau!r}, delta_m={physical.delta_m!r}) do not match the "
            f"requested (tau={cfg.params.tau!r}, delta_m={cfg.params.delta_m!r})",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    scale = physical.tau
    internal = ModelParams(1.0, physical.x)
    internal_batch = _rescale_batch(batch, replace(batch.config, params=internal))
    dt_max = cfg.dt_max_for(scale)
    try:
        binned, fit = _bin_and_fit(internal_batch, internal, cfg.bins, dt_max / scale)
    except analysis.FitRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

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
        rows = analysis.bin_table(binned, internal)
        bin_headers = ("dt_lo", "dt_hi", "n_same", "n_opp", "exp_same", "exp_opp",
                       "asym", "asym_err")
        bin_rows = [
            (r["dt_lo"] * scale, r["dt_hi"] * scale, r["n_same"], r["n_opp"],
             r["exp_same"], r["exp_opp"], r["asym"], r["asym_err"])
            for r in rows
        ]
        reporting.write_text(
            out / "analysis_bins.csv",
            reporting.csv_columns(bin_headers, bin_rows, fingerprint, **common_fields),
        )

        edges = binned.edges
        centers = 0.5 * (edges[:-1] + edges[1:])
        model_same, model_opp = quantum.rate_curve(internal, centers)
        denom = 2.0 * binned.n_total * np.diff(edges) * scale
        curve_headers = ("dt_center", "rate_same", "rate_same_err", "rate_opp",
                         "rate_opp_err", "model_same", "model_opp")
        curve_rows = zip(
            (centers * scale).tolist(),
            (binned.counts_same / denom).tolist(),
            (np.sqrt(binned.counts_same) / denom).tolist(),
            (binned.counts_opposite / denom).tolist(),
            (np.sqrt(binned.counts_opposite) / denom).tolist(),
            (model_same / scale).tolist(),
            (model_opp / scale).tolist(),
        )
        reporting.write_text(
            out / "analysis_curves.csv",
            reporting.csv_columns(curve_headers, curve_rows, fingerprint, **common_fields),
        )

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
        print("error: scan needs at least one mixing value", file=sys.stderr)
        return EXIT_CONFIG
    if any(not (math.isfinite(x) and x > 0.0) for x in x_values):
        print("error: all mixing values must be finite and positive", file=sys.stderr)
        return EXIT_CONFIG

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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.event_file)
        if args.command == "scan":
            return cmd_scan(cfg, args.x_values)
    except (verification.QuadratureError, montecarlo.RejectionOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
