"""Benchmark of the bmixlhv command-line and library paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src`` of
that checkout.  Workloads (see BENCHMARK.json for why each was chosen):

    pipeline-1m  bmixlhv simulate (10^6 events, 2 threads), then
                 bmixlhv analyze on the event file it names
    library-2m   one process: generate 2*10^6 symmetrized events in one
                 worker, bin_events and goodness_of_fit, no files
    scan-3x      bmixlhv scan 0.776 2.0 5.0 (10^5 events each, 2 threads)
    all          the three above, one after another, in fresh processes

Each workload is a closed loop with one client: the next command starts
when the previous one has ended, and iterations repeat until S seconds have
passed since the run began, set-up included (at least one iteration).  Every iteration uses the generator seed N, so the
iterations of a run repeat the same work on the same inputs.

With ``--trace 0`` the run first times set-up (a fresh interpreter that
imports the CLI and generates one event at each x of the workload) and
reports the end-to-end metrics.  With ``--trace 1`` every iteration is run
twice, untraced and then with spans around each layer's public entry
points (``tracer.py``); the run reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
LEDGER = WORK / "event_digests.json"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
PIPELINE_X = 0.776
THREADS = 2
BINS = 50

# Output checks.  A sampler or fit defect moves these far beyond the bands;
# the chi-square band is the two-sided 1e-6 quantile band of chi2(dof)/dof,
# so a correct sampler falls outside it about once in 500 000 fits.
FIT_REL_TOL = 0.01
CHI2_TAIL = 1e-6
ACCEPTANCE_SIGMAS = 5.0
ACCEPTANCE = 2.0 / math.pi  # both rejection stages accept with probability 2/pi
# The band of acceptance criterion 5, reported (not gated) for comparison.
CRITERION5_BAND = (0.5, 1.6)


@dataclass(frozen=True)
class Sizes:
    pipeline_events: int = 1_000_000
    library_events: int = 2_000_000
    scan_events: int = 100_000
    scan_x: tuple = (0.776, 2.0, 5.0)
    setup_repeats: int = 3


SIZES = {
    "full": Sizes(),
    # for the runner's self-test: every path and metric, in seconds
    "tiny": Sizes(pipeline_events=300, library_events=400, scan_events=300,
                  scan_x=(0.776,), setup_repeats=1),
}


class StepFailed(Exception):
    """A command or output check failed; the rest of the iteration is skipped."""


@dataclass
class Proc:
    seconds: float
    returncode: int
    stdout: str


@dataclass
class Iteration:
    wall_s: float = 0.0
    events: int = 0
    parts: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    digest: str | None = None


class Run:
    """State of one benchmark run: its directory, checks and processes."""

    def __init__(self, workload: str, seed: int, sizes: Sizes):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.env = child_env()
        self._procs = 0

    # -- checks ----------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            raise StepFailed(what)

    def soft_check(self, ok: bool, what: str) -> None:
        try:
            self.check(ok, what)
        except StepFailed:
            pass

    # -- processes -------------------------------------------------------
    def process(self, label: str, argv: list[str], workload_process: bool = True) -> Proc:
        """Run one process to completion; its wall time is measured from
        before the spawn to after it has been reaped."""
        self._procs += 1
        log = self.dir / f"proc{self._procs:03d}"
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.dir, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), _kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc)
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if workload_process:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        cpu_s = usage.ru_utime + usage.ru_stime
        print(f"# process {label}: wall {seconds:.4f} s, cpu {cpu_s:.4f} s, "
              f"max rss {usage.ru_maxrss / 1024.0:.1f} MiB, exit {proc.returncode}")
        return Proc(seconds, proc.returncode, log.with_suffix(".out").read_text())

    def command(self, what: str, argv: list[str]) -> Proc:
        proc = self.process(what, argv)
        self.check(proc.returncode == 0, f"{what} exited with {proc.returncode}")
        return proc


def child_argv(mode_args: list, trace_file: Path | None = None, trace_id: str = "") -> list[str]:
    argv = [sys.executable, str(CHILD)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file), "--trace-id", trace_id]
    return argv + [str(a) for a in mode_args]


def cli_argv(cli_args: list, trace_file: Path | None, trace_id: str) -> list[str]:
    """The plain CLI when untraced; through child.py when traced."""
    if trace_file is None:
        return [sys.executable, "-m", "bmixlhv.cli"] + [str(a) for a in cli_args]
    return child_argv(["cli"] + cli_args, trace_file, trace_id)


def child_env() -> dict:
    """Environment of the started processes: the checkout's sources first on
    the import path, and no thread-count override from the caller."""
    env = dict(os.environ)
    env.pop("BMIXLHV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill(proc: subprocess.Popen) -> None:
    try:
        proc.kill()
    except ProcessLookupError:
        pass


def _yaml(path: Path) -> dict:
    import yaml

    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _chi2_band(dof: int) -> tuple[float, float]:
    from scipy.stats import chi2

    return chi2.ppf(CHI2_TAIL, dof) / dof, chi2.isf(CHI2_TAIL, dof) / dof


def check_fit(run: Run, fit: dict, label: str) -> None:
    """Fitted frequency within 1 % of truth; both chi2/dof inside the band."""
    dev = abs(fit["fitted_delta_m"] - fit["true_delta_m"]) / fit["true_delta_m"]
    run.soft_check(dev <= FIT_REL_TOL, f"{label}: fitted delta_m off by {dev:.2%}")
    lo, hi = _chi2_band(int(fit["dof"]))
    for cls in ("same", "opposite"):
        value = fit[f"chi2_dof_{cls}"]
        run.soft_check(lo <= value <= hi,
                       f"{label}: chi2/dof {cls} {value:.3f} outside [{lo:.3f}, {hi:.3f}]")
        if not CRITERION5_BAND[0] <= value <= CRITERION5_BAND[1]:
            print(f"# note: {label} chi2/dof {cls} {value:.3f} is outside the criterion-5 "
                  f"band {CRITERION5_BAND} (expected for about 1 seed in 60)")


def check_acceptance(run: Run, stats: dict, label: str) -> None:
    """Both rejection stages accept within 5 sigma of 2/pi."""
    for stage in ("lambda", "t2"):
        proposals = stats[f"{stage}_proposals"]
        rate = stats[f"{stage}_acceptance_rate"]
        sigma = math.sqrt(ACCEPTANCE * (1.0 - ACCEPTANCE) / proposals)
        run.soft_check(abs(rate - ACCEPTANCE) <= ACCEPTANCE_SIGMAS * sigma,
                       f"{label}: {stage} acceptance {rate:.5f} is not within "
                       f"{ACCEPTANCE_SIGMAS:g} sigma of 2/pi")


# ---------------------------------------------------------------------------
# workloads: one iteration each

def pipeline_iteration(run: Run, trace_dir: Path | None, tag: str) -> Iteration:
    n = run.sizes.pipeline_events
    out = run.dir / tag
    it = Iteration(events=n)
    traces = {}
    for step in ("simulate", "analyze"):
        traces[step] = trace_dir / f"{tag}-{step}.json" if trace_dir else None
    sim = run.command("simulate", cli_argv(
        ["simulate", "--x", PIPELINE_X, "--events", n, "--threads", THREADS,
         "--seed", run.seed, "--out", out], traces["simulate"], f"{run.workload}/{tag}/simulate"))
    it.parts["simulate_s"] = sim.seconds
    it.wall_s += sim.seconds
    manifest = _yaml(out / "manifest.yaml")
    event_file = out / manifest["event_file"]
    it.digest = _sha256(event_file)
    ana = run.command("analyze", cli_argv(
        ["analyze", event_file, "--bins", BINS, "--out", out],
        traces["analyze"], f"{run.workload}/{tag}/analyze"))
    it.parts["analyze_s"] = ana.seconds
    it.wall_s += ana.seconds
    fit = _yaml(out / "analysis_fit.yaml")
    check_fit(run, fit, "pipeline fit")
    check_acceptance(run, manifest, "simulate")
    it.traces = [p for p in traces.values() if p is not None]
    shutil.rmtree(out)
    return it


def library_iteration(run: Run, trace_dir: Path | None, tag: str) -> Iteration:
    n = run.sizes.library_events
    trace = trace_dir / f"{tag}-library.json" if trace_dir else None
    proc = run.command("library", child_argv(
        ["library", "--x", PIPELINE_X, "--events", n, "--seed", run.seed],
        trace, f"{run.workload}/{tag}/library"))
    it = Iteration(wall_s=proc.seconds, events=n, traces=[trace] if trace else [])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    it.parts = {"simulate_s": result["generate_s"], "analyze_s": result["analyze_s"]}
    run.soft_check(result["n_events"] == n, f"library generated {result['n_events']} events")
    check_fit(run, result, "library fit")
    check_acceptance(run, result, "library generate")
    return it


def scan_iteration(run: Run, trace_dir: Path | None, tag: str) -> Iteration:
    xs = run.sizes.scan_x
    n = run.sizes.scan_events
    out = run.dir / tag
    trace = trace_dir / f"{tag}-scan.json" if trace_dir else None
    proc = run.command("scan", cli_argv(
        ["scan", *xs, "--events", n, "--threads", THREADS, "--seed", run.seed, "--out", out],
        trace, f"{run.workload}/{tag}/scan"))
    it = Iteration(wall_s=proc.seconds, events=n * len(xs), traces=[trace] if trace else [])
    points = _yaml(out / "scan_summary.yaml")["points"]
    run.soft_check([p["x"] for p in points] == list(xs), "scan reported other x values")
    for p in points:
        run.soft_check(p["status"] == "ok", f"scan x={p['x']}: status {p['status']!r}")
    shutil.rmtree(out)
    return it


WORKLOADS = {
    "pipeline-1m": (pipeline_iteration, lambda s: (PIPELINE_X,)),
    "library-2m": (library_iteration, lambda s: (PIPELINE_X,)),
    "scan-3x": (scan_iteration, lambda s: s.scan_x),
}


# ---------------------------------------------------------------------------
# measurement

def measure_setup(run: Run) -> float:
    """Median wall time of fresh interpreters that import the CLI and
    generate one event at each x of the workload."""
    xs = WORKLOADS[run.workload][1](run.sizes)
    args = ["setup", "--seed", run.seed]
    for x in xs:
        args += ["--x", x]
    times = []
    for _ in range(run.sizes.setup_repeats):
        proc = run.process("set-up probe", child_argv(args), workload_process=False)
        run.soft_check(proc.returncode == 0, f"set-up probe exited with {proc.returncode}")
        times.append(proc.seconds)
    return statistics.median(times)


def run_iteration(run: Run, traced: bool, tag: str) -> Iteration | None:
    iteration, _ = WORKLOADS[run.workload]
    trace_dir = run.dir if traced else None
    try:
        return iteration(run, trace_dir, tag)
    except StepFailed:
        return None
    except (OSError, KeyError, ValueError, TypeError) as exc:
        run.attempted += 1
        run.failed += 1
        run.failures.append(f"{tag}: unreadable output: {exc!r}")
        return None


def check_digests(run: Run, iterations: list[Iteration]) -> None:
    """The event file of a seed must be byte-identical in every iteration and
    in every run of the same source (recorded in a ledger in the work dir)."""
    digests = [it.digest for it in iterations if it.digest is not None]
    if not digests:
        return
    key = f"{source_digest()}:{run.workload}:{run.sizes.pipeline_events}:{run.seed}"
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    expected = ledger.setdefault(key, digests[0])
    for digest in digests:
        run.soft_check(digest == expected, f"event file digest {digest} differs from {expected}")
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    print(f"# event file sha256 {expected} ({len(digests)} iterations)")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bmixlhv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches_per_core": caches,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    print(f"# workload {workload}: seed {seed}, closed loop, one client, "
          f"{seconds:g} s, trace {int(trace)}")
    run = Run(workload, seed, sizes)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(run, seconds, trace)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def _measure(run: Run, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else measure_setup(run)
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    while True:
        loop_start = time.monotonic()
        tag = f"it{len(plain) + len(traced)}"
        it = run_iteration(run, False, tag)
        if it is not None:
            plain.append(it)
        if trace:
            it = run_iteration(run, True, tag + "t")
            if it is not None:
                traced.append(it)
        now = time.monotonic()
        if now - run.start >= seconds or now + (now - loop_start) > run.deadline:
            break
    for it in plain + traced:
        print(f"# {'traced' if it.traces else 'iteration'}: wall_s {it.wall_s:.4f}"
              + "".join(f", {k} {v:.4f}" for k, v in it.parts.items()))
    check_digests(run, plain + traced)

    metrics = {}
    if not trace:
        wall = statistics.median(it.wall_s for it in plain) if plain else math.nan
        events = plain[0].events if plain else 0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "events_per_s": (events / wall, "1/s"),
            "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MiB"),
        }
        shown = {f"{k} (median)": (statistics.median(it.parts[k] for it in plain), "s")
                 for k in (plain[0].parts if plain else ())}
    else:
        per_iteration = []
        for it in traced:
            traces = [tracing.load(p) for p in it.traces]
            for t in traces:
                errors = tracing.nesting_errors(t)
                run.soft_check(not errors, f"span nesting in {t['trace_id']}: {errors[:3]}")
            per_iteration.append(tracing.per_layer_metrics(traces))
        for name, (unit, _) in tracing.PER_LAYER.items():
            values = [m[name] for m in per_iteration if m[name] is not None]
            metrics[name] = (statistics.median(values) if values else None, unit)
        traced_wall = statistics.median(it.wall_s for it in traced) if traced else math.nan
        plain_wall = statistics.median(it.wall_s for it in plain) if plain else math.nan
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        shown = {}

    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name} = {'absent' if value is None else repr(value)} {unit}")
    print(f"fail_ratio = {run.failed}/{run.attempted}")
    for failure in run.failures:
        print(f"# failed: {failure}")
    return {
        "correct": run.failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: ({"value": value, "unit": unit} if value is not None
                           else {"value": None, "unit": unit, "absent": True})
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start iterations until this much time has passed since the start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' runs every path in seconds (self-test only)")
    opts = parser.parse_args(argv)
    # a terminated run still stops the process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bmixlhv" / "cli.py").is_file():
        print(f"error: no bmixlhv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not 0 <= opts.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        if opts.workload == "all":
            # each workload in a fresh runner process, like the single-workload runs
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(opts.seed),
                 "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                 "--size", opts.size], stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines() or [""]
            print("\n".join(line for line in lines[:-1] if not line.startswith("# env")))
            try:
                results[name] = json.loads(lines[-1])
            except json.JSONDecodeError:
                print(f"# failed: {name} runner exited with {proc.returncode} and no result")
                results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            results[name] = measure(name, opts.seed, opts.seconds, bool(opts.trace),
                                    SIZES[opts.size])
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
