"""Process entry points the benchmark starts, optionally traced.

    python3 perfbench/child.py [--trace FILE --trace-id ID] cli ARG...
    python3 perfbench/child.py [--trace FILE --trace-id ID] library --x X --events N --seed S
    python3 perfbench/child.py setup --seed S --x X [--x X ...]

``cli`` runs ``bmixlhv.cli.main`` on the arguments.  ``library`` generates a
symmetrized batch in one worker, bins and fits it with no files, and prints
its timings and fit as one JSON line.  ``setup`` imports the CLI and
generates one event at each x, which builds every lazy per-x table.  With
``--trace`` the public entry points of every layer are wrapped (see
``tracer.py``) and the spans are written to FILE when the work ends.

``src`` of the checkout must be on PYTHONPATH; the runner sets it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracer as tracing


def run_library(x: float, events: int, seed: int) -> int:
    import numpy as np

    import bmixlhv
    from bmixlhv import analysis

    config = bmixlhv.SimConfig(params=bmixlhv.ModelParams(1.0, x), n_events=events,
                               seed=seed, symmetrized=True)
    start = time.perf_counter()
    batch = bmixlhv.generate(config, workers=1)
    generated = time.perf_counter()
    binned = analysis.bin_events(batch, np.linspace(0.0, 5.0, 51))
    fit = analysis.goodness_of_fit(binned, config.params)
    done = time.perf_counter()
    stats = batch.rng_stats
    print(json.dumps({
        "generate_s": generated - start,
        "analyze_s": done - generated,
        "n_events": len(batch),
        "fitted_delta_m": fit.fitted_delta_m,
        "true_delta_m": config.params.delta_m,
        "chi2_dof_same": fit.chi2_same / fit.dof,
        "chi2_dof_opposite": fit.chi2_opposite / fit.dof,
        "dof": fit.dof,
        "lambda_acceptance_rate": stats.lambda_acceptance_rate,
        "t2_acceptance_rate": stats.t2_acceptance_rate,
        "lambda_proposals": stats.lambda_proposals,
        "t2_proposals": stats.t2_proposals,
    }))
    return 0


def run_setup(xs: list[float], seed: int) -> int:
    import bmixlhv
    import bmixlhv.cli  # noqa: F401  (the import cost users pay per command)

    for x in xs:
        bmixlhv.generate(bmixlhv.SimConfig(params=bmixlhv.ModelParams(1.0, x),
                                           n_events=1, seed=seed))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", help="write spans to this JSON file")
    parser.add_argument("--trace-id", default="", help="identifier shared by the spans")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("args", nargs=argparse.REMAINDER)
    lib = sub.add_parser("library")
    lib.add_argument("--x", type=float, required=True)
    lib.add_argument("--events", type=int, required=True)
    lib.add_argument("--seed", type=int, required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--x", type=float, action="append", required=True)
    setup.add_argument("--seed", type=int, required=True)
    opts = parser.parse_args(argv)

    tracer = None
    if opts.trace:
        tracer = tracing.Tracer(opts.trace_id)
        tracing.install(tracer)
    try:
        if opts.mode == "cli":
            import bmixlhv.cli

            return bmixlhv.cli.main(opts.args)
        if opts.mode == "library":
            return run_library(opts.x, opts.events, opts.seed)
        return run_setup(opts.x, opts.seed)
    finally:
        if tracer is not None:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
