"""Child processes spawned by run.py, one operation each.

    child.py setup                     import-time breakdown of a fresh process
    child.py cli TRACE OP -- ARGV...   panelbreak.cli.main(ARGV), traced
    child.py mc TRACE OP SEED REPS N T B0 DELTA
                                       one run_experiment call, timed in-process
                                       per block of MC_BLOCK replications

TRACE is the span file to write, or "-" to run without tracing.  The
untraced CLI operation does not come here: run.py spawns
``python -m panelbreak.cli`` directly.
"""

from __future__ import annotations

import json
import sys
import time

# Replications per timed block of the mc operation: short enough that a run
# holds dozens of blocks, so a burst of load on the host moves the median
# block rate little.
MC_BLOCK = 25


def _setup() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.stats  # noqa: F401

    t2 = time.perf_counter()
    import panelbreak.cli  # noqa: F401
    from panelbreak.limits import sup_bessel_critical

    t3 = time.perf_counter()
    sup_bessel_critical(1, 0.15, 0.05)
    t4 = time.perf_counter()
    print(json.dumps({
        "setup.import_numpy_s": t1 - t0,
        "setup.import_scipy_stats_s": t2 - t1,
        "setup.import_panelbreak_s": t3 - t2,
        "limits.cache_load_s": t4 - t3,
    }))
    return 0


def _quantile_count() -> int:
    from panelbreak import limits

    return sum(len(t["quantiles"]) for t in limits.dump_tables()["tables"])


def _tables_simulated(after: int) -> int:
    """Quantiles added during the run: the packaged cache is reloaded to get the base.

    Counted per quantile, not per table, because a simulated off-grid
    quantile is merged into the existing table for its law.
    """
    from panelbreak import limits

    limits.clear_memory_cache()
    limits.sup_bessel_critical(1, 0.15, 0.05)
    return after - _quantile_count()


def _start_trace(trace_path: str, op_id: int):
    if trace_path == "-":
        return None
    from tracer import Tracer, install

    tracer = Tracer(op_id)
    install(tracer)
    return tracer


def _finish_trace(trace_path: str, tracer) -> None:
    n_spans = len(tracer.spans)
    simulated = _tables_simulated(_quantile_count())
    del tracer.spans[n_spans:]  # drop the spans of the recount itself
    with open(trace_path, "w") as handle:
        json.dump({
            "spans": tracer.spans,
            "counts": dict(tracer.counts, **{"limits.tables_simulated": simulated}),
        }, handle)


def _cli(trace_path: str, op_id: int, argv) -> int:
    import panelbreak.cli

    tracer = _start_trace(trace_path, op_id)
    code = panelbreak.cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        _finish_trace(trace_path, tracer)
    return code


def _stamp_replications(dgp, stamps: list) -> None:
    """Record when each replication starts: ``run_experiment`` begins each
    one with a call to ``generate`` through the ``dgp`` module's binding."""
    generate = dgp.generate

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return generate(*args, **kwargs)

    dgp.generate = stamped


def _block_rates(stamps: list, end: float, reps: int) -> list:
    """Replications per second of each run of MC_BLOCK consecutive ones."""
    block = min(MC_BLOCK, reps)
    edges = stamps[:reps] + [end]
    return [block / (edges[j + block] - edges[j]) for j in range(0, reps - block + 1, block)]


def _mc(trace_path: str, op_id: int, seed, reps, n_units, n_periods, b0, delta) -> int:
    from panelbreak import dgp
    from panelbreak.limits import sup_bessel_critical

    sup_bessel_critical(1, 0.15, 0.05)  # loads the packaged cache before timing
    config = dgp.DgpConfig(
        n_units=int(n_units), n_periods=int(n_periods), b0=int(b0),
        delta=(float(delta),), seed=int(seed),
    )
    tracer = _start_trace(trace_path, op_id)
    stamps: list = []
    _stamp_replications(dgp, stamps)
    start = time.perf_counter()
    report = dgp.run_experiment(config, "FULL", reps=int(reps))
    end = time.perf_counter()
    if tracer is not None:
        _finish_trace(trace_path, tracer)
    print(json.dumps({
        "elapsed_s": end - start,
        "block_rates": _block_rates(stamps, end, int(reps)),
        "report": report.to_dict(),
    }))
    return 0


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        return _setup()
    if argv[:1] == ["cli"] and len(argv) > 3 and argv[3] == "--":
        return _cli(argv[1], int(argv[2]), argv[4:])
    if argv[:1] == ["mc"] and len(argv) == 9:
        return _mc(argv[1], int(argv[2]), *argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
