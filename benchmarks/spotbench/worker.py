"""One timed pass of the benchmark, in a process of its own.

``run.py`` starts this script once per pass, so every pass pays the import
of :mod:`repro` and starts with cold caches.  The last line of standard
output is one JSON object describing the pass.

    python3 benchmarks/spotbench/worker.py --workload paper-grid --seed 0 --draw 0
    python3 benchmarks/spotbench/worker.py --workload churn --seed 0 --draw 0 \
        --trace benchmarks/spotbench/out/churn.spans.csv.gz
    python3 benchmarks/spotbench/worker.py --golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``summary_text()`` SHA-256 digests of the two pinned scenarios.
GOLDEN = {
    "single-zone": "13bd9e142347b849dcba2c5f52829a5ca9c7638ccb40c83512c45d80ce4d64b5",
    "multi-zone": "33c8a35b9b2764488dda4379defb50adea6283cafdcfed7618b22167ecc8502c",
}


def golden_check() -> dict:
    """Re-run the pinned scenarios and compare their digests (untimed)."""
    from repro import SpotServeSystem, run_serving_experiment
    from repro.experiments.scenarios import (
        multi_zone_fluctuating_scenario,
        stable_workload_scenario,
    )

    single = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
    single_result = run_serving_experiment(
        SpotServeSystem,
        single.model_name,
        single.trace,
        single.arrival_process(),
        duration=single.duration,
        drain_time=200.0,
        options=single.options(),
    )
    multi, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
    multi_result = run_serving_experiment(
        SpotServeSystem,
        multi.model_name,
        trace=None,
        arrival_process=arrivals,
        duration=multi.duration,
        drain_time=300.0,
        options=multi.options(),
        zones=multi.zones,
        allow_spot_requests=True,
    )
    got = {
        name: hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        for name, result in (("single-zone", single_result), ("multi-zone", multi_result))
    }
    return {"golden": got, "failures": [n for n in GOLDEN if got[n] != GOLDEN[n]]}


def run_pass(workload: str, seed: int, draw: int, trace_path: str = "") -> dict:
    """Import ``repro``, run one draw of *workload* and describe it.

    Host times are calibrated seconds (see :mod:`spotbench.speed`); the
    measured ones are reported next to them with a ``raw_`` prefix.
    """
    from spotbench import speed

    def import_workloads():
        from spotbench import workloads

        return workloads

    workloads, raw_import_s, import_s, before = speed.timed(
        import_workloads, speed.kernel_seconds()
    )
    cells = workloads.draw_cells(workload, seed, draw)

    tracer, roots = None, {}
    if trace_path:
        from spotbench.tracing import Tracer

        tracer = Tracer()
        roots = {"on_setup": lambda: tracer.root("setup"), "on_run": lambda: tracer.root("run")}
    members = []
    outcomes = []
    with tracer.installed() if tracer else nullcontext():
        for cell in cells:
            outcomes.append(
                workloads.run_cell(cell, members_out=members, before=before, **roots)
            )
            before = outcomes[-1].kernel_after_s
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "workload": workload,
        "seed": seed,
        "draw": draw,
        "import_s": import_s,
        "setup_s": import_s + sum(o.setup_s for o in outcomes),
        "run_s": sum(o.run_s for o in outcomes),
        "raw_setup_s": raw_import_s + sum(o.raw_setup_s for o in outcomes),
        "raw_run_s": sum(o.raw_run_s for o in outcomes),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cells": [o.__dict__ for o in outcomes],
    }
    if tracer is not None:
        from spotbench.tracing import layer_metrics

        record["layers"] = layer_metrics(tracer, members)
        tracer.write(trace_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draw", type=int, default=0)
    parser.add_argument("--trace", default="", help="trace the pass; write its spans to this .csv.gz file")
    parser.add_argument("--golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    if args.golden:
        result = golden_check()
    else:
        result = run_pass(args.workload, args.seed, args.draw, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
