"""Benchmark driver: run one workload for a while, check it, print its metrics.

    python3 benchmarks/spotbench/run.py --workload paper-grid --seed 0 --seconds 15 --trace 0

Every timed pass runs in a fresh, single-threaded process (``worker.py``),
one after another.  A run first re-checks the two golden digests (untimed),
then cycles through the workload's fixed number of seeded draws until
``--seconds`` have passed and every draw ran at least once.

``--trace 0`` reports the end-to-end metrics: host times are medians over
passes, simulated metrics pool the distinct draws (exact for a seed).
``--trace 1`` runs draw 0 untraced a few times and then once more with the
span tracer installed, and reports the per-layer metrics of that traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, p99, digests, CPU seconds, the ladder).
See ``README.md`` for the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

#: Draws per workload (the simulated metrics pool exactly these) and cells
#: per draw; kept here so the driver never imports ``repro`` itself.
DRAWS: Dict[str, Tuple[int, int]] = {
    "paper-grid": (5, 12),
    "rate-ladder": (7, 5),
    "churn": (14, 4),
    "tenants": (16, 2),
}

#: Untraced passes of draw 0 that a ``--trace 1`` run times as the reference.
TRACE_REFERENCE_PASSES = 3

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 60.0

#: No new pass starts unless it would end, at the pace of the longest pass
#: so far, within this many seconds of the run's start.
RUN_BUDGET_S = 150.0

#: Single-threaded BLAS/OpenMP in every pass.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "served_req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_gmean_latency_s": "s",
    "sim_slo_attainment": "share",
    "sim_usd_per_1k_tokens": "usd/1k",
    "served_share": "share",
}


def worker(args: List[str]) -> Optional[dict]:
    """Run ``worker.py`` with *args*; its JSON record, or None if it failed."""
    env = dict(os.environ, **THREAD_ENV)
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {args} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"worker {args} failed:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def pass_failures(record: Optional[dict]) -> List[str]:
    if record is None:
        return ["pass failed to run"]
    return [f"{cell['label']}: {f}" for cell in record["cells"] for f in cell["failures"]]


def digests(record: dict) -> List[str]:
    return [cell["digest"] for cell in record["cells"]]


class Run:
    """Bookkeeping shared by the end-to-end and traced modes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.draws, self.cells_per_draw = DRAWS[workload]
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: Cell digests of the first pass of each draw.
        self.first: Dict[int, List[str]] = {}

    def timed_pass(self, draw: int, trace_path: str = "") -> Optional[dict]:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--draw", str(draw)]
        if trace_path:
            args += ["--trace", trace_path]
        record = worker(args)
        problems = pass_failures(record)
        if record is not None:
            seen = self.first.setdefault(draw, digests(record))
            if digests(record) != seen:
                problems.append(f"draw {draw}: digests differ between passes")
        self.attempted += self.cells_per_draw
        if problems:
            self.failed += self.cells_per_draw
            self.failures.extend(problems)
        return record


def end_to_end(run: Run, seconds: float) -> Tuple[Dict[str, float], dict]:
    start = time.perf_counter()
    passes: List[Tuple[dict, bool]] = []
    index = 0
    longest = 0.0
    while index < run.draws or time.perf_counter() - start < seconds:
        if time.perf_counter() - start + longest > RUN_BUDGET_S:
            if index < run.draws:
                run.failures.append("run budget exhausted before every draw ran")
            break
        failed_before = run.failed
        began = time.perf_counter()
        record = run.timed_pass(index % run.draws)
        longest = max(longest, time.perf_counter() - began)
        if record is not None:
            passes.append((record, run.failed == failed_before))
        index += 1
    if not passes:
        raise SystemExit("no pass completed")

    # Simulated metrics: the first pass of every distinct draw.
    firsts = {}
    for record, ok in passes:
        firsts.setdefault(record["draw"], (record, ok))
    latencies: List[float] = []
    submitted = completed = within = tokens = 0
    usd = 0.0
    ladder = []
    for record, ok in firsts.values():
        for cell in record["cells"]:
            submitted += cell["submitted"]
            tokens += cell["tokens"]
            usd += cell["usd"]
            if ok:
                completed += cell["completed"]
                within += cell["within_slo"]
                latencies.extend(cell["latencies"])
            if cell["ladder"] is not None:
                ladder.append(dict(cell["ladder"], latencies=cell["latencies"]))
    setup = [record["setup_s"] for record, _ in passes]
    runs = [record["run_s"] for record, _ in passes]
    served = sum(
        sum(cell["completed"] for cell in record["cells"]) for record, ok in passes if ok
    )
    if not latencies or not tokens:
        run.failures.append("no request completed")
        latencies, tokens = [1.0], 1
    # The draws are different inputs, so run_s adds their times up (per draw);
    # repeats of one draw are the same input, so they count by their median.
    by_draw: Dict[int, List[float]] = {}
    for record, _ in passes:
        by_draw.setdefault(record["draw"], []).append(record["run_s"])
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.fmean(statistics.median(times) for times in by_draw.values()),
        "served_req_per_s": served / (sum(setup) + sum(runs)),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record, _ in passes),
        "sim_gmean_latency_s": statistics.geometric_mean(latencies),
        "sim_slo_attainment": within / submitted,
        "sim_usd_per_1k_tokens": 1000.0 * usd / tokens,
        "served_share": completed / submitted,
    }
    details = {
        "passes": len(passes),
        "draws": len(firsts),
        "sim_requests_submitted": submitted,
        "sim_latency_samples": len(latencies),
        "sim_mean_latency_s": statistics.fmean(latencies),
        "sim_p50_latency_s": nearest_rank(latencies, 50),
        "sim_p90_latency_s": nearest_rank(latencies, 90),
        "sim_p99_latency_s": nearest_rank(latencies, 99),
        "failed_share": 1.0 - completed / submitted,
        "setup_s_per_pass": setup,
        "run_s_per_pass": runs,
        "raw_setup_s_per_pass": [record["raw_setup_s"] for record, _ in passes],
        "raw_run_s_per_pass": [record["raw_run_s"] for record, _ in passes],
        "cpu_s_per_pass": [record["cpu_s"] for record, _ in passes],
        "import_s_per_pass": [record["import_s"] for record, _ in passes],
    }
    if ladder:
        details["ladder"] = ladder_summary(ladder)
    return metrics, details


def ladder_summary(rungs: List[dict]) -> dict:
    """Latency per offered rate, pooled over draws, and the best rate at the limit.

    A rate meets the limit when its pooled p99 is within the latency limit
    and no draw's backlog was growing at the end of arrivals.
    """
    by_rate: Dict[float, dict] = {}
    for rung in rungs:
        entry = by_rate.setdefault(
            rung["rate"], {"latencies": [], "growing": False, "limit_s": rung["limit_s"]}
        )
        entry["latencies"].extend(rung["latencies"])
        entry["growing"] = entry["growing"] or rung["growing"]
    rows = []
    best = 0.0
    for rate in sorted(by_rate):
        entry = by_rate[rate]
        samples = entry["latencies"]
        p99 = nearest_rank(samples, 99) if samples else None
        meets = p99 is not None and p99 <= entry["limit_s"] and not entry["growing"]
        if meets:
            best = rate
        rows.append(
            {
                "rate": rate,
                "samples": len(samples),
                "p50_s": nearest_rank(samples, 50) if samples else None,
                "p99_s": p99,
                "backlog_growing": entry["growing"],
                "meets_limit": meets,
            }
        )
    return {"rungs": rows, "sim_max_rate_at_slo": best}


def traced(run: Run, seconds: float) -> Tuple[Dict[str, float], dict]:
    start = time.perf_counter()
    reference = []
    while len(reference) < TRACE_REFERENCE_PASSES or time.perf_counter() - start < seconds / 2:
        record = run.timed_pass(0)
        if record is None:
            raise SystemExit("reference pass failed")
        reference.append(record["run_s"])
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{run.workload}.spans.csv.gz"
    record = run.timed_pass(0, str(trace_path))
    if record is None:
        raise SystemExit("traced pass failed")
    # timed_pass already counts a mismatch against the untraced draw 0.
    layers = dict(record["layers"])
    untraced_run_s = statistics.median(reference)
    layers["trace.untraced_run_s"] = untraced_run_s
    # Calibrated on both sides, so the host's drift between them cancels.
    layers["trace.overhead_ratio"] = record["run_s"] / untraced_run_s
    details = {
        "reference_passes": len(reference),
        "untraced_run_s_per_pass": reference,
        "traced_run_s": record["run_s"],
        "spans_file": str(trace_path.relative_to(ROOT)),
        "sim_requests_submitted": sum(cell["submitted"] for cell in record["cells"]),
        "digests_match_untraced": digests(record) == run.first[0],
    }
    return layers, details


def layer_units() -> Dict[str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from spotbench.tracing import LAYER_METRICS

    units = dict(LAYER_METRICS)
    units["trace.untraced_run_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DRAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    golden = worker(["--golden"])
    run.attempted += 2
    if golden is None:
        run.failed += 2
        run.failures.append("golden pre-check failed to run")
    else:
        run.failed += len(golden["failures"])
        run.failures.extend(f"golden digest changed: {name}" for name in golden["failures"])

    if args.trace:
        values, details = traced(run, args.seconds)
        units = layer_units()
    else:
        values, details = end_to_end(run, args.seconds)
        units = END_TO_END_UNITS
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "digest": hashlib.sha256(
                "".join("".join(run.first[d]) for d in sorted(run.first)).encode()
            ).hexdigest(),
            "golden": golden["golden"] if golden else None,
            "failures": run.failures,
        }
    )
    print(json.dumps(details))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
