"""The benchmark's four workloads and the code that runs one draw of them.

A *workload* is a fixed list of simulation *cells*; a *draw* is one seeded
realisation of that list.  Every cell is built from the repo's scenario
builders (:mod:`repro.experiments.scenarios`), or from ``MultiZoneScenario``
/ ``MultiTenantScenario`` / ``TenantSpec`` where a workload needs another
shape, so no scenario is defined twice.

Arrivals are open loop in simulated time: seeded Gamma (or MAF-shaped Gamma)
processes stand for independent users, and a request's latency runs from its
scheduled arrival, so queueing behind a stall counts.  Each arrival draw is
conditioned on its realised request count lying within
:data:`COUNT_TOLERANCE` of the expected count -- the rule the repo's
``DEFAULT_WORKLOAD_SEEDS`` were picked by -- because a CV=6 renewal process
otherwise swings a 20-minute cell's request count by a third between seeds.

Only the public API of :mod:`repro` is used.  The systems are assembled the
way :func:`repro.experiments.runner.run_serving_experiment` and
:func:`~repro.experiments.runner.run_multi_tenant_experiment` assemble them,
but with the set-up (build + ``initialize()``) and the ``run()`` timed apart.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import SpotServeSystem
from repro.cloud.provider import CloudProvider
from repro.core.tenancy import MultiTenantSystem, TenantSpec
from repro.experiments.scenarios import (
    STABLE_MODELS,
    STABLE_TRACES,
    MultiTenantScenario,
    MultiZoneScenario,
    chaos_scenario,
    heavy_traffic_market,
    stable_workload_scenario,
    tiered_offload_scenario,
)
from repro.faults import FaultInjector
from repro.llm.spec import get_model
from repro.sim.engine import Simulator
from repro.workload.arrival import (
    ArrivalProcess,
    GammaArrivals,
    TimeVaryingArrivals,
    default_rate_for,
)

from . import speed

#: Latency limit per model, in simulated seconds.  OPT-6.7B's is the repo's
#: existing ``slo_latency``; the others are about 4x the model's median
#: latency on the paper-grid AS cell.
SLO_LIMITS: Dict[str, float] = {
    "OPT-6.7B": 60.0,
    "LLaMA-30B": 150.0,
    "GPT-20B": 240.0,
}

#: Largest relative distance between a draw's realised and expected count.
COUNT_TOLERANCE = 0.10

#: Simulated drain time after the arrivals end (the runner's default).
PAPER_GRID_DRAIN = 600.0

#: Offered loads of the rate ladder, as multiples of the nominal rate
#: (``default_rate_for``: 1.5 req/s for OPT-6.7B).  The fleet serves about
#: 5x nominal, so the top rung is past capacity.
LADDER_RUNGS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0)
LADDER_MODEL = "OPT-6.7B"
LADDER_DURATION = 3600.0
LADDER_DRAIN = 300.0

CHURN_TARGET_REQUESTS = 4000
CHURN_DRAIN = 300.0
#: Chaos + tiered-offload pairs per churn draw.  Chaos outcomes swing widely
#: between seeds, so a draw carries two pairs to halve the per-process cost
#: of pooling many of them.
CHURN_PAIRS = 2

TENANTS_DURATION = 1800.0
TENANTS_DRAIN = 300.0
#: Tenant cells per draw; two share one process's start-up cost.
TENANTS_CELLS = 2


def expected_count(process: ArrivalProcess, duration: float) -> float:
    """Expected number of arrivals of *process* over ``[0, duration)``."""
    if isinstance(process, GammaArrivals):
        return process.rate * duration
    if isinstance(process, TimeVaryingArrivals):
        profile = process.rate_profile
        total = 0.0
        for index, (start, rate) in enumerate(profile):
            end = profile[index + 1][0] if index + 1 < len(profile) else duration
            total += rate * max(min(end, duration) - start, 0.0)
        return total
    raise TypeError(f"no expected count for {type(process).__name__}")


def representative_seed(
    rng: random.Random,
    make: Callable[[int], List[Tuple[ArrivalProcess, float]]],
    tries: int = 2000,
) -> int:
    """Draw seeds from *rng* until every process ``make(seed)`` returns is typical.

    ``make`` maps a candidate seed to ``(process, duration)`` pairs; a seed is
    accepted when each process's realised count is within
    :data:`COUNT_TOLERANCE` of its expected count.
    """
    for _ in range(tries):
        seed = rng.randrange(2 ** 31)
        if all(
            abs(process.count_arrivals(duration) - expected_count(process, duration))
            <= COUNT_TOLERANCE * expected_count(process, duration)
            for process, duration in make(seed)
        ):
            return seed
    raise RuntimeError("no representative arrival seed found")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass
class Built:
    """A constructed, initialised system ready to ``run()``."""

    simulator: Simulator
    provider: CloudProvider
    #: The serving system (a ``SpotServeSystem`` or a ``MultiTenantSystem``).
    system: object
    #: ``(name, system)`` per serving system whose stats are checked.
    members: List[Tuple[str, SpotServeSystem]]
    duration: float
    until: float


@dataclass
class Cell:
    """One simulation of a workload: a label, a builder and how to run it."""

    label: str
    #: The arrival seed the cell was drawn with (its other inputs are fixed).
    seed: int
    build: Callable[[], Built]
    #: Rate-ladder rungs also run to the end of arrivals first, so the
    #: backlog there can be read (same events, same results).
    ladder_rate: Optional[float] = None


def _single_system(
    model_name: str,
    arrivals: ArrivalProcess,
    duration: float,
    drain: float,
    options,
    trace=None,
    zones=None,
    allow_spot_requests: bool = False,
    fault_plan=None,
) -> Built:
    simulator = Simulator()
    provider = CloudProvider(
        simulator,
        trace,
        zones=zones,
        allow_spot_requests=allow_spot_requests,
        fault_injector=FaultInjector(fault_plan) if fault_plan is not None else None,
    )
    count = arrivals.count_arrivals(duration)
    system = SpotServeSystem(
        simulator,
        provider,
        get_model(model_name),
        options=options,
        initial_arrival_rate=max(count / max(duration, 1.0), 1e-3),
    )
    system.submit_arrival_process(arrivals, duration)
    system.initialize()
    return Built(simulator, provider, system, [("", system)], duration, duration + drain)


def _zone_system(
    scenario: MultiZoneScenario,
    arrivals: ArrivalProcess,
    drain: float,
    allow_spot_requests: bool,
) -> Built:
    return _single_system(
        scenario.model_name,
        arrivals,
        scenario.duration,
        drain,
        scenario.options(),
        zones=scenario.zones,
        allow_spot_requests=allow_spot_requests,
        fault_plan=scenario.fault_plan,
    )


def paper_grid_cell(model: str, trace: str, on_demand: bool, seed: int) -> Cell:
    def build() -> Built:
        scenario = stable_workload_scenario(
            model, trace, allow_on_demand=on_demand, seed=seed
        )
        return _single_system(
            model,
            scenario.arrival_process(),
            scenario.duration,
            PAPER_GRID_DRAIN,
            scenario.options(),
            trace=scenario.trace,
        )

    label = f"{model}/{trace}{'+O' if on_demand else ''}"
    return Cell(label, seed, build)


def ladder_scenario(multiple: float, seed: int) -> Tuple[MultiZoneScenario, GammaArrivals]:
    """One rung: the heavy-traffic fleet pinned (no autoscaler, no growth)."""
    scenario = MultiZoneScenario(
        model_name=LADDER_MODEL,
        zones=heavy_traffic_market(LADDER_DURATION),
        duration=LADDER_DURATION,
        seed=seed,
        autoscale_policy=None,
        allow_on_demand=False,
        retain_completed_requests=False,
    )
    arrivals = GammaArrivals(rate=default_rate_for(LADDER_MODEL) * multiple, cv=6.0, seed=seed)
    return scenario, arrivals


def ladder_cell(multiple: float, seed: int) -> Cell:
    def build() -> Built:
        scenario, arrivals = ladder_scenario(multiple, seed)
        return _zone_system(scenario, arrivals, LADDER_DRAIN, allow_spot_requests=False)

    rate = default_rate_for(LADDER_MODEL) * multiple
    return Cell(f"ladder/{multiple:g}x", seed, build, ladder_rate=rate)


def chaos_cell(seed: int) -> Cell:
    def build() -> Built:
        scenario, arrivals = chaos_scenario(
            "OPT-6.7B", seed=seed, target_requests=CHURN_TARGET_REQUESTS
        )
        return _zone_system(scenario, arrivals, CHURN_DRAIN, allow_spot_requests=True)

    return Cell("churn/chaos", seed, build)


def tiered_cell(seed: int) -> Cell:
    def build() -> Built:
        scenario, arrivals = tiered_offload_scenario(seed=seed)
        return _zone_system(scenario, arrivals, CHURN_DRAIN, allow_spot_requests=False)

    return Cell("churn/tiered-offload", seed, build)


def tenant_specs(seed: int) -> Tuple[TenantSpec, ...]:
    """Four tenants, three models, one latency tier with deadline-aware admission.

    The OPT-6.7B tenants offer the nominal rate; the big-model tenants half of
    it, since their three-instance floors leave them a smaller share.
    """
    return (
        TenantSpec(
            name="latency-tier",
            model_name="OPT-6.7B",
            priority=2.0,
            slo_latency=SLO_LIMITS["OPT-6.7B"],
            admission="deadline-aware",
            min_instances=1,
            arrival_rate=default_rate_for("OPT-6.7B"),
            seed=seed + 1,
        ),
        TenantSpec(
            name="opt-batch",
            model_name="OPT-6.7B",
            min_instances=1,
            arrival_rate=default_rate_for("OPT-6.7B"),
            seed=seed + 2,
        ),
        TenantSpec(
            name="gpt-20b",
            model_name="GPT-20B",
            min_instances=3,
            arrival_rate=0.5 * default_rate_for("GPT-20B"),
            seed=seed + 3,
        ),
        TenantSpec(
            name="llama-30b",
            model_name="LLaMA-30B",
            min_instances=3,
            arrival_rate=0.5 * default_rate_for("LLaMA-30B"),
            seed=seed + 4,
        ),
    )


def tenants_cell(seed: int) -> Cell:
    def build() -> Built:
        scenario = MultiTenantScenario(
            tenants=tenant_specs(seed),
            zones=heavy_traffic_market(TENANTS_DURATION),
            duration=TENANTS_DURATION,
            seed=seed,
        )
        simulator = Simulator()
        provider = CloudProvider(simulator, None, zones=scenario.zones)
        system = MultiTenantSystem(simulator, provider, scenario.tenants)
        system.submit_workloads(scenario.duration)
        system.initialize()
        members = [(spec.name, system.systems[spec.name]) for spec in scenario.tenants]
        return Built(
            simulator,
            provider,
            system,
            members,
            scenario.duration,
            scenario.duration + TENANTS_DRAIN,
        )

    return Cell("tenants/4", seed, build)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _paper_grid(rng: random.Random) -> List[Cell]:
    cells = []
    for model in STABLE_MODELS:
        for trace in STABLE_TRACES:
            for on_demand in (False, True):

                def make(seed: int, model=model, trace=trace):
                    scenario = stable_workload_scenario(model, trace, seed=seed)
                    return [(scenario.arrival_process(), scenario.duration)]

                cells.append(
                    paper_grid_cell(model, trace, on_demand, representative_seed(rng, make))
                )
    return cells


def _rate_ladder(rng: random.Random) -> List[Cell]:
    cells = []
    for multiple in LADDER_RUNGS:

        def make(seed: int, multiple=multiple):
            _, arrivals = ladder_scenario(multiple, seed)
            return [(arrivals, LADDER_DURATION)]

        cells.append(ladder_cell(multiple, representative_seed(rng, make)))
    return cells


def _churn(rng: random.Random) -> List[Cell]:
    def make_chaos(seed: int):
        scenario, arrivals = chaos_scenario(
            "OPT-6.7B", seed=seed, target_requests=CHURN_TARGET_REQUESTS
        )
        return [(arrivals, scenario.duration)]

    def make_tiered(seed: int):
        scenario, arrivals = tiered_offload_scenario(seed=seed)
        return [(arrivals, scenario.duration)]

    cells = []
    for _ in range(CHURN_PAIRS):
        cells.append(chaos_cell(representative_seed(rng, make_chaos)))
        cells.append(tiered_cell(representative_seed(rng, make_tiered)))
    return cells


def _tenants(rng: random.Random) -> List[Cell]:
    def make(seed: int):
        return [(spec.arrival_process(), TENANTS_DURATION) for spec in tenant_specs(seed)]

    return [tenants_cell(representative_seed(rng, make)) for _ in range(TENANTS_CELLS)]


#: Cell makers per workload; ``README.md`` says why each workload exists.
WORKLOADS: Dict[str, Callable[[random.Random], List[Cell]]] = {
    "paper-grid": _paper_grid,
    "rate-ladder": _rate_ladder,
    "churn": _churn,
    "tenants": _tenants,
}


def draw_cells(workload: str, seed: int, draw: int) -> List[Cell]:
    """The cells of *workload*'s draw number *draw* for run seed *seed*."""
    rng = random.Random(f"spotbench/{workload}/{seed}/{draw}")
    return WORKLOADS[workload](rng)


# ----------------------------------------------------------------------
# Running one draw
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """What one cell produced, timed and checked."""

    label: str
    #: Calibrated host seconds (see :mod:`spotbench.speed`).
    setup_s: float
    run_s: float
    #: Measured host seconds.
    raw_setup_s: float
    raw_run_s: float
    #: Calibration-kernel time taken after the run.
    kernel_after_s: float
    submitted: int
    completed: int
    within_slo: int
    tokens: int
    usd: float
    digest: str
    latencies: List[float]
    failures: List[str] = field(default_factory=list)
    #: Rate-ladder rungs only: offered rate, backlog at the middle and the
    #: end of arrivals, and whether it grew.
    ladder: Optional[Dict[str, float]] = None


def _check(members: List[Tuple[str, SpotServeSystem]]) -> List[str]:
    """Request conservation and spill-ledger balance for every member system."""
    failures = []
    for name, system in members:
        stats = system.stats
        accounted = (
            stats.completed_count
            + system.unfinished_request_count()
            + stats.requests_dropped
            + stats.requests_rejected
            + stats.requests_shed
        )
        if system.submitted_requests != accounted:
            failures.append(
                f"{name or 'system'}: submitted {system.submitted_requests} != "
                f"accounted {accounted}"
            )
        ledger = stats.bytes_restored + stats.bytes_abandoned + system.pending_spill_bytes()
        if not math.isclose(stats.bytes_spilled, ledger, rel_tol=1e-9, abs_tol=1e-3):
            failures.append(
                f"{name or 'system'}: spilled {stats.bytes_spilled!r} != "
                f"restored+abandoned+pending {ledger!r}"
            )
    return failures


def run_cell(cell: Cell, on_setup=nullcontext, on_run=nullcontext, members_out=None,
             before: Optional[float] = None) -> CellOutcome:
    """Build, initialise and run *cell*, timing set-up and run apart.

    ``on_setup`` / ``on_run`` are context-manager factories the tracer uses to
    open its root spans; they wrap exactly the timed regions.  *before* is a
    calibration-kernel time taken just before the call (one is taken when
    omitted).  The cell's ``(name, system)`` pairs are appended to
    *members_out* when given.
    """
    if before is None:
        before = speed.kernel_seconds()

    def setup() -> Built:
        with on_setup():
            return cell.build()

    built, raw_setup_s, setup_s, between = speed.timed(setup, before)

    def run() -> Optional[Dict[str, float]]:
        with on_run():
            return _run_built(built, cell)

    ladder, raw_run_s, run_s, after = speed.timed(run, between)

    failures = _check(built.members)
    if members_out is not None:
        members_out.extend(built.members)
    now = built.simulator.now
    latencies: List[float] = []
    within = 0
    completed = 0
    tokens = 0
    texts = []
    for name, system in built.members:
        stats = system.stats
        member_latencies = stats.latencies()
        limit = SLO_LIMITS[system.model.name]
        within += sum(1 for value in member_latencies if value <= limit)
        latencies.extend(member_latencies)
        completed += stats.completed_count
        tokens += stats.tokens_generated
        texts.append(f"[{name}]\n{stats.summary_text()}")
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return CellOutcome(
        label=cell.label,
        setup_s=setup_s,
        run_s=run_s,
        raw_setup_s=raw_setup_s,
        raw_run_s=raw_run_s,
        kernel_after_s=after,
        submitted=sum(system.submitted_requests for _, system in built.members),
        completed=completed,
        within_slo=within,
        tokens=tokens,
        usd=built.provider.cost_tracker.total_cost(now),
        digest=digest,
        latencies=latencies,
        failures=failures,
        ladder=ladder,
    )


def _run_built(built: Built, cell: Cell) -> Optional[Dict[str, float]]:
    if cell.ladder_rate is None:
        built.system.run(until=built.until)
        return None
    # Stop at the end of arrivals to read the backlog, then drain.  The
    # simulator resumes exactly where it stopped, so the events are the same.
    half = built.duration / 2.0
    built.system.run(until=half)
    backlog_half = built.system.unfinished_request_count()
    built.system.run(until=built.duration)
    backlog_end = built.system.unfinished_request_count()
    built.system.run(until=built.until)
    # Growing: the second half of the arrivals added more than one latency
    # limit's worth of arrivals to the backlog.
    limit = SLO_LIMITS[LADDER_MODEL]
    return {
        "rate": cell.ladder_rate,
        "limit_s": limit,
        "backlog_half": backlog_half,
        "backlog_end": backlog_end,
        "growing": backlog_end > backlog_half + cell.ladder_rate * limit,
    }
