"""Parallelization controller: the adaptive configuration optimizer.

This is Algorithm 1 of the paper.  Given the number of available instances
``N_t`` (instances in their grace period excluded, newly allocated instances
included) and the observed request arrival rate ``alpha_t``, the optimizer
selects the next parallel configuration ``C_{t+1}``:

* if some configuration can sustain the arrival rate (``phi(C) >= alpha_t``)
  and the cloud can provide enough instances for it, pick the one with the
  smallest estimated end-to-end request latency ``l_req(C)`` -- among
  near-ties the cheaper (fewer instances) configuration wins;
* otherwise pick the configuration that maximises throughput on the
  instances at hand;
* the difference between the chosen configuration's instance requirement and
  ``N_t`` is returned so the instance manager can allocate (on-demand and
  spot together) or release (on-demand first) instances.

``l_req`` is estimated as the execution latency from the offline profiler
plus a simple queueing/batch-formation term, mirroring the paper's
decomposition ``l_req = l_sch + l_exe``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..llm.profiler import OfflineProfiler
from ..perf import NULL_TIMERS, PhaseTimers
from .config import ConfigurationSpace, ParallelConfig

#: Two candidate latencies within this relative margin are treated as ties,
#: letting the cheaper configuration win (Section 3.2).
LATENCY_TIE_MARGIN = 0.05

#: Decimal places the arrival rate is rounded to when keying the estimate
#: memo.  Twelve decimals only merges rates that are numerically
#: indistinguishable for any decision threshold, so memoisation cannot
#: change which configuration wins.
RATE_KEY_DECIMALS = 12

#: Memo size caps.  Fluctuating arrival rates mint a fresh key almost every
#: round, so on very long runs the memos would grow without bound; once a
#: cap is hit the memo is flushed wholesale (an epoch flush keeps the hit
#: path a single dict probe).  The caps comfortably hold many rounds of
#: intra-round hits, which is where all the savings are.
ESTIMATE_MEMO_MAX = 65536
SWEEP_MEMO_MAX = 256

#: Distinguishes "memoised as None (no feasible config)" from a memo miss.
_MEMO_MISS = object()


@dataclass(frozen=True)
class ConfigEstimate:
    """Cost-model estimates for one candidate configuration."""

    config: ParallelConfig
    execution_latency: float
    request_latency: float
    throughput: float
    num_instances: int

    @property
    def meets_rate(self) -> bool:
        """Whether this configuration can keep up with the arrival rate."""
        return self.request_latency != float("inf")


@dataclass(frozen=True)
class OptimizerDecision:
    """Outcome of one optimizer invocation."""

    config: ParallelConfig
    estimate: ConfigEstimate
    instance_delta: int
    objective: str  # "latency" (line 3) or "throughput" (line 5)
    arrival_rate: float
    available_instances: int

    @property
    def needs_allocation(self) -> bool:
        """True when extra instances should be requested."""
        return self.instance_delta > 0

    @property
    def can_release(self) -> bool:
        """True when instances could be released."""
        return self.instance_delta < 0


@dataclass(frozen=True, eq=False)
class FleetView:
    """Rate-independent columns of the feasible space on one fleet size.

    Rows are :meth:`ConfigurationSpace.feasible` in enumeration order; the
    cost columns are read from the controller's per-generation profile of
    the space's ``(P, M, B)`` table.
    """

    data_degree: np.ndarray
    pipeline_degree: np.ndarray
    tensor_degree: np.ndarray
    batch_size: np.ndarray
    exec_latency: np.ndarray
    throughput: np.ndarray
    num_instances: np.ndarray

    def __len__(self) -> int:
        return len(self.data_degree)

    def config(self, index: int) -> ParallelConfig:
        """The configuration of row *index*."""
        return ParallelConfig(
            int(self.data_degree[index]),
            int(self.pipeline_degree[index]),
            int(self.tensor_degree[index]),
            int(self.batch_size[index]),
        )


class ParallelizationController:
    """Adaptive configuration optimizer (Algorithm 1)."""

    def __init__(
        self,
        config_space: ConfigurationSpace,
        profiler: OfflineProfiler,
        slo_latency: Optional[float] = None,
        latency_tie_margin: float = LATENCY_TIE_MARGIN,
        memoize: bool = True,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        self.config_space = config_space
        self.profiler = profiler
        self.slo_latency = slo_latency
        self.latency_tie_margin = latency_tie_margin
        self.memoize = memoize
        self.timers = timers if timers is not None else NULL_TIMERS
        self._estimate_memo: Dict[Tuple[ParallelConfig, float], ConfigEstimate] = {}
        #: ``l_exe`` of every row of the space's (P, M, B) table, profiled
        #: in one batched cost-model call per generation.
        self._table_latency: Optional[np.ndarray] = None
        #: Per-fleet-size views of the table with their cost columns.
        self._view_memo: Dict[int, FleetView] = {}
        #: Memoised propose() outcomes per (available, max, rate) round key.
        self._propose_memo: Dict[Tuple[int, int, float], Optional[OptimizerDecision]] = {}
        self._profiler_generation = profiler.generation
        self._space_generation = config_space.generation

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop memoised estimates (profile or cost-model inputs changed)."""
        self._estimate_memo.clear()
        self._table_latency = None
        self._view_memo.clear()
        self._propose_memo.clear()
        self._profiler_generation = self.profiler.generation
        self._space_generation = self.config_space.generation

    def _memo_is_stale(self) -> bool:
        return (
            self.profiler.generation != self._profiler_generation
            or self.config_space.generation != self._space_generation
        )

    def estimate(self, config: ParallelConfig, arrival_rate: float) -> ConfigEstimate:
        """Estimate execution latency, request latency and throughput of *config*.

        Results are memoised per ``(config, arrival rate)``; the memo is
        dropped whenever the offline profiler is invalidated (its generation
        counter moves) so stale profiles can never leak into decisions.  The
        estimate itself is always computed from the raw arrival rate -- the
        rounded rate is only the memo key.
        """
        if not self.memoize:
            return self._estimate_uncached(config, arrival_rate)
        if self._memo_is_stale():
            self.invalidate()
        key = (config, round(arrival_rate, RATE_KEY_DECIMALS))
        hit = self._estimate_memo.get(key)
        if hit is not None:
            return hit
        estimate = self._estimate_uncached(config, arrival_rate)
        if len(self._estimate_memo) >= ESTIMATE_MEMO_MAX:
            self._estimate_memo.clear()
        self._estimate_memo[key] = estimate
        return estimate

    def _estimate_uncached(
        self, config: ParallelConfig, arrival_rate: float
    ) -> ConfigEstimate:
        entry = self.profiler.profile(
            config.data_degree,
            config.pipeline_degree,
            config.tensor_degree,
            config.batch_size,
        )
        return self._make_estimate(
            config,
            entry.latency,
            entry.throughput,
            config.num_instances(self.config_space.gpus_per_instance),
            arrival_rate,
        )

    def _make_estimate(
        self,
        config: ParallelConfig,
        execution_latency: float,
        throughput: float,
        num_instances: int,
        arrival_rate: float,
    ) -> ConfigEstimate:
        return ConfigEstimate(
            config=config,
            execution_latency=execution_latency,
            request_latency=self._request_latency(
                execution_latency, throughput, config, arrival_rate
            ),
            throughput=throughput,
            num_instances=num_instances,
        )

    def _request_latency(
        self,
        execution_latency: float,
        throughput: float,
        config: ParallelConfig,
        arrival_rate: float,
    ) -> float:
        """``l_req = l_exe + l_sch`` with a simple queueing model for ``l_sch``."""
        if arrival_rate <= 0:
            return execution_latency
        utilisation = arrival_rate / throughput if throughput > 0 else float("inf")
        if utilisation >= 1.0:
            return float("inf")
        # Average wait to fill a batch of B requests at the arrival rate.
        batch_wait = (config.batch_size - 1) / (2.0 * arrival_rate)
        # M/D/c-style queueing delay grows sharply as utilisation approaches 1.
        queue_wait = (
            utilisation
            / (1.0 - utilisation)
            * execution_latency
            / (2.0 * config.data_degree)
        )
        return execution_latency + batch_wait + queue_wait

    # ------------------------------------------------------------------
    # Fleet views
    # ------------------------------------------------------------------
    def fleet_view(self, num_instances: int) -> FleetView:
        """The feasible space on *num_instances* instances with its cost columns.

        The space's ``(P, M, B)`` table is profiled once per profiler and
        config-space generation, in one batched cost-model call; a fleet
        size then gathers its rows and derives throughput ``D * B / l_exe``
        and the instance count as whole columns, with the exact operations
        of :meth:`LatencyModel.throughput` and
        :meth:`ParallelConfig.num_instances`.  Views are memoised per fleet
        size; :meth:`invalidate` drops them with the other memos.
        """
        if self._memo_is_stale():
            self.invalidate()
        view = self._view_memo.get(num_instances)
        if view is not None:
            return view
        table = self.config_space.table()
        if self._table_latency is None:
            self._table_latency = self.profiler.latency_table(
                table.pipeline_degree, table.tensor_degree, table.batch_size
            )
        feasible = self.config_space.feasible(num_instances)
        exec_latency = self._table_latency[feasible.rows]
        with np.errstate(divide="ignore"):
            throughput = np.where(
                exec_latency > 0,
                feasible.data_degree * feasible.batch_size / exec_latency,
                float("inf"),
            )
        gpus = feasible.data_degree * feasible.pipeline_degree * feasible.tensor_degree
        view = FleetView(
            data_degree=feasible.data_degree,
            pipeline_degree=feasible.pipeline_degree,
            tensor_degree=feasible.tensor_degree,
            batch_size=feasible.batch_size,
            exec_latency=exec_latency,
            throughput=throughput,
            num_instances=-(-gpus // self.config_space.gpus_per_instance),
        )
        self._view_memo[num_instances] = view
        return view

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def propose(
        self,
        available_instances: int,
        arrival_rate: float,
        max_instances: Optional[int] = None,
    ) -> Optional[OptimizerDecision]:
        """Select ``C_{t+1}`` for ``N_t = available_instances`` and ``alpha_t``.

        ``max_instances`` bounds how many instances the cloud could provide in
        total (``N_t`` plus whatever could still be allocated); it defaults to
        ``N_t`` which models a spot-only deployment that cannot grow on
        demand.  Returns ``None`` when no feasible configuration exists at all
        (e.g. zero instances).
        """
        if max_instances is None:
            max_instances = available_instances
        max_instances = max(max_instances, available_instances)

        with self.timers.phase("propose"):
            memo_key: Optional[Tuple[int, int, float]] = None
            if self.memoize:
                if self._memo_is_stale():
                    self.invalidate()
                memo_key = (
                    available_instances,
                    max_instances,
                    round(arrival_rate, RATE_KEY_DECIMALS),
                )
                hit = self._propose_memo.get(memo_key, _MEMO_MISS)
                if hit is not _MEMO_MISS:
                    return hit

            selected = self._select_best(max_instances, arrival_rate)
            if selected is None:
                decision: Optional[OptimizerDecision] = None
            else:
                best, objective = selected
                decision = OptimizerDecision(
                    config=best.config,
                    estimate=best,
                    instance_delta=best.num_instances - available_instances,
                    objective=objective,
                    arrival_rate=arrival_rate,
                    available_instances=available_instances,
                )
            if memo_key is not None:
                if len(self._propose_memo) >= SWEEP_MEMO_MAX:
                    self._propose_memo.clear()
                self._propose_memo[memo_key] = decision
            return decision

    def _request_latency_column(self, view: FleetView, arrival_rate: float) -> np.ndarray:
        """``l_req`` of every row of *view* at once.

        Replicates :meth:`_request_latency` operation for operation --
        identical expression ordering on IEEE-754 doubles -- so every
        element equals the scalar result bit for bit.
        """
        exec_latency, throughput = view.exec_latency, view.throughput
        if arrival_rate <= 0:
            return exec_latency.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            utilisation = np.where(
                throughput > 0, arrival_rate / throughput, float("inf")
            )
            result = np.full_like(exec_latency, float("inf"))
            ok = utilisation < 1.0
            batch_wait = (view.batch_size[ok] - 1) / (2.0 * arrival_rate)
            queue_wait = (
                utilisation[ok]
                / (1.0 - utilisation[ok])
                * exec_latency[ok]
                / (2.0 * view.data_degree[ok])
            )
            result[ok] = exec_latency[ok] + batch_wait + queue_wait
        return result

    def _select_best(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        """Pick Algorithm 1's winning configuration and its objective.

        The per-config work (request latency, the sustaining filter, the
        near-tie thresholds) runs as whole-column expressions over the
        fleet view; only the near-tie contenders become
        :class:`ConfigEstimate` objects, handed in enumeration order to the
        tie-breaking sorts.  ``tests/test_controller_vectorized.py`` pins the
        outcome against the per-config reference sweep.
        """
        view = self.fleet_view(max_instances)
        exec_latency, throughput = view.exec_latency, view.throughput
        inf = float("inf")
        reachable = exec_latency != inf
        if not reachable.any():
            return None
        request_latency = self._request_latency_column(view, arrival_rate)
        # Lines 2-3: configurations that keep up with the arrival rate.
        sustaining = reachable & (throughput >= arrival_rate) & (request_latency != inf)
        if self.slo_latency is not None:
            sustaining &= request_latency <= self.slo_latency
        if sustaining.any():
            best_latency = request_latency[sustaining].min()
            threshold = best_latency * (1.0 + self.latency_tie_margin)
            contenders = np.nonzero(sustaining & (request_latency <= threshold))[0]
            return (
                self._pick_lowest_latency(self._contenders(view, contenders, arrival_rate)),
                "latency",
            )
        # Line 5: nothing reachable keeps up with the demand, so maximise
        # throughput.  When the deployment may grow (on-demand mixing), the
        # view covers the larger fleet and the resulting positive delta
        # triggers an allocation (lines 6-8).
        threshold = throughput.max() * (1.0 - self.latency_tie_margin)
        contenders = np.nonzero(throughput >= threshold)[0]
        return (
            self._pick_highest_throughput(self._contenders(view, contenders, arrival_rate)),
            "throughput",
        )

    def _contenders(
        self, view: FleetView, rows: np.ndarray, arrival_rate: float
    ) -> List[ConfigEstimate]:
        """Estimates of the given *rows* of *view*, in enumeration order."""
        return [
            self._make_estimate(
                view.config(row),
                float(view.exec_latency[row]),
                float(view.throughput[row]),
                int(view.num_instances[row]),
                arrival_rate,
            )
            for row in rows.tolist()
        ]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pick_lowest_latency(self, estimates: Sequence[ConfigEstimate]) -> ConfigEstimate:
        """Lowest request latency; near-ties resolved by monetary cost then GPUs."""
        best_latency = min(est.request_latency for est in estimates)
        threshold = best_latency * (1.0 + self.latency_tie_margin)
        contenders = [est for est in estimates if est.request_latency <= threshold]
        contenders.sort(
            key=lambda est: (
                est.num_instances,
                est.request_latency,
                est.config.num_gpus,
                est.config.without_batch(),
            )
        )
        return contenders[0]

    def _pick_highest_throughput(self, estimates: Sequence[ConfigEstimate]) -> ConfigEstimate:
        """Highest throughput; ties resolved by lower execution latency and cost."""
        best_throughput = max(est.throughput for est in estimates)
        threshold = best_throughput * (1.0 - self.latency_tie_margin)
        contenders = [est for est in estimates if est.throughput >= threshold]
        contenders.sort(
            key=lambda est: (
                est.execution_latency,
                est.num_instances,
                est.config.without_batch(),
            )
        )
        return contenders[0]
