"""Per-config Algorithm 1 sweep: the reference for the controller's fleet views.

The production controller reads one fleet view per fleet size -- a view of a
``(P, M, B)`` table profiled in one batched cost-model call -- and scores
every configuration as whole numpy columns.  This module keeps the sweep it
replaced: a nested-loop enumeration of ``ParallelConfig`` objects and one
:meth:`~repro.core.controller.ParallelizationController.estimate` per
configuration, followed by Algorithm 1's filters and tie-breaking sorts.
Differential tests pin the production decisions against it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import (
    RATE_KEY_DECIMALS,
    SWEEP_MEMO_MAX,
    ConfigEstimate,
    ParallelizationController,
)


class ScalarConfigurationSpace(ConfigurationSpace):
    """:class:`ConfigurationSpace` with the nested-loop ``(M, P, D, B)`` enumeration."""

    def feasible_configs(self, num_instances: int) -> List[ParallelConfig]:
        """Every memory-feasible configuration on *num_instances* instances."""
        if num_instances <= 0:
            return []
        max_gpus = num_instances * self.gpus_per_instance
        configs: List[ParallelConfig] = []
        for tensor_degree in self.tensor_degrees:
            if self.model.num_heads % tensor_degree != 0:
                continue
            for pipeline_degree in self._pipeline_degrees(max_gpus):
                gpus_per_pipeline = pipeline_degree * tensor_degree
                if gpus_per_pipeline > max_gpus:
                    continue
                batch_sizes = [
                    batch_size
                    for batch_size in self.batch_sizes
                    if self._fits(pipeline_degree, tensor_degree, batch_size)
                ]
                max_data = min(self.max_data_degree, max_gpus // gpus_per_pipeline)
                for data_degree in range(1, max_data + 1):
                    for batch_size in batch_sizes:
                        configs.append(
                            ParallelConfig(
                                data_degree, pipeline_degree, tensor_degree, batch_size
                            )
                        )
        return list(configs)


class ScalarController(ParallelizationController):
    """:class:`ParallelizationController` with the per-config propose sweep."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._estimates_memo: dict = {}

    def invalidate(self) -> None:
        super().invalidate()
        self._estimates_memo.clear()

    def _select_best(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        return self._select_best_scalar(max_instances, arrival_rate)

    def _select_best_scalar(
        self, max_instances: int, arrival_rate: float
    ) -> Optional[Tuple[ConfigEstimate, str]]:
        """Reference per-config selection loop (Algorithm 1 lines 2-5)."""
        # One cost-model pass over the feasible space; both objective
        # branches filter this shared list instead of re-estimating.
        all_estimates = self._estimates(
            max_instances, arrival_rate, allow_infinite=True
        )
        reachable = [
            est for est in all_estimates if est.execution_latency != float("inf")
        ]
        if not reachable:
            return None

        # Line 2-3: configurations that keep up with the arrival rate.
        sustaining = [
            est
            for est in reachable
            if est.throughput >= arrival_rate
            and est.meets_rate
            and self._meets_slo(est)
        ]
        if sustaining:
            return self._pick_lowest_latency(sustaining), "latency"
        # Line 5: no reachable configuration keeps up with the demand,
        # so maximise throughput.  When the deployment may grow
        # (on-demand mixing), the maximisation considers the larger
        # fleet and the resulting positive delta triggers an
        # allocation (lines 6-8); otherwise it is confined to the
        # instances at hand.
        return self._pick_highest_throughput(all_estimates), "throughput"

    def _estimates(
        self,
        num_instances: int,
        arrival_rate: float,
        allow_infinite: bool = False,
    ) -> List[ConfigEstimate]:
        estimates = self._all_estimates(num_instances, arrival_rate)
        if allow_infinite:
            return estimates
        return [est for est in estimates if est.execution_latency != float("inf")]

    def _all_estimates(
        self, num_instances: int, arrival_rate: float
    ) -> List[ConfigEstimate]:
        """One estimate per feasible configuration, memoised per round key.

        Workload checks, reconfiguration planning and fallback proposals of
        the same round all ask for the same ``(fleet size, arrival rate)``
        sweep; the list memo turns those repeats into a single dict hit.
        """
        if not self.memoize:
            return [
                self.estimate(config, arrival_rate)
                for config in self.config_space.feasible_configs(num_instances)
            ]
        if self._memo_is_stale():
            self.invalidate()
        key = (num_instances, round(arrival_rate, RATE_KEY_DECIMALS))
        hit = self._estimates_memo.get(key)
        if hit is not None:
            return list(hit)
        estimates = [
            self.estimate(config, arrival_rate)
            for config in self.config_space.feasible_configs(num_instances)
        ]
        if len(self._estimates_memo) >= SWEEP_MEMO_MAX:
            self._estimates_memo.clear()
        self._estimates_memo[key] = estimates
        return list(estimates)

    def _meets_slo(self, estimate: ConfigEstimate) -> bool:
        if self.slo_latency is None:
            return True
        return estimate.request_latency <= self.slo_latency
