"""Scalar per-device migration planner: the reference for the plan phase.

The production :class:`~repro.core.migration.MigrationPlanner` walks the
meta-context once per plan, groups holders by context signature, ranks
candidate sources once per holder bucket and rank class, prices each step
in one walk over a per-plan link cache and drains deferred layers with a
numpy sweep.  This module keeps the planner those layers replaced:
per-device scans of the meta-context, a full sort of the holder candidates
for every needed segment, a first-strict-min Python loop for the
deferred-layer drain, and plan assembly, ordering and finalisation that
recompute each step's buffer deltas and price it through
``NetworkModel.batch_time``, ``MigrationStep.total_bytes`` and a separate
remote-bytes sum.  Only the greedy interval cover, the budget check and the
geometry helpers are shared with production.  Differential tests pin
production plans against it byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapping
from repro.core.migration import MigrationPlan, MigrationPlanner, MigrationStep
from repro.engine.context import DeviceId, MetaContextManager
from repro.engine.placement import shard_interval, stage_layers
from repro.sim.network import Transfer


def _remote_bytes(transfers: Sequence[Transfer]) -> float:
    """Payload that crosses instance boundaries (the expensive part)."""
    return float(
        sum(t.size_bytes for t in transfers if not t.is_noop and not t.is_local)
    )


class ScalarMigrationPlanner(MigrationPlanner):
    """:class:`MigrationPlanner` with per-device scans and per-step re-pricing."""

    def plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Optional[Dict[int, Tuple[int, int, int]]] = None,
    ) -> MigrationPlan:
        with self.timers.phase("plan"):
            return self._build_plan(meta_context, mapping, cache_requirements or {})

    def _build_plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
    ) -> MigrationPlan:
        """Per-device scans of the meta-context, then the shared assembly."""
        layer_steps = self._plan_layer_steps(meta_context, mapping)
        cache_step = self._plan_cache_step(meta_context, mapping, cache_requirements)
        return self._assemble(layer_steps, cache_step, mapping)

    def _plan_layer_steps(
        self, meta_context: MetaContextManager, mapping: DeviceMapping
    ) -> Dict[int, MigrationStep]:
        config = mapping.config
        steps: Dict[int, MigrationStep] = {
            layer: MigrationStep(kind="weight", layer_index=layer)
            for layer in range(self.model.num_layers)
        }
        holders = self._model_holders(meta_context)
        for device_id, position in mapping.placement.items():
            new_layers = self._stage_layers(position.stage_index, config.pipeline_degree)
            new_interval = shard_interval(config.tensor_degree, position.shard_index)
            own = self._own_model_interval(meta_context, device_id)
            for layer in new_layers:
                missing = self._subtract_interval(
                    new_interval, own.get(layer) if own else None
                )
                for interval in missing:
                    pieces = self._source_pieces(layer, interval, holders, device_id)
                    for source, fraction in pieces:
                        size = fraction * self.model.layer_param_bytes
                        if size <= 0:
                            continue
                        if source is None:
                            steps[layer].storage_bytes += size
                        else:
                            steps[layer].transfers.append(
                                Transfer(
                                    src=source,
                                    dst=device_id,
                                    size_bytes=size,
                                    tag=f"model:layer{layer}",
                                )
                            )
        return steps

    def _plan_cache_step(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
    ) -> MigrationStep:
        config = mapping.config
        step = MigrationStep(kind="cache", layer_index=None)
        if not cache_requirements:
            return step
        cache_holders = self._cache_holders(meta_context)
        for new_data_index, (old_data_index, batch_size, cached_tokens) in cache_requirements.items():
            if cached_tokens <= 0:
                continue
            per_layer_bytes = (
                2.0
                * self.model.hidden_size
                * self.model.bytes_per_cache_element
                * batch_size
                * cached_tokens
            )
            for device_id, position in mapping.placement.items():
                if position.data_index != new_data_index:
                    continue
                new_layers = self._stage_layers(position.stage_index, config.pipeline_degree)
                new_interval = shard_interval(config.tensor_degree, position.shard_index)
                own = self._own_cache_interval(meta_context, device_id, old_data_index)
                for layer in new_layers:
                    missing = self._subtract_interval(
                        new_interval, own.get(layer) if own else None
                    )
                    for interval in missing:
                        pieces = self._source_pieces(
                            layer, interval, cache_holders.get(old_data_index, {}), device_id
                        )
                        for source, fraction in pieces:
                            size = fraction * per_layer_bytes
                            if size <= 0:
                                continue
                            if source is None:
                                # Lost cache cannot be reloaded from storage;
                                # it will simply be recomputed (not billed to
                                # the migration plan).
                                continue
                            step.transfers.append(
                                Transfer(
                                    src=source,
                                    dst=device_id,
                                    size_bytes=size,
                                    tag=f"cache:pipeline{new_data_index}",
                                )
                            )
        return step

    def _assemble(
        self,
        layer_steps: Dict[int, MigrationStep],
        cache_step: MigrationStep,
        mapping: DeviceMapping,
    ) -> MigrationPlan:
        config = mapping.config
        layer_order = self._order_layers(layer_steps, mapping)
        ordered_steps: List[MigrationStep] = []
        if cache_step.transfers or cache_step.storage_bytes:
            ordered_steps.append(cache_step)
        stage_remaining = self._layers_per_stage(config)
        for layer_index in layer_order:
            step = layer_steps[layer_index]
            stage = self._stage_of_layer(layer_index, config)
            stage_remaining[stage] -= 1
            if stage_remaining[stage] == 0:
                step.stages_ready.append(stage)
            ordered_steps.append(step)

        return self._finalize(ordered_steps, layer_order, config)

    def _order_layers(
        self, layer_steps: Dict[int, MigrationStep], mapping: DeviceMapping
    ) -> List[int]:
        layers = list(range(self.model.num_layers))
        if not self.memory_optimized:
            return layers
        deltas_by_layer = {
            layer: self._buffer_deltas(layer_steps[layer]) for layer in layers
        }
        usage: Dict[str, float] = {}
        order: List[int] = []
        deferred: List[int] = []
        for layer in layers:
            deltas = deltas_by_layer[layer]
            if self._within_budget(usage, deltas):
                self._apply_deltas(usage, deltas)
                order.append(layer)
            else:
                deferred.append(layer)
        if deferred:
            order.extend(self._drain_deferred(usage, deferred, deltas_by_layer))
        return order

    def deltas_by_layer(
        self, layer_steps: Dict[int, MigrationStep]
    ) -> Dict[int, Dict[str, float]]:
        """Per-layer buffer deltas, the production ``_order_layers`` input."""
        return {layer: self._buffer_deltas(step) for layer, step in layer_steps.items()}

    def _buffer_deltas(self, step: MigrationStep) -> Dict[str, float]:
        """Net buffer-memory change per instance caused by one step."""
        deltas: Dict[str, float] = {}
        for transfer in step.transfers:
            if transfer.is_noop:
                continue
            deltas[transfer.dst[0]] = deltas.get(transfer.dst[0], 0.0) + transfer.size_bytes
            deltas[transfer.src[0]] = deltas.get(transfer.src[0], 0.0) - transfer.size_bytes
        return deltas

    def _finalize(
        self,
        steps: List[MigrationStep],
        layer_order: List[int],
        config: ParallelConfig,
    ) -> MigrationPlan:
        total_time = 0.0
        stall_time = 0.0
        storage_bytes = 0.0
        total_bytes = 0.0
        remote_bytes = 0.0
        usage: Dict[str, float] = {}
        peak = 0.0
        first_stage_ready_time: Optional[float] = None
        all_stages = set(range(config.pipeline_degree))
        stages_seen: set = set()

        for step in steps:
            duration = self.network.batch_time(step.transfers)
            total_time += duration
            total_bytes += step.total_bytes
            remote_bytes += _remote_bytes(step.transfers)
            storage_bytes += step.storage_bytes
            self._apply_deltas(usage, self._buffer_deltas(step))
            peak = max(peak, max(usage.values(), default=0.0))
            for stage in step.stages_ready:
                stages_seen.add(stage)
                if stage == 0 and first_stage_ready_time is None:
                    first_stage_ready_time = total_time

        if self.progressive and first_stage_ready_time is not None:
            # Serving resumes once the cache and the first stage are in place;
            # the remaining stages migrate while the pipeline refills.
            stall_time = first_stage_ready_time
        else:
            stall_time = total_time
        if not steps:
            stall_time = 0.0

        storage_load_time = self._storage_time(storage_bytes, max(config.num_gpus, 1))
        return MigrationPlan(
            steps=steps,
            layer_order=layer_order,
            total_time=total_time,
            stall_time=stall_time,
            peak_buffer_bytes=peak,
            storage_load_time=storage_load_time,
            total_bytes=total_bytes,
            remote_bytes=remote_bytes,
        )

    def _drain_deferred(
        self,
        usage: Dict[str, float],
        deferred: List[int],
        deltas_by_layer: Dict[int, Dict[str, float]],
    ) -> List[int]:
        """Repeated first-strict-min greedy picks over the deferred layers."""
        order: List[int] = []
        while deferred:
            best_pos = 0
            best_peak = float("inf")
            for pos, layer in enumerate(deferred):
                peak = self._peak_after(usage, deltas_by_layer[layer])
                if peak < best_peak:
                    best_peak = peak
                    best_pos = pos
            best_layer = deferred.pop(best_pos)
            self._apply_deltas(usage, deltas_by_layer[best_layer])
            order.append(best_layer)
        return order

    @staticmethod
    def _peak_after(usage: Dict[str, float], deltas: Dict[str, float]) -> float:
        combined = dict(usage)
        for instance, delta in deltas.items():
            combined[instance] = max(combined.get(instance, 0.0) + delta, 0.0)
        return max(combined.values(), default=0.0)

    def _stage_layers(self, stage_index: int, pipeline_degree: int) -> List[int]:
        return list(stage_layers(self.model.num_layers, pipeline_degree, stage_index))

    def _own_model_interval(
        self, meta_context: MetaContextManager, device_id: DeviceId
    ) -> Dict[int, Tuple[float, float]]:
        """Layer -> shard interval the device already holds (model context)."""
        daemon = meta_context.daemon(device_id)
        ctx = daemon.model_context
        if ctx is None:
            return {}
        layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
        interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
        return {layer: interval for layer in layers}

    def _own_cache_interval(
        self, meta_context: MetaContextManager, device_id: DeviceId, old_data_index: int
    ) -> Dict[int, Tuple[float, float]]:
        daemon = meta_context.daemon(device_id)
        ctx = daemon.cache_context
        if ctx is None or ctx.position.data_index != old_data_index:
            return {}
        layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
        interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
        return {layer: interval for layer in layers}

    def _model_holders(
        self, meta_context: MetaContextManager
    ) -> Dict[int, List[Tuple[Tuple[float, float], DeviceId]]]:
        """Layer -> list of (shard interval, device) currently holding it."""
        holders: Dict[int, List[Tuple[Tuple[float, float], DeviceId]]] = {}
        for device_id in meta_context.devices():
            daemon = meta_context.daemon(device_id)
            ctx = daemon.model_context
            if ctx is None:
                continue
            layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
            interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
            for layer in layers:
                holders.setdefault(layer, []).append((interval, device_id))
        return holders

    def _cache_holders(
        self, meta_context: MetaContextManager
    ) -> Dict[int, Dict[int, List[Tuple[Tuple[float, float], DeviceId]]]]:
        """Old data index -> layer -> holders of that pipeline's cache."""
        holders: Dict[int, Dict[int, List[Tuple[Tuple[float, float], DeviceId]]]] = {}
        for device_id in meta_context.devices():
            daemon = meta_context.daemon(device_id)
            ctx = daemon.cache_context
            if ctx is None:
                continue
            layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
            interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
            per_pipeline = holders.setdefault(ctx.position.data_index, {})
            for layer in layers:
                per_pipeline.setdefault(layer, []).append((interval, device_id))
        return holders

    def _source_pieces(
        self,
        layer: int,
        needed: Tuple[float, float],
        holders: Dict[int, List[Tuple[Tuple[float, float], DeviceId]]],
        destination: DeviceId,
    ) -> List[Tuple[Optional[DeviceId], float]]:
        """Split a needed shard interval into (source, fraction) pieces.

        Sources on the same instance as *destination* are preferred, then
        sources in the same availability zone (when the network model knows
        zones), then everything else -- cross-zone pulls ride the slowest
        link tier, so they are the last resort.  In ``evacuation_mode`` the
        zone tier is dropped (cross-zone sources rank equal to local ones):
        an evacuation *must* pull context out of the dying zone before it
        disappears.  Portions nobody holds are attributed to storage
        (``source=None``).
        """
        zone_of = self.network.zone_of if not self.evacuation_mode else None
        candidates = self._ranked_sources(holders.get(layer, []), destination, zone_of)
        return self._pieces_from_sources(candidates, needed)

    @staticmethod
    def _ranked_sources(
        candidates: Sequence[Tuple[Tuple[float, float], DeviceId]],
        destination: DeviceId,
        zone_of,
    ) -> List[Tuple[Tuple[float, float], DeviceId]]:
        """Sort holder candidates by the source-preference total order."""

        def source_rank(item: Tuple[Tuple[float, float], DeviceId]) -> Tuple:
            """Prefer same-instance, then same-zone sources (unless evacuating)."""
            _, device_id = item
            same_instance = device_id[0] == destination[0]
            if zone_of is None:
                same_zone = True
            else:
                same_zone = zone_of(device_id[0]) == zone_of(destination[0])
            return (not same_instance, not same_zone, device_id)

        return sorted(candidates, key=source_rank)
