"""Migration planner: progressive, memory-bounded context migration.

After the device mapper fixes *where* every GPU goes, the migration planner
(Algorithm 2) decides *in which order* context tensors move so that

* the KV cache moves first (so decoding progress survives even if another
  interruption lands mid-migration),
* front pipeline stages finish their migration early and can resume serving
  while later stages are still transferring (progressive migration), and
* the transient receive-buffer memory on every instance stays below the
  budget ``U_max`` (memory-optimised ordering), which is what lets SpotServe
  serve GPT-20B on 12 GPUs instead of 16.

The planner produces a :class:`MigrationPlan` made of :class:`MigrationStep`
objects (one per layer plus one leading cache step), each carrying the
point-to-point :class:`~repro.sim.network.Transfer` objects needed.  Timing
comes from the :class:`~repro.sim.network.NetworkModel`; context that no
surviving GPU holds any more must be fetched from cloud storage instead,
which is dramatically slower and corresponds to the paper's fault-tolerance
fallback of reloading weights from S3/disk.

One code path
-------------

``plan`` runs on every reconfiguring adaptation round.  It is built in four
layers, each byte-identical to the scalar per-device planner kept as the
test oracle ``tests/oracles/scalar_planner.py``:

1. **Geometry interning** — ``stage_layer_range`` / ``shard_interval`` /
   ``stage_layers`` are pure functions of small integer signatures and are
   memoised at module level; holder tables are built per distinct
   (degrees, stage, shard) context signature instead of per device, and
   every run of layers with the same coverage shares one interned,
   device-id-sorted holder bucket.
2. **Bucket-keyed step construction** — the sorted source candidate order
   for a destination depends on the destination only through its instance
   (when that instance holds the bucket) or its zone (when it does not),
   and on the layer only through its holder bucket.  So the ranked
   candidate list and the greedy piece decomposition are computed once per
   (bucket, rank class, needed segment) and the resulting ``Transfer``
   lists instantiated per device and layer.  Model and cache steps share
   this cover loop (:meth:`MigrationPlanner._cover`), and the greedy cover
   itself is :meth:`MigrationPlanner._pieces_from_sources`.  Equivalence
   with a per-destination sort reduces to the candidate order being equal —
   which it is, because the sort key ``(not same_instance, not same_zone,
   device_id)`` is a total order (device ids are unique).
3. **One-walk pricing** — :meth:`MigrationPlanner._step_costs` walks each
   step's transfers once for its duration, byte totals and per-instance
   buffer deltas, pricing links through a per-plan cache of
   :meth:`~repro.sim.network.NetworkModel.link`; ordering and finalisation
   both consume that walk.  Every sum keeps the scalar definitions'
   operation order, so the floats are bit-identical.
4. **Vectorized ordering** — the deferred-layer greedy argmin is evaluated
   as a numpy sweep over an (instances x layers) delta matrix, with dead
   columns masked to +inf so ``argmin``'s first-occurrence rule reproduces
   a strict-less first-min scan's tie-break exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..engine.context import CacheContext, DeviceId, MetaContextManager, ModelContext
from ..engine.placement import (
    TopologyPosition,
    shard_interval,
    stage_layers,
)
from ..llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES
from ..llm.spec import ModelSpec
from ..perf import NULL_TIMERS, PhaseTimers
from ..sim.network import NetworkModel, Transfer
from .config import ParallelConfig
from .device_mapper import DeviceMapping

#: Per-instance bandwidth for loading parameters from persistent/cloud
#: storage, bytes/s.  Instances load their own slices in parallel; at 1 GB/s
#: per instance a 120 B-parameter GPT (480 GB fp32 over 8 instances) takes
#: about two minutes, matching the paper's observation.
DEFAULT_STORAGE_BANDWIDTH = 1.0 * 1024 ** 3

#: Holders of one layer: a device-id-sorted list of (shard interval,
#: device), plus the instances holding any of it.  Interned per coverage,
#: so its identity names the layer's rank classes.
_Bucket = Tuple[List[Tuple[Tuple[float, float], DeviceId]], Set[str]]

#: Holders of one kind of context: layer -> interned bucket.
_HolderTable = Dict[int, _Bucket]

#: The bucket of a layer nobody holds.
_NO_HOLDERS: _Bucket = ((), frozenset())

#: Per-step pricing: (duration, total bytes, remote bytes, buffer deltas).
_StepCosts = Tuple[float, float, float, Dict[str, float]]


@lru_cache(maxsize=1024)
def _stage_counts(num_layers: int, pipeline_degree: int) -> Tuple[int, ...]:
    """Layers per stage, mirroring ``_stage_of_layer`` exactly.

    Computed as the same ``int(layer / layers_per_stage)`` float division
    the scalar ``_stage_of_layer`` performs (element-wise, then truncated),
    NOT from the ceil-range boundaries of :func:`stage_layers` — division
    and multiplication can round differently at stage boundaries, and the
    stage counts must agree with ``_stage_of_layer`` or ``stages_ready``
    bookkeeping would drift.
    """
    if num_layers <= 0:
        return (0,) * pipeline_degree
    layers_per_stage = num_layers / pipeline_degree
    stage_of = np.minimum(
        (np.arange(num_layers) / layers_per_stage).astype(np.int64),
        pipeline_degree - 1,
    )
    return tuple(
        int(count) for count in np.bincount(stage_of, minlength=pipeline_degree)
    )


@lru_cache(maxsize=4096)
def _context_span(
    num_layers: int,
    pipeline_degree: int,
    tensor_degree: int,
    stage_index: int,
    shard_index: int,
) -> Tuple[int, int, Tuple[float, float]]:
    """Interned ``(first_layer, last_layer+1, shard_interval)`` of a context."""
    owned_layers = stage_layers(num_layers, pipeline_degree, stage_index)
    interval = shard_interval(tensor_degree, shard_index)
    if not owned_layers:
        return 0, 0, interval
    return owned_layers[0], owned_layers[-1] + 1, interval


@dataclass
class MigrationStep:
    """One unit of the migration plan (the cache, or one layer's weights)."""

    kind: str  # "cache" or "weight"
    layer_index: Optional[int]
    transfers: List[Transfer] = field(default_factory=list)
    storage_bytes: float = 0.0
    stages_ready: List[int] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Bytes moved over the network by this step."""
        return sum(t.size_bytes for t in self.transfers if not t.is_noop)


@dataclass
class MigrationPlan:
    """A complete, ordered context-migration plan.

    ``tier`` is ``"direct"`` for classic GPU-to-GPU plans (every field
    behaves exactly as before tiering existed) and ``"offload"`` for plans
    derived by :meth:`MigrationPlanner.derive_tiered_plan`, where a suffix
    of the steps is spilled to the host/object-storage tier inside the
    grace window and restored on the destination side afterwards.
    """

    steps: List[MigrationStep]
    layer_order: List[int]
    total_time: float
    stall_time: float
    peak_buffer_bytes: float
    storage_load_time: float
    total_bytes: float
    remote_bytes: float
    #: Transport tier of the plan: ``"direct"`` or ``"offload"``.
    tier: str = "direct"
    #: Bytes written to the offload tier during the grace window.
    spilled_bytes: float = 0.0
    #: Bytes the destinations read back from the tier (equals
    #: :attr:`spilled_bytes` at planning time; runtime accounting splits
    #: restored from abandoned when destinations die mid-restore).
    restored_bytes: float = 0.0
    #: Duration of the source-side spill phase.
    spill_time: float = 0.0
    #: Duration of the destination-side restore phase.
    restore_time: float = 0.0
    #: Duration of the direct (GPU-to-GPU) prefix kept inside the window.
    direct_window_time: float = 0.0

    @property
    def is_empty(self) -> bool:
        """True when nothing needs to move."""
        return self.total_bytes <= 0 and self.storage_load_time <= 0

    @property
    def migration_time(self) -> float:
        """``T_mig``: the serving stall the interruption arranger budgets for."""
        return self.stall_time + self.storage_load_time

    @property
    def window_time(self) -> float:
        """Source-side work that must finish before the reclaim deadline.

        For direct plans this is exactly :attr:`migration_time` (the whole
        stall must fit the grace window, byte-identical to the pre-tiering
        arithmetic).  For tiered plans only the direct prefix plus the spill
        must beat the deadline -- the restore runs on surviving destinations
        after the sources are gone.
        """
        if self.tier == "direct":
            return self.migration_time
        return self.direct_window_time + self.spill_time


class MigrationPlanner:
    """Implements Algorithm 2 (progressive + memory-optimised migration)."""

    def __init__(
        self,
        model: ModelSpec,
        network: Optional[NetworkModel] = None,
        max_buffer_bytes: float = DEFAULT_MIGRATION_BUFFER_BYTES,
        memory_optimized: bool = True,
        progressive: bool = True,
        storage_bandwidth: float = DEFAULT_STORAGE_BANDWIDTH,
        engine_restart_time: float = 10.0,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        if not max_buffer_bytes >= 0:
            raise ValueError(
                f"max_buffer_bytes must be non-negative, got {max_buffer_bytes}"
            )
        if not storage_bandwidth > 0:
            raise ValueError(
                f"storage_bandwidth must be positive, got {storage_bandwidth}"
            )
        if not engine_restart_time >= 0:
            raise ValueError(
                f"engine_restart_time must be non-negative, got {engine_restart_time}"
            )
        self.model = model
        self.network = network or NetworkModel()
        self.max_buffer_bytes = max_buffer_bytes
        self.memory_optimized = memory_optimized
        self.progressive = progressive
        self.storage_bandwidth = storage_bandwidth
        self.engine_restart_time = engine_restart_time
        self.timers = timers if timers is not None else NULL_TIMERS
        #: During a zone-outage evacuation the same-zone source preference is
        #: suspended: the richest context sources are the doomed zone itself,
        #: and every pull out of it is cross-zone by definition, so ranking
        #: sources by zone locality would only starve the evacuation of its
        #: best sources.  Toggled by the serving system alongside
        #: ``DeviceMapper.evacuation_mode``.
        self.evacuation_mode = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Optional[Dict[int, Tuple[int, int, int]]] = None,
    ) -> MigrationPlan:
        """Build the migration plan for *mapping*.

        Parameters
        ----------
        meta_context:
            Current cluster context state (what every surviving GPU holds).
        mapping:
            Output of the device mapper: placement of devices at new positions.
        cache_requirements:
            ``new data index -> (old data index, batch_size, cached_tokens)``
            for every new pipeline that resumes an interrupted batch.
        """
        with self.timers.phase("plan"):
            cache_requirements = cache_requirements or {}
            # One walk of the meta-context feeds the holder tables and the
            # per-destination own-context lookups.
            context_map: Dict[DeviceId, Tuple] = {}
            for device_id in meta_context.devices():
                daemon = meta_context.daemon(device_id)
                mctx = daemon.model_context
                cctx = daemon.cache_context
                if mctx is not None or cctx is not None:
                    context_map[device_id] = (mctx, cctx)
            return self._build_plan(context_map, mapping, cache_requirements)

    def estimate_restart_plan(
        self, config: ParallelConfig, gpus_per_instance: int = 4
    ) -> MigrationPlan:
        """Plan for a full restart with no context reuse (baseline behaviour).

        Every instance loads its GPUs' model slices from storage in parallel
        with the other instances and the engine is re-initialised; there is
        nothing to overlap with serving.
        """
        per_gpu_bytes = self.model.total_param_bytes / (
            config.pipeline_degree * config.tensor_degree
        )
        per_instance_bytes = per_gpu_bytes * min(gpus_per_instance, config.num_gpus)
        load_time = per_instance_bytes / self.storage_bandwidth
        stall = load_time + self.engine_restart_time
        return MigrationPlan(
            steps=[],
            layer_order=[],
            total_time=stall,
            stall_time=stall,
            peak_buffer_bytes=0.0,
            storage_load_time=0.0,
            total_bytes=0.0,
            remote_bytes=0.0,
        )

    def derive_tiered_plan(
        self, plan: MigrationPlan, window: float
    ) -> Optional[MigrationPlan]:
        """Derive an offload-tier plan from *plan* that fits *window*.

        Keeps the longest prefix of the plan's steps on the direct
        GPU-to-GPU path and spills the remaining suffix to the network
        model's :class:`~repro.sim.network.OffloadTierSpec` (sources upload
        inside the grace window; surviving destinations download
        afterwards).  Returns ``None`` when no tier is configured, the plan
        already fits the window, nothing would be spilled, or even the
        all-spill plan (``k = 0``) cannot beat the deadline -- callers then
        fall through to the pre-tiering reroute fallback.

        The input plan is never mutated.  Suffix steps are rebuilt with
        fresh ``tier="offload"`` :class:`~repro.sim.network.Transfer`
        records; prefix steps are reused as-is (read-only).  The derived
        plan is *not* memoised -- the window varies continuously with
        simulation time.
        """
        if self.network.offload_tier is None:
            return None
        if plan.tier != "direct" or plan.is_empty or not plan.steps:
            return None
        if plan.migration_time <= window:
            return None
        steps = plan.steps
        durations = [self.network.batch_time(step.transfers) for step in steps]
        prefix_time = 0.0
        prefix_times = [0.0]
        for duration in durations:
            prefix_time += duration
            prefix_times.append(prefix_time)
        # Largest k (steps kept direct) whose direct prefix plus the spill
        # of the suffix still beats the deadline.  k == len(steps) would
        # spill nothing and is excluded: if the full direct plan missed the
        # window, a tier-less derivation cannot help.
        best_k: Optional[int] = None
        for k in range(len(steps) - 1, -1, -1):
            suffix_transfers = [
                t for step in steps[k:] for t in step.transfers
            ]
            spill = self.network.spill_time(suffix_transfers)
            if prefix_times[k] + spill <= window:
                best_k = k
                break
        if best_k is None:
            return None
        suffix_transfers = [t for step in steps[best_k:] for t in step.transfers]
        spill_time = self.network.spill_time(suffix_transfers)
        restore_time = self.network.restore_time(suffix_transfers)
        spilled_bytes = float(
            sum(t.size_bytes for t in suffix_transfers if not t.is_noop)
        )
        if spilled_bytes <= 0.0:
            # The deadline miss is not transfer-bound (e.g. storage loads):
            # spilling moves nothing and cannot shorten the plan.
            return None
        new_steps: List[MigrationStep] = list(steps[:best_k])
        for step in steps[best_k:]:
            new_steps.append(
                MigrationStep(
                    kind=step.kind,
                    layer_index=step.layer_index,
                    transfers=[
                        Transfer(
                            src=t.src,
                            dst=t.dst,
                            size_bytes=t.size_bytes,
                            tag=t.tag,
                            tier="offload",
                        )
                        for t in step.transfers
                    ],
                    storage_bytes=step.storage_bytes,
                    stages_ready=list(step.stages_ready),
                )
            )
        direct_window_time = prefix_times[best_k]
        stall_time = direct_window_time + spill_time + restore_time
        return MigrationPlan(
            steps=new_steps,
            layer_order=list(plan.layer_order),
            total_time=stall_time,
            stall_time=stall_time,
            peak_buffer_bytes=plan.peak_buffer_bytes,
            storage_load_time=plan.storage_load_time,
            total_bytes=plan.total_bytes,
            remote_bytes=plan.remote_bytes,
            tier="offload",
            spilled_bytes=spilled_bytes,
            restored_bytes=spilled_bytes,
            spill_time=spill_time,
            restore_time=restore_time,
            direct_window_time=direct_window_time,
        )

    # ------------------------------------------------------------------
    # Plan assembly
    # ------------------------------------------------------------------
    def _build_plan(
        self,
        context_map: Dict[DeviceId, Tuple],
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
    ) -> MigrationPlan:
        """Bucket-keyed steps off the shared context walk, then ordering."""
        # Zones only rank sources when the network knows them and no
        # evacuation is suspending the same-zone preference.
        rank_zones = (
            self._zones_for(context_map, mapping)
            if self.network.zone_of is not None and not self.evacuation_mode
            else None
        )
        layer_steps = self._plan_layer_steps(context_map, mapping, rank_zones)
        cache_step = self._plan_cache_step(
            context_map, mapping, cache_requirements, rank_zones
        )
        return self._assemble(layer_steps, cache_step, mapping)

    def _assemble(
        self,
        layer_steps: Dict[int, MigrationStep],
        cache_step: MigrationStep,
        mapping: DeviceMapping,
    ) -> MigrationPlan:
        config = mapping.config
        links: Dict[Tuple[str, str], Tuple[float, float]] = {}
        layer_costs = {
            layer: self._step_costs(step, links) for layer, step in layer_steps.items()
        }
        layer_order = self._order_layers(
            {layer: costs[3] for layer, costs in layer_costs.items()}
        )
        ordered_steps: List[MigrationStep] = []
        ordered_costs: List[_StepCosts] = []
        if cache_step.transfers or cache_step.storage_bytes:
            ordered_steps.append(cache_step)
            ordered_costs.append(self._step_costs(cache_step, links))
        stage_remaining = self._layers_per_stage(config)
        for layer_index in layer_order:
            step = layer_steps[layer_index]
            stage = self._stage_of_layer(layer_index, config)
            stage_remaining[stage] -= 1
            if stage_remaining[stage] == 0:
                step.stages_ready.append(stage)
            ordered_steps.append(step)
            ordered_costs.append(layer_costs[layer_index])

        return self._finalize(ordered_steps, ordered_costs, layer_order, config)

    def _step_costs(
        self, step: MigrationStep, links: Dict[Tuple[str, str], Tuple[float, float]]
    ) -> _StepCosts:
        """``(duration, total_bytes, remote_bytes, deltas)`` of one step, in one walk.

        Each figure keeps its scalar definition's operation order:
        ``latency + size / bandwidth`` chained per instance pair in transfer
        order, then the stream makespan (``NetworkModel.batch_time``); byte
        totals summed from ``0`` in transfer order (``MigrationStep.
        total_bytes`` and the remote share); buffer deltas credited to the
        destination, then debited from the source.  No-ops are skipped
        everywhere, and non-positive sizes are not timed.  *links* caches
        :meth:`~repro.sim.network.NetworkModel.link` per instance pair for
        the whole plan, which is exact: the simulated clock, and so the
        degradation factor, does not move while one plan is built.
        """
        link = self.network.link
        chains: Dict[Tuple[str, str], float] = {}
        deltas: Dict[str, float] = {}
        total = 0
        remote = 0
        for transfer in step.transfers:
            src = transfer.src
            dst = transfer.dst
            if src == dst:
                continue
            size = transfer.size_bytes
            src_instance = src[0]
            dst_instance = dst[0]
            total += size
            if src_instance != dst_instance:
                remote += size
            deltas[dst_instance] = deltas.get(dst_instance, 0.0) + size
            deltas[src_instance] = deltas.get(src_instance, 0.0) - size
            if size <= 0:
                continue
            key = (src_instance, dst_instance)
            pair = links.get(key)
            if pair is None:
                pair = links[key] = link(src_instance, dst_instance)
            chains[key] = chains.get(key, 0.0) + (pair[0] + size / pair[1])
        return self.network.makespan(chains.values()), total, remote, deltas

    def _zones_for(
        self, context_map: Dict[DeviceId, Tuple], mapping: DeviceMapping
    ) -> Dict[str, Optional[str]]:
        """Zone per instance, resolved through ``zone_of`` once per plan.

        Covers every instance appearing in the context map or the placement.
        """
        zone_of = self.network.zone_of
        zones: Dict[str, Optional[str]] = {}
        for device_id in context_map:
            instance = device_id[0]
            if instance not in zones:
                zones[instance] = zone_of(instance)
        for device_id in mapping.placement:
            instance = device_id[0]
            if instance not in zones:
                zones[instance] = zone_of(instance)
        return zones

    # ------------------------------------------------------------------
    # Step construction
    # ------------------------------------------------------------------
    @staticmethod
    def _rank_class(bucket: _Bucket, instance: str, dest_zone: Optional[str]) -> Tuple:
        """Equivalence class of (destination, layer) pairs sharing one candidate order.

        The sort key ``(not same_instance, not same_zone, device_id)``
        depends on the layer only through its holder bucket and on the
        destination only through its instance and zone.  Two pairs with the
        same interned bucket produce the same sorted candidate list when
        their destinations share an instance, or when neither instance holds
        the bucket (so ``same_instance`` is uniformly False) and they share
        a zone.  Buckets are keyed by identity: every table outlives the
        step construction that consults it, and distinct tables never share
        a non-empty bucket.  The ``0`` / ``1`` discriminants keep instance
        ids and zone names from colliding.
        """
        if instance in bucket[1]:
            return (id(bucket), 0, instance)
        return (id(bucket), 1, dest_zone)

    def _plan_layer_steps(
        self,
        context_map: Dict[DeviceId, Tuple],
        mapping: DeviceMapping,
        rank_zones: Optional[Dict[str, Optional[str]]],
    ) -> Dict[int, MigrationStep]:
        """One weight step per layer: what every destination must pull."""
        layer_param_bytes = self.model.layer_param_bytes
        steps: Dict[int, MigrationStep] = {
            layer: MigrationStep(kind="weight", layer_index=layer)
            for layer in range(self.model.num_layers)
        }
        table = self._model_holder_tables(context_map)
        memo: Tuple[Dict, Dict, Dict] = ({}, {}, {})
        for device_id, position in mapping.placement.items():
            entry = context_map.get(device_id)
            own = entry[0] if entry is not None else None
            for layer, pieces in self._cover(
                device_id, position, own, mapping.config, table, rank_zones, memo
            ):
                step = steps[layer]
                for source, fraction in pieces:
                    size = fraction * layer_param_bytes
                    if size <= 0:
                        continue
                    if source is None:
                        step.storage_bytes += size
                    else:
                        step.transfers.append(
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
        context_map: Dict[DeviceId, Tuple],
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
        rank_zones: Optional[Dict[str, Optional[str]]],
    ) -> MigrationStep:
        """The leading cache step: each resumed batch's KV cache, per layer."""
        step = MigrationStep(kind="cache", layer_index=None)
        if not cache_requirements:
            return step
        tables = self._cache_holder_tables(context_map)
        memo: Tuple[Dict, Dict, Dict] = ({}, {}, {})
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
            table = tables.get(old_data_index, {})
            tag = f"cache:pipeline{new_data_index}"
            for device_id, position in mapping.placement.items():
                if position.data_index != new_data_index:
                    continue
                entry = context_map.get(device_id)
                own = entry[1] if entry is not None else None
                if own is not None and own.position.data_index != old_data_index:
                    own = None  # another pipeline's cache is not this one
                for _, pieces in self._cover(
                    device_id,
                    position,
                    own,
                    mapping.config,
                    table,
                    rank_zones,
                    memo,
                ):
                    for source, fraction in pieces:
                        size = fraction * per_layer_bytes
                        # Lost cache cannot be reloaded from storage; it is
                        # recomputed instead (not billed to the plan).
                        if size <= 0 or source is None:
                            continue
                        step.transfers.append(
                            Transfer(src=source, dst=device_id, size_bytes=size, tag=tag)
                        )
        return step

    def _cover(
        self,
        device_id: DeviceId,
        position: TopologyPosition,
        own: Optional[Union[ModelContext, CacheContext]],
        config: ParallelConfig,
        table: _HolderTable,
        rank_zones: Optional[Dict[str, Optional[str]]],
        memo: Tuple[Dict, Dict, Dict],
    ) -> List[Tuple[int, List[Tuple[Optional[DeviceId], float]]]]:
        """``(layer, pieces)`` covering what *device_id* lacks at *position*.

        *own* is the context the destination already holds (or ``None``),
        *table* the interned holder buckets of that kind of context, and
        *memo* the missing sets, ranked candidates and piece lists shared
        across destinations (and across the tables of one step).  Pieces
        come out per layer of the new stage, then per missing segment, in
        the order the transfers are emitted.
        """
        num_layers = self.model.num_layers
        new_pd = config.pipeline_degree
        new_td = config.tensor_degree
        new_stage = position.stage_index
        new_shard = position.shard_index
        if own is not None:
            cpos = own.position
            if (
                own.pipeline_degree == new_pd
                and own.tensor_degree == new_td
                and cpos.stage_index == new_stage
                and cpos.shard_index == new_shard
            ):
                # Unchanged signature: the device already owns exactly its
                # new slice, so every missing set is empty.
                return []
            own_lo, own_hi, own_interval = _context_span(
                num_layers,
                own.pipeline_degree,
                own.tensor_degree,
                cpos.stage_index,
                cpos.shard_index,
            )
        missing_memo, ranked_memo, pieces_memo = memo
        new_interval = shard_interval(new_td, new_shard)
        instance = device_id[0]
        dest_zone = rank_zones[instance] if rank_zones is not None else None
        covered: List[Tuple[int, List[Tuple[Optional[DeviceId], float]]]] = []
        # Runs of adjacent layers share one interned bucket, hence one class.
        class_bucket: Optional[_Bucket] = None
        for layer in stage_layers(num_layers, new_pd, new_stage):
            owned = own_interval if own is not None and own_lo <= layer < own_hi else None
            mkey = (new_interval, owned)
            missing = missing_memo.get(mkey)
            if missing is None:
                missing = self._subtract_interval(new_interval, owned)
                missing_memo[mkey] = missing
            if not missing:
                continue
            bucket = table.get(layer, _NO_HOLDERS)
            if bucket is not class_bucket:
                class_bucket = bucket
                rank_class = self._rank_class(bucket, instance, dest_zone)
            for segment in missing:
                pkey = (rank_class, segment)
                pieces = pieces_memo.get(pkey)
                if pieces is None:
                    ranked = ranked_memo.get(rank_class)
                    if ranked is None:
                        ranked = self._partition_ranked(
                            bucket[0], instance, dest_zone, rank_zones
                        )
                        ranked_memo[rank_class] = ranked
                    pieces = self._pieces_from_sources(ranked, segment)
                    pieces_memo[pkey] = pieces
                covered.append((layer, pieces))
        return covered

    # ------------------------------------------------------------------
    # Layer ordering (Algorithm 2)
    # ------------------------------------------------------------------
    def _order_layers(self, deltas_by_layer: Dict[int, Dict[str, float]]) -> List[int]:
        """Memory-bounded layer order from each layer's buffer deltas.

        Layers run in index order while the per-instance receive buffers
        stay within ``max_buffer_bytes``; the rest are deferred and drained
        lowest-peak first.
        """
        layers = list(range(self.model.num_layers))
        if not self.memory_optimized:
            return layers
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

    def _drain_deferred(
        self,
        usage: Dict[str, float],
        deferred: List[int],
        deltas_by_layer: Dict[int, Dict[str, float]],
    ) -> List[int]:
        """Greedy drain of the deferred layers, lowest resulting peak first.

        Each pick is the first deferred layer (in deferral order) whose
        deltas leave the smallest peak per-instance buffer usage, evaluated
        for all candidates at once as a numpy sweep.  ``max(u_i + delta,
        0.0)`` with ``delta = 0`` reproduces instances untouched by a layer
        (usage values are already clamped >= 0, so the clamp is a no-op for
        them), and all-zero extra rows cannot change a column max over
        non-negative values.  Dead columns are masked to +inf so
        ``argmin``'s first-occurrence rule equals a strict-less scan over
        the shrinking deferred list (``list.pop`` preserves the relative
        order of survivors).
        """
        instances = sorted(
            set(usage).union(
                *(deltas_by_layer[layer].keys() for layer in deferred)
            )
        )
        order: List[int] = []
        if not instances:
            # No transfers touch any instance: every peak is 0.0 and the
            # first deferred layer wins each round.
            return list(deferred)
        index_of = {instance: i for i, instance in enumerate(instances)}
        delta_matrix = np.zeros((len(instances), len(deferred)))
        for column, layer in enumerate(deferred):
            for instance, delta in deltas_by_layer[layer].items():
                delta_matrix[index_of[instance], column] = delta
        usage_vector = np.array([usage.get(instance, 0.0) for instance in instances])
        alive = np.ones(len(deferred), dtype=bool)
        for _ in range(len(deferred)):
            peaks = np.maximum(usage_vector[:, None] + delta_matrix, 0.0).max(axis=0)
            peaks[~alive] = np.inf
            column = int(np.argmin(peaks))
            if not alive[column]:
                # Every live peak itself overflowed to +inf (astronomical
                # transfer sizes), making live columns indistinguishable
                # from the dead-column mask.  A strict-less scan never
                # updates in that case and keeps position 0 -- the first
                # *live* candidate.
                column = int(np.flatnonzero(alive)[0])
            alive[column] = False
            usage_vector = np.maximum(
                usage_vector + delta_matrix[:, column], 0.0
            )
            order.append(deferred[column])
        return order

    def _within_budget(self, usage: Dict[str, float], deltas: Dict[str, float]) -> bool:
        return all(
            max(usage.get(instance, 0.0) + delta, 0.0) <= self.max_buffer_bytes
            for instance, delta in deltas.items()
        )

    @staticmethod
    def _apply_deltas(usage: Dict[str, float], deltas: Dict[str, float]) -> None:
        for instance, delta in deltas.items():
            usage[instance] = max(usage.get(instance, 0.0) + delta, 0.0)

    # ------------------------------------------------------------------
    # Plan finalisation
    # ------------------------------------------------------------------
    def _finalize(
        self,
        steps: List[MigrationStep],
        costs: List[_StepCosts],
        layer_order: List[int],
        config: ParallelConfig,
    ) -> MigrationPlan:
        total_time = 0.0
        storage_bytes = 0.0
        total_bytes = 0.0
        remote_bytes = 0.0
        usage: Dict[str, float] = {}
        peak = 0.0
        first_stage_ready_time: Optional[float] = None

        for step, (duration, step_bytes, step_remote, deltas) in zip(steps, costs):
            total_time += duration
            total_bytes += step_bytes
            remote_bytes += step_remote
            storage_bytes += step.storage_bytes
            self._apply_deltas(usage, deltas)
            peak = max(peak, max(usage.values(), default=0.0))
            if first_stage_ready_time is None and 0 in step.stages_ready:
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

    def _storage_time(self, storage_bytes: float, parallelism: int) -> float:
        """Time to fetch *storage_bytes* from cloud storage.

        ``parallelism`` is the number of GPUs receiving data; roughly one
        quarter of them (one per 4-GPU instance) can stream from storage
        concurrently at the per-instance bandwidth.
        """
        if storage_bytes <= 0:
            return 0.0
        concurrent_instances = max(parallelism // 4, 1)
        effective = self.storage_bandwidth * concurrent_instances
        return storage_bytes / max(effective, 1.0)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _stage_of_layer(self, layer_index: int, config: ParallelConfig) -> int:
        layers_per_stage = self.model.num_layers / config.pipeline_degree
        return min(int(layer_index / layers_per_stage), config.pipeline_degree - 1)

    def _layers_per_stage(self, config: ParallelConfig) -> Dict[int, int]:
        counts = _stage_counts(self.model.num_layers, config.pipeline_degree)
        # Fresh dict per call: plan assembly decrements the counts in place.
        return {stage: counts[stage] for stage in range(config.pipeline_degree)}

    @staticmethod
    def _interned_buckets(
        group_entries: List[Tuple[Tuple[float, float], List[DeviceId]]],
        coverage: Dict[int, List[int]],
    ) -> _HolderTable:
        """Materialise per-layer holder buckets, interned by coverage set.

        Stage spans are contiguous, so runs of adjacent layers are covered
        by the same set of signature groups; each distinct coverage set is
        expanded and device-id-sorted once, and the resulting bucket (the
        holder list plus its instance set) is shared by every layer with
        that coverage.  Buckets are therefore shared and read-only, and
        their identity keys :meth:`_rank_class`.  The device-id sort is what
        lets :meth:`_partition_ranked` skip sorting entirely.
        """
        table: _HolderTable = {}
        bucket_cache: Dict[Tuple[int, ...], _Bucket] = {}
        for layer, group_ids in coverage.items():
            ckey = tuple(group_ids)
            cached = bucket_cache.get(ckey)
            if cached is None:
                bucket: List[Tuple[Tuple[float, float], DeviceId]] = []
                instances: Set[str] = set()
                for gi in group_ids:
                    interval, devices = group_entries[gi]
                    for device_id in devices:
                        bucket.append((interval, device_id))
                        instances.add(device_id[0])
                bucket.sort(key=lambda item: item[1])
                cached = (bucket, instances)
                bucket_cache[ckey] = cached
            table[layer] = cached
        return table

    def _model_holder_tables(self, context_map: Dict[DeviceId, Tuple]) -> _HolderTable:
        """Layer -> interned bucket of (shard interval, device) model holders.

        Devices are grouped by their (degrees, stage, shard) context
        signature so the layer list and shard interval are resolved once per
        group, then per-layer buckets are interned and device-id-sorted by
        :meth:`_interned_buckets`.  Holder-list order is device-id order, not
        meta-context order, which cannot matter: the candidate ranking is a
        total order over device ids.
        """
        groups: Dict[Tuple[int, int, int, int], List[DeviceId]] = {}
        for device_id, (mctx, _) in context_map.items():
            if mctx is None:
                continue
            sig = (
                mctx.pipeline_degree,
                mctx.tensor_degree,
                mctx.position.stage_index,
                mctx.position.shard_index,
            )
            groups.setdefault(sig, []).append(device_id)
        num_layers = self.model.num_layers
        group_entries: List[Tuple[Tuple[float, float], List[DeviceId]]] = []
        coverage: Dict[int, List[int]] = {}
        for (pd, td, stage, shard), devices in groups.items():
            gi = len(group_entries)
            group_entries.append((shard_interval(td, shard), devices))
            for layer in stage_layers(num_layers, pd, stage):
                coverage.setdefault(layer, []).append(gi)
        return self._interned_buckets(group_entries, coverage)

    def _cache_holder_tables(
        self, context_map: Dict[DeviceId, Tuple]
    ) -> Dict[int, _HolderTable]:
        """Old data index -> the same holder tables for that pipeline's cache."""
        groups: Dict[Tuple[int, int, int, int, int], List[DeviceId]] = {}
        for device_id, (_, cctx) in context_map.items():
            if cctx is None:
                continue
            sig = (
                cctx.position.data_index,
                cctx.pipeline_degree,
                cctx.tensor_degree,
                cctx.position.stage_index,
                cctx.position.shard_index,
            )
            groups.setdefault(sig, []).append(device_id)
        num_layers = self.model.num_layers
        per_data: Dict[
            int,
            Tuple[
                List[Tuple[Tuple[float, float], List[DeviceId]]],
                Dict[int, List[int]],
            ],
        ] = {}
        for (data_index, pd, td, stage, shard), devices in groups.items():
            group_entries, coverage = per_data.setdefault(data_index, ([], {}))
            gi = len(group_entries)
            group_entries.append((shard_interval(td, shard), devices))
            for layer in stage_layers(num_layers, pd, stage):
                coverage.setdefault(layer, []).append(gi)
        return {
            data_index: self._interned_buckets(group_entries, coverage)
            for data_index, (group_entries, coverage) in per_data.items()
        }

    @staticmethod
    def _partition_ranked(
        bucket: Sequence[Tuple[Tuple[float, float], DeviceId]],
        instance: str,
        dest_zone: Optional[str],
        zones: Optional[Dict[str, Optional[str]]],
    ) -> List[Tuple[Tuple[float, float], DeviceId]]:
        """Rank a device-id-sorted bucket without sorting.

        Sources on the destination's instance come first, then sources in
        its availability zone, then everything else -- cross-zone pulls ride
        the slowest link tier, so they are the last resort.  In
        ``evacuation_mode`` the zone tier is dropped: an evacuation *must*
        pull context out of the dying zone before it disappears.

        That order is ``sorted`` by ``(not same_instance, not same_zone,
        device_id)``.  A stable three-way partition of a
        bucket already sorted by device id produces exactly that order:
        relative device-id order is preserved within each class, and
        device id is the sort key's only tie-break.  ``zones is None``
        reproduces the ``zone_of is None`` / evacuation branch, where every
        candidate counts as same-zone.
        """
        same_instance: List[Tuple[Tuple[float, float], DeviceId]] = []
        same_zone: List[Tuple[Tuple[float, float], DeviceId]] = []
        others: List[Tuple[Tuple[float, float], DeviceId]] = []
        if zones is None:
            for item in bucket:
                if item[1][0] == instance:
                    same_instance.append(item)
                else:
                    same_zone.append(item)
        else:
            for item in bucket:
                source = item[1][0]
                if source == instance:
                    same_instance.append(item)
                elif zones[source] == dest_zone:
                    same_zone.append(item)
                else:
                    others.append(item)
        return same_instance + same_zone + others

    @staticmethod
    def _pieces_from_sources(
        candidates: Sequence[Tuple[Tuple[float, float], DeviceId]],
        needed: Tuple[float, float],
    ) -> List[Tuple[Optional[DeviceId], float]]:
        """Greedy interval cover of *needed* by ranked candidates.

        Portions no candidate holds are attributed to storage
        (``source=None``).
        """
        pieces: List[Tuple[Optional[DeviceId], float]] = []
        remaining = [needed]
        for interval, device_id in candidates:
            if not remaining:
                break
            next_remaining: List[Tuple[float, float]] = []
            for segment in remaining:
                overlap_start = max(segment[0], interval[0])
                overlap_end = min(segment[1], interval[1])
                if overlap_end > overlap_start:
                    pieces.append((device_id, overlap_end - overlap_start))
                    if segment[0] < overlap_start:
                        next_remaining.append((segment[0], overlap_start))
                    if overlap_end < segment[1]:
                        next_remaining.append((overlap_end, segment[1]))
                else:
                    next_remaining.append(segment)
            remaining = next_remaining
        for segment in remaining:
            width = segment[1] - segment[0]
            if width > 0:
                pieces.append((None, width))
        return pieces

    @staticmethod
    def _subtract_interval(
        needed: Tuple[float, float], owned: Optional[Tuple[float, float]]
    ) -> List[Tuple[float, float]]:
        """Portions of *needed* not covered by *owned*."""
        if owned is None:
            return [needed]
        result: List[Tuple[float, float]] = []
        if owned[0] > needed[0]:
            result.append((needed[0], min(owned[0], needed[1])))
        if owned[1] < needed[1]:
            result.append((max(owned[1], needed[0]), needed[1]))
        return [segment for segment in result if segment[1] - segment[0] > 1e-12]
