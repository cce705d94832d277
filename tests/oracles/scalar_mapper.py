"""Scalar graph-per-round device mapper: the reference for the map phase.

The production :class:`~repro.core.device_mapper.DeviceMapper` prices a round
as one dense reuse-weight matrix and solves it sparsified, split into zone
components and warm-started, with memoised intra-instance solves.  This module
keeps the matcher those reductions replaced: every edge weight is one
:meth:`~repro.core.device_mapper.DeviceMapper.reuse_weight` call (memoised for
the duration of one ``map_devices`` call), the flat matching solves one
complete :class:`~repro.matching.bipartite.BipartiteGraph`, and the
hierarchical matching solves every (instance, position group) pair eagerly.

The oracle reuses the production round (``map_devices``).  Its round lookup
is the scalar inputs ``(meta_context, new_config, pipeline_inheritance)``
instead of a matrix, and the three methods that read the lookup are replaced
by their scalar versions.  Differential tests pin production placements and
reuse totals against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.engine.context import DeviceId, MetaContextManager
from repro.engine.placement import TopologyPosition, mesh_positions
from repro.matching.bipartite import BipartiteGraph

#: The oracle's round lookup: the inputs every scalar weight call needs.
ScalarLookup = Tuple[MetaContextManager, ParallelConfig, Optional[Dict[int, int]]]


class ScalarDeviceMapper(DeviceMapper):
    """:class:`DeviceMapper` with scalar weights and graph-based matchings."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-round reuse-weight cache, valid only while one map_devices call
        # runs (config, inheritance and context state are fixed inside it).
        self._round_weights: Optional[Dict[Tuple[DeviceId, TopologyPosition], float]] = None
        self._round_stateless: Optional[Dict[DeviceId, bool]] = None

    def map_devices(self, *args, **kwargs):
        # The round cache lives exactly as long as this call, so nothing
        # leaks into the next adaptation round.
        self._round_weights = {}
        self._round_stateless = {}
        try:
            return super().map_devices(*args, **kwargs)
        finally:
            self._round_weights = None
            self._round_stateless = None

    def _weight_lookup(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> ScalarLookup:
        return meta_context, new_config, pipeline_inheritance

    # ------------------------------------------------------------------
    # Edge weights
    # ------------------------------------------------------------------
    def _weight(
        self,
        meta_context: MetaContextManager,
        device_id: DeviceId,
        position: TopologyPosition,
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> float:
        """Reuse weight via the per-round cache (falls through when absent)."""
        cache = self._round_weights
        if cache is None:
            return self.reuse_weight(
                meta_context, device_id, position, new_config, pipeline_inheritance
            )
        if self._is_stateless(meta_context, device_id):
            return 0.0
        key = (device_id, position)
        weight = cache.get(key)
        if weight is None:
            weight = self.reuse_weight(
                meta_context, device_id, position, new_config, pipeline_inheritance
            )
            cache[key] = weight
        return weight

    def _is_stateless(self, meta_context: MetaContextManager, device_id: DeviceId) -> bool:
        """True when the device holds no context at all (weight provably 0)."""
        known = self._round_stateless
        if known is None:
            daemon = meta_context.daemon(device_id)
            return daemon.model_context is None and daemon.cache_context is None
        if device_id not in known:
            daemon = meta_context.daemon(device_id)
            known[device_id] = (
                daemon.model_context is None and daemon.cache_context is None
            )
        return known[device_id]

    def build_graph(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]] = None,
    ) -> BipartiteGraph:
        """Complete weighted bipartite graph between *devices* and positions."""
        graph: BipartiteGraph = BipartiteGraph()
        positions = mesh_positions(
            new_config.data_degree, new_config.pipeline_degree, new_config.tensor_degree
        )
        for device_id in devices:
            graph.add_left(device_id)
        for position in positions:
            graph.add_right(position)
        for device_id in devices:
            for position in positions:
                weight = self._weight(
                    meta_context, device_id, position, new_config, pipeline_inheritance
                )
                if weight > 0:
                    graph.set_weight(device_id, position, weight)
        return graph

    def _placement_reuse(
        self,
        lookup: ScalarLookup,
        placement: Dict[DeviceId, TopologyPosition],
    ) -> float:
        """Total reusable bytes of a placement, summed in insertion order."""
        meta_context, new_config, pipeline_inheritance = lookup
        return sum(
            self._weight(meta_context, device_id, position, new_config, pipeline_inheritance)
            for device_id, position in placement.items()
        )

    # ------------------------------------------------------------------
    # Matching strategies
    # ------------------------------------------------------------------
    def _flat_matching(
        self,
        lookup: ScalarLookup,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
    ) -> Dict[DeviceId, TopologyPosition]:
        meta_context, new_config, pipeline_inheritance = lookup
        graph = self.build_graph(meta_context, devices, new_config, pipeline_inheritance)
        if self.use_optimal_matching:
            matching = graph.maximum_weight_matching()
        else:
            matching = graph.greedy_matching()
        placement = {
            device_id: position
            for device_id, position in matching.items()
            if position is not None
        }
        self._fill_unassigned(placement, devices, positions)
        return placement

    def _hierarchical_matching(
        self,
        lookup: ScalarLookup,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
    ) -> Dict[DeviceId, TopologyPosition]:
        """Two-step matching with every intra-instance solve done eagerly."""
        meta_context, new_config, pipeline_inheritance = lookup
        # Group the target positions into instance-sized chunks, keeping the
        # deterministic (d, p, m) order so tensor shards stay co-located.
        ordered = list(positions)
        groups: List[List[TopologyPosition]] = [
            ordered[i : i + self.gpus_per_instance]
            for i in range(0, len(ordered), self.gpus_per_instance)
        ]
        # Bucket devices per instance.
        per_instance: Dict[str, List[DeviceId]] = {}
        for device_id in devices:
            per_instance.setdefault(device_id[0], []).append(device_id)

        instance_ids = sorted(per_instance)
        group_graph: BipartiteGraph = BipartiteGraph()
        for instance_id in instance_ids:
            group_graph.add_left(instance_id)
        for group_index, group in enumerate(groups):
            group_graph.add_right(group_index)

        best_inner: Dict[Tuple[str, int], Dict[DeviceId, TopologyPosition]] = {}
        for instance_id in instance_ids:
            instance_devices = per_instance[instance_id]
            for group_index, group in enumerate(groups):
                inner, weight = self._match_within(
                    meta_context, instance_devices, group, new_config, pipeline_inheritance
                )
                best_inner[(instance_id, group_index)] = inner
                if weight > 0:
                    group_graph.set_weight(instance_id, group_index, weight)

        if self.use_optimal_matching:
            instance_matching = group_graph.maximum_weight_matching()
        else:
            instance_matching = group_graph.greedy_matching()

        placement: Dict[DeviceId, TopologyPosition] = {}
        for instance_id, group_index in instance_matching.items():
            placement.update(best_inner[(instance_id, group_index)])

        # Instances left unmatched (more instances than groups) contribute no
        # placement; groups left unmatched are filled arbitrarily below.
        self._fill_unassigned(placement, devices, positions)
        return placement

    def _match_within(
        self,
        meta_context: MetaContextManager,
        instance_devices: Sequence[DeviceId],
        group: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> Tuple[Dict[DeviceId, TopologyPosition], float]:
        """Match one instance's GPUs onto one position group.

        Returns the matching together with its total reuse weight (the sum of
        the matched edges, which the caller would otherwise re-derive).
        """
        weights: Dict[Tuple[DeviceId, TopologyPosition], float] = {}
        for device_id in instance_devices:
            if self._is_stateless(meta_context, device_id):
                continue
            for position in group:
                weight = self._weight(
                    meta_context, device_id, position, new_config, pipeline_inheritance
                )
                if weight > 0:
                    weights[(device_id, position)] = weight
        if not weights:
            # All weights are provably zero (e.g. a freshly launched,
            # stateless instance).  Kuhn-Munkres on an all-zero matrix yields
            # the identity pairing in input order, which the positional zip
            # reproduces exactly -- so the O(n^3) solve can be skipped.
            return (
                {
                    device_id: position
                    for device_id, position in zip(instance_devices, group)
                },
                0.0,
            )
        graph: BipartiteGraph = BipartiteGraph()
        for device_id in instance_devices:
            graph.add_left(device_id)
        for position in group:
            graph.add_right(position)
        for (device_id, position), weight in weights.items():
            graph.set_weight(device_id, position, weight)
        matching = graph.maximum_weight_matching()
        result = dict(matching)
        matched_weight = graph.matching_weight(matching)
        # Deterministically fill any unmatched positions of the group with the
        # instance's remaining GPUs (zero-weight pairs, so the matched weight
        # is unchanged).
        assigned = set(result.values())
        free_devices = [d for d in instance_devices if d not in result]
        free_positions = [p for p in group if p not in assigned]
        for device_id, position in zip(free_devices, free_positions):
            result[device_id] = position
        return result, matched_weight
