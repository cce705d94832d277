"""Instance manager.

The instance manager is the SpotServe component (Figure 3) that "interacts
with the cloud and receives instance preemption/acquisition notifications".
It owns the set of instances the serving system is currently paying for,
implements the allocation policy of Algorithm 1 (allocate on-demand and spot
simultaneously, release on-demand first) and maintains the small candidate
pool of spare instances the paper keeps for smoother substitutions.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..sim.events import Event, EventType
from .instance import Instance, InstanceState, Market
from .provider import CloudProvider


class InstanceManager:
    """Tracks held instances and talks to the :class:`CloudProvider`."""

    def __init__(
        self,
        provider: CloudProvider,
        allow_on_demand: bool = False,
        candidate_pool_size: int = 2,
    ) -> None:
        self.provider = provider
        self.allow_on_demand = allow_on_demand
        self.candidate_pool_size = candidate_pool_size
        self._held: Dict[str, Instance] = {}
        self._pending_preemption: Dict[str, float] = {}
        #: Tenancy hooks, installed by :mod:`repro.core.tenancy` and all
        #: ``None`` in single-tenant mode so legacy behaviour (and the golden
        #: digests) is untouched.  ``allowed_zones`` restricts allocations to
        #: a subset of the market's zones; ``ownership_filter`` restricts
        #: provider-wide views (initial adoption, launching/on-demand scans)
        #: to instances owned by this manager's tenant; ``granted_hook`` is
        #: called once per freshly granted instance so the coordinator can
        #: record ownership; ``excluded`` hides instances the fleet
        #: partitioner assigned to another tenant this round.
        self.allowed_zones: Optional[FrozenSet[str]] = None
        self.ownership_filter: Optional[Callable[[Instance], bool]] = None
        self.granted_hook: Optional[Callable[[Instance], None]] = None
        self.excluded: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # Event intake (wired by the serving system)
    # ------------------------------------------------------------------
    def on_acquisition_ready(self, event: Event) -> Instance:
        """Record that a new instance became usable."""
        instance: Instance = event.payload["instance"]
        self._held[instance.instance_id] = instance
        return instance

    def on_preemption_notice(self, event: Event) -> Instance:
        """Record a preemption notice (the instance stays usable until the deadline)."""
        instance: Instance = event.payload["instance"]
        self._pending_preemption[instance.instance_id] = event.payload["deadline"]
        return instance

    def on_preemption_final(self, event: Event) -> Instance:
        """Drop an instance that has been reclaimed by the cloud."""
        instance: Instance = event.payload["instance"]
        self._held.pop(instance.instance_id, None)
        self._pending_preemption.pop(instance.instance_id, None)
        return instance

    def on_zone_outage_warning(self, zone: str, deadline: float) -> List[Instance]:
        """Mark *every* held instance of *zone* as doomed by *deadline*.

        Spot instances also receive individual preemption notices from the
        provider, but on-demand instances get none -- a zone outage is the
        only thing that kills them -- so the whole zone is excluded from
        :meth:`stable_instances` here.  Returns the newly doomed instances.
        """
        doomed: List[Instance] = []
        for instance in self._held.values():
            if instance.zone != zone or not instance.is_usable:
                continue
            if instance.instance_id not in self._pending_preemption:
                doomed.append(instance)
            self._pending_preemption[instance.instance_id] = deadline
        return doomed

    def mark_doomed(self, instance_id: str, deadline: float) -> None:
        """Exclude one instance from the stable set until *deadline*.

        Used for instances that become ready inside a zone that is already
        under an outage warning -- they never get an individual preemption
        notice but must not be planned onto.
        """
        self._pending_preemption[instance_id] = deadline

    def on_zone_outage_down(self, zone: str) -> List[Instance]:
        """Drop every held instance of *zone* that the outage killed.

        Instances that died without an individual ``PREEMPTION_FINAL`` event
        (on-demand, or spot granted after the warning) are removed here;
        returns the instances that were dropped.
        """
        dropped: List[Instance] = []
        for instance_id in list(self._held):
            instance = self._held[instance_id]
            if instance.zone != zone or instance.is_alive:
                continue
            self._held.pop(instance_id, None)
            self._pending_preemption.pop(instance_id, None)
            dropped.append(instance)
        return dropped

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def held_instances(self) -> List[Instance]:
        """Every instance the system currently holds and can use."""
        return [inst for inst in self._held.values() if inst.is_usable]

    def stable_instances(self) -> List[Instance]:
        """Usable instances that are *not* in a grace period.

        This is the set the parallelization controller should target: the
        paper's ``N_t`` "includes newly allocated instances and excludes
        instances to be preempted".
        """
        excluded = self.excluded
        return [
            inst
            for inst in self._held.values()
            if inst.is_usable
            and inst.instance_id not in self._pending_preemption
            and (excluded is None or inst.instance_id not in excluded)
        ]

    def doomed_instances(self) -> List[Instance]:
        """Instances currently inside a preemption grace period."""
        return [
            inst
            for inst in self._held.values()
            if inst.instance_id in self._pending_preemption and inst.is_usable
        ]

    def available_count(self) -> int:
        """``N_t`` of Algorithm 1: usable instances not scheduled for preemption."""
        return len(self.stable_instances())

    def available_gpus(self) -> int:
        """Total GPUs across :meth:`stable_instances`."""
        return sum(inst.num_gpus for inst in self.stable_instances())

    def on_demand_instances(self) -> List[Instance]:
        """Held on-demand instances."""
        return [
            inst for inst in self._held.values() if inst.market is Market.ON_DEMAND and inst.is_usable
        ]

    def on_demand_alive(self) -> int:
        """On-demand instances alive anywhere (held, launching or spare)."""
        return sum(
            1
            for inst in self.provider.alive_instances()
            if inst.market is Market.ON_DEMAND and self._owned(inst)
        )

    def _owned(self, instance: Instance) -> bool:
        """True when *instance* belongs to this manager's tenant (or no filter)."""
        return self.ownership_filter is None or self.ownership_filter(instance)

    def on_launch_failure(self, event: Event) -> Instance:
        """Forget an instance whose launch died before becoming ready.

        Launching instances are not yet held, so this is mostly defensive;
        it also clears any doomed marking the failed instance carried.
        """
        instance: Instance = event.payload["instance"]
        self._held.pop(instance.instance_id, None)
        self._pending_preemption.pop(instance.instance_id, None)
        return instance

    def zone_counts(self) -> Dict[str, int]:
        """Stable instances per availability zone (zones with none included)."""
        counts: Dict[str, int] = {name: 0 for name in self.provider.zone_names}
        for inst in self.stable_instances():
            counts[inst.zone] = counts.get(inst.zone, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Algorithm 1 allocation policy
    # ------------------------------------------------------------------
    def alloc(
        self,
        count: int,
        zone: Optional[str] = None,
        avoid_zones: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Request *count* extra instances (Algorithm 1, line 8).

        Spot and on-demand allocations are issued at the same time so that a
        failed spot allocation does not delay capacity recovery; on-demand is
        only used when mixing is enabled.  ``zone`` pins the request to one
        availability zone (the autoscaler's per-zone decisions use this);
        ``avoid_zones`` keeps zone-spread requests out of zones the serving
        system knows are doomed (outage warnings).  Returns the instances
        that were actually granted (they become usable later, announced by
        ``ACQUISITION_READY`` events).
        """
        if count <= 0:
            return []
        if self.allowed_zones is not None:
            if zone is not None:
                if zone not in self.allowed_zones:
                    return []
            else:
                forbidden = sorted(
                    set(self.provider.zone_names) - self.allowed_zones
                )
                avoid_zones = list(avoid_zones or ()) + forbidden
        granted: List[Instance] = list(
            self.provider.request_spot(count, zone=zone, avoid_zones=avoid_zones)
        )
        if self.allow_on_demand:
            remaining = count - len(granted)
            if remaining > 0:
                granted.extend(
                    self.provider.request_on_demand(
                        remaining, zone=zone, avoid_zones=avoid_zones
                    )
                )
        if self.granted_hook is not None:
            for instance in granted:
                self.granted_hook(instance)
        return granted

    def free(
        self,
        count: int,
        zone: Optional[str] = None,
        keep_pool: bool = True,
        avoid: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Release *count* held instances (Algorithm 1, line 10).

        On-demand instances are released first because they cost more; within
        a market the most recently acquired instances go first.  With
        ``keep_pool=True`` the candidate pool is preserved: the manager keeps
        up to ``candidate_pool_size`` extra instances as spares.  ``zone``
        restricts releases to one availability zone and ``avoid`` protects
        instances (e.g. those hosting live pipelines) from release.
        """
        if count <= 0:
            return []
        if keep_pool:
            count = max(count - self.candidate_pool_size, 0)
        if count == 0:
            return []
        protected = set(avoid or ())
        candidates = sorted(
            (
                inst
                for inst in self.held_instances()
                if (zone is None or inst.zone == zone)
                and inst.instance_id not in protected
            ),
            key=lambda inst: (
                0 if inst.market is Market.ON_DEMAND else 1,
                -inst.launch_time,
                inst.instance_id,
            ),
        )
        released: List[Instance] = []
        for instance in candidates[:count]:
            self.provider.release(instance)
            self._held.pop(instance.instance_id, None)
            released.append(instance)
        return released

    def adopt_initial_fleet(self) -> List[Instance]:
        """Adopt every instance the provider already made usable (time zero fleet).

        In multi-tenant mode the :attr:`ownership_filter` keeps each tenant's
        manager to the slice of the initial fleet the coordinator assigned it.
        """
        for instance in self.provider.usable_instances():
            if self._owned(instance):
                self._held[instance.instance_id] = instance
        return self.held_instances()

    # ------------------------------------------------------------------
    # Multi-tenant rebalance handover
    # ------------------------------------------------------------------
    def adopt(self, instance: Instance) -> None:
        """Take ownership of an already-usable *instance* (tenant rebalance)."""
        self._held[instance.instance_id] = instance

    def disown(self, instance_id: str) -> Optional[Instance]:
        """Release bookkeeping for *instance_id* without terminating it.

        Used by the tenancy coordinator to hand an idle instance to another
        tenant's manager; returns the instance, or ``None`` if it was not held.
        """
        self._pending_preemption.pop(instance_id, None)
        return self._held.pop(instance_id, None)
