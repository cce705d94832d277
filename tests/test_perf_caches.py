"""Cache-correctness tests for the adaptation-round fast path.

The fast path memoises controller estimates, feasible-config enumerations,
cost-model entry points and the mapper's warm-start states.  These tests pin
the two properties that make the caches safe: they are invalidated whenever
an input they depend on changes, and a fully cached run is byte-identical to
a fully uncached one.
"""

import pytest
from oracles.scalar_mapper import ScalarDeviceMapper

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import ParallelizationController
from repro.core.device_mapper import DeviceMapper
from repro.core.server import SpotServeSystem
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import stable_workload_scenario
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.profiler import OfflineProfiler
from repro.llm.spec import GPT_20B, OPT_6_7B


def make_controller(model=OPT_6_7B, **kwargs):
    latency = LatencyModel(model)
    memory = MemoryModel(model, latency.gpu)
    profiler = OfflineProfiler(latency, memory)
    space = ConfigurationSpace(model, memory, gpus_per_instance=4)
    return ParallelizationController(space, profiler, **kwargs)


class TestControllerMemo:
    def test_repeated_estimates_hit_the_memo(self):
        controller = make_controller()
        config = ParallelConfig(1, 2, 2, 4)
        first = controller.estimate(config, 0.35)
        # Identity (not merely equality): the memoised object is returned.
        assert controller.estimate(config, 0.35) is first

    def test_memoized_matches_unmemoized(self):
        cached = make_controller()
        uncached = make_controller(memoize=False)
        for rate in (0.05, 0.35, 2.0):
            for config in cached.config_space.feasible_configs(3):
                assert cached.estimate(config, rate) == uncached.estimate(config, rate)

    def test_profile_change_invalidates_memo(self):
        controller = make_controller()
        config = ParallelConfig(1, 2, 2, 4)
        before = controller.estimate(config, 0.35)
        # Re-profile with a different sequence length: latencies must change,
        # and the memo must not serve the stale estimate.
        controller.profiler.input_length = 2048
        controller.profiler.clear()
        after = controller.estimate(config, 0.35)
        assert after.execution_latency != before.execution_latency

    def test_fleet_space_change_invalidates_sweep(self):
        controller = make_controller(model=GPT_20B)
        space = controller.config_space
        full_view = controller.fleet_view(4)
        # Reserving a huge migration buffer shrinks the feasible space; the
        # memoised view for the same fleet size must follow.
        space.migration_buffer_bytes = 8 * 1024 ** 3
        shrunk_view = controller.fleet_view(4)
        assert len(shrunk_view) < len(full_view)
        assert [shrunk_view.config(i) for i in range(len(shrunk_view))] == (
            space.feasible_configs(4)
        )

    def test_propose_identical_with_and_without_memo(self):
        cached = make_controller()
        uncached = make_controller(memoize=False)
        for instances, rate in [(1, 0.1), (3, 0.35), (6, 1.5), (6, 50.0)]:
            a = cached.propose(instances, rate)
            b = uncached.propose(instances, rate)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.config == b.config
                assert a.objective == b.objective
                assert a.instance_delta == b.instance_delta


class TestFeasibleConfigCache:
    def test_cached_enumeration_is_stable_and_copied(self):
        space = ConfigurationSpace(GPT_20B, gpus_per_instance=4)
        first = space.feasible_configs(4)
        second = space.feasible_configs(4)
        assert first == second
        # Callers may mutate their copy without corrupting the cache.
        first.clear()
        assert space.feasible_configs(4) == second

    def test_buffer_change_bumps_generation_and_refreshes(self):
        space = ConfigurationSpace(GPT_20B, gpus_per_instance=4)
        baseline = space.feasible_configs(4)
        generation = space.generation
        space.migration_buffer_bytes = 8 * 1024 ** 3
        assert space.generation > generation
        assert len(space.feasible_configs(4)) < len(baseline)


def _install(meta, devices, config):
    positions = mesh_positions(
        config.data_degree, config.pipeline_degree, config.tensor_degree
    )
    for device, position in zip(devices, positions):
        meta.daemon(device).install_model_context(
            config.pipeline_degree, config.tensor_degree, position
        )


class TestMapperRoundCache:
    def devices(self, n, gpus=4):
        return [(f"inst-{i:02d}", g) for i in range(n) for g in range(gpus)]

    def test_context_change_between_rounds_is_observed(self):
        """A weight cached in round N must not leak into round N+1."""
        meta = MetaContextManager(GPT_20B)
        devices = self.devices(6)
        config = ParallelConfig(2, 3, 4, 8)
        _install(meta, devices, config)
        mapper = DeviceMapper(GPT_20B)
        warm = mapper.map_devices(meta, devices, config)
        assert warm.reused_bytes > 0
        # The fleet loses all its context (e.g. every instance restarted).
        for device in devices:
            meta.drop_instance(device[0])
        cold = mapper.map_devices(meta, devices, config)
        assert cold.reused_bytes == pytest.approx(0.0)

    def test_cached_mapping_matches_uncached(self):
        meta = MetaContextManager(GPT_20B)
        devices = self.devices(6)
        old = ParallelConfig(2, 3, 4, 8)
        new = ParallelConfig(1, 2, 8, 8)
        _install(meta, devices, old)
        cached = DeviceMapper(GPT_20B).map_devices(meta, devices, new)
        uncached = ScalarDeviceMapper(GPT_20B).map_devices(meta, devices, new)
        assert cached.placement == uncached.placement
        assert cached.reused_bytes == pytest.approx(uncached.reused_bytes)
        assert cached.required_bytes == pytest.approx(uncached.required_bytes)

    def test_stateless_fleet_mapping_matches_uncached(self):
        # Stateless instances take the skip-the-solve path; the placement
        # must equal the one the scalar oracle's graph solves produce.
        meta = MetaContextManager(GPT_20B)
        devices = self.devices(6)
        config = ParallelConfig(2, 3, 4, 8)
        cached = DeviceMapper(GPT_20B).map_devices(meta, devices, config)
        uncached = ScalarDeviceMapper(GPT_20B).map_devices(meta, devices, config)
        assert cached.placement == uncached.placement


class UncachedSpotServe(SpotServeSystem):
    """SpotServe with every fast-path cache disabled (digest cross-check)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller.memoize = False
        self.latency_model.disable_caches()


class TestCachedRunsAreByteIdentical:
    def test_golden_scenario_digest_identical_with_caches_off(self):
        def run(system_cls):
            scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
            return run_serving_experiment(
                system_cls,
                scenario.model_name,
                scenario.trace,
                scenario.arrival_process(),
                duration=scenario.duration,
                drain_time=200.0,
                options=scenario.options(),
            )

        cached = run(SpotServeSystem)
        uncached = run(UncachedSpotServe)
        assert cached.stats.summary_text() == uncached.stats.summary_text()
        assert cached.total_cost == uncached.total_cost
