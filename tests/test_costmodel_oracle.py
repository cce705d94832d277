"""Differential tests: the batched cost model and fleet views against scalar oracles.

:mod:`repro.llm.costmodel` evaluates ``l_exe`` for many ``(P, M, B)`` rows
in one ``rows x S_out`` matrix summed left to right per row; the scalar
entry points are the same function on one row.
:class:`repro.core.config.ConfigurationSpace` enumerates its memory-fitting
``(P, M, B)`` table once and reads every fleet size as a view of it, and the
controller adds cost columns to those views.  Every float and every
enumeration must stay bit-identical to the per-token loop, the nested-loop
enumeration and the per-config ``profile`` calls they replaced, because the
golden digests hash simulated outcomes to the last bit.
"""

import random

import numpy as np
import pytest

from oracles.scalar_controller import ScalarConfigurationSpace
from oracles.scalar_costmodel import ScalarLatencyModel
from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import ParallelizationController
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.profiler import OfflineProfiler
from repro.llm.spec import GPT_20B, LLAMA_30B, MODEL_CATALOG, OPT_6_7B

PIPELINE_DEGREES = range(1, 97)
TENSOR_DEGREES = (1, 2, 4, 8, 16)
BATCH_SIZES = (1, 2, 3, 4, 8, 16)
LENGTHS = ((512, 128), (512, 1), (0, 5), (100, 300), (2000, 64))


@pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
def test_cost_model_matches_scalar_oracle_exactly(name):
    fast = LatencyModel(name)
    oracle = ScalarLatencyModel(name)
    assert fast.calibration_factor == oracle.calibration_factor
    grid = [
        (p, m, b) for p in PIPELINE_DEGREES for m in TENSOR_DEGREES for b in BATCH_SIZES
    ]
    columns = [np.array(column) for column in zip(*grid)]
    # The batched path: the whole grid in one call per sequence-length pair.
    tables = {
        lengths: fast.l_exe_table(*columns, *lengths).tolist() for lengths in LENGTHS
    }
    for row, (p, m, b) in enumerate(grid):
        case = (name, p, m, b)
        assert fast.decode_iteration_time(p, m, b) == oracle.decode_iteration_time(
            p, m, b
        ), case
        for s_in, s_out in LENGTHS:
            expected = oracle.l_exe(p, m, b, s_in, s_out)
            assert fast.l_exe(p, m, b, s_in, s_out) == expected, (case, s_in, s_out)
            assert tables[s_in, s_out][row] == expected, (case, s_in, s_out)
            assert fast.throughput(3, p, m, b, s_in, s_out) == oracle.throughput(
                3, p, m, b, s_in, s_out
            ), (case, s_in, s_out)
            assert fast.decode_iteration_time(
                p, m, b, context_length=s_in
            ) == oracle.decode_iteration_time(p, m, b, context_length=s_in), (
                case,
                s_in,
            )


def test_zero_output_tokens_and_invalid_parallelism_match_oracle():
    fast, oracle = LatencyModel(GPT_20B), ScalarLatencyModel(GPT_20B)
    assert fast.l_exe(3, 4, 2, 512, 0) == oracle.l_exe(3, 4, 2, 512, 0)
    for args in ((0, 4, 1), (3, 0, 1), (3, 4, 0)):
        with pytest.raises(ValueError):
            fast.l_exe(*args)
        with pytest.raises(ValueError):
            fast.decode_iteration_time(*args)


def _scalar_enumeration(space, num_instances):
    """The enumeration with one memory-model check per (D, P, M, B)."""
    max_gpus = num_instances * space.gpus_per_instance
    configs = []
    for m in space.tensor_degrees:
        if space.model.num_heads % m != 0:
            continue
        for p in space._pipeline_degrees(max_gpus):
            if p * m > max_gpus:
                continue
            for d in range(1, min(space.max_data_degree, max_gpus // (p * m)) + 1):
                for b in space.batch_sizes:
                    if space.memory_model.fits(
                        p, m, b, migration_buffer_bytes=space.migration_buffer_bytes
                    ):
                        configs.append(ParallelConfig(d, p, m, b))
    return configs


@pytest.mark.parametrize("model", [OPT_6_7B, GPT_20B, LLAMA_30B], ids=lambda m: m.name)
def test_feasible_configs_match_fresh_enumeration_in_any_query_order(model):
    sizes = list(range(0, 13))
    random.Random(model.name).shuffle(sizes)
    space = ConfigurationSpace(model)
    for n in sizes:
        assert space.feasible_configs(n) == ConfigurationSpace(model).feasible_configs(n)
        assert space.feasible_configs(n) == _scalar_enumeration(space, n)
        assert space.feasible_configs(n) == ScalarConfigurationSpace(model).feasible_configs(n)


def test_table_resets_when_buffer_or_memory_model_changes():
    space = ConfigurationSpace(GPT_20B)
    roomy = space.feasible_configs(3)
    assert roomy == _scalar_enumeration(space, 3)

    space.migration_buffer_bytes = GPT_20B.total_param_bytes / 16
    tight = space.feasible_configs(3)
    assert tight == _scalar_enumeration(space, 3)
    assert len(tight) < len(roomy)
    assert not space.fits(ParallelConfig(1, 3, 4, 8))

    space.memory_model = MemoryModel(GPT_20B, reserve_bytes=0.0)
    relaxed = space.feasible_configs(3)
    assert relaxed == _scalar_enumeration(space, 3)
    assert relaxed != tight

    space.migration_buffer_bytes = 0.0
    space.memory_model = MemoryModel(GPT_20B)
    assert space.feasible_configs(3) == roomy


def test_batched_rows_do_not_depend_on_their_neighbours():
    fast = LatencyModel(GPT_20B)
    rows = [(p, m, b) for p in (1, 2, 3, 4, 11, 44) for m in (1, 2, 4, 8) for b in (1, 2, 8)]
    full = fast.l_exe_table(*map(np.array, zip(*rows)), 512, 128)
    shuffled = list(range(len(rows)))
    random.Random(7).shuffle(shuffled)
    subset = shuffled[: len(rows) // 3]
    part = fast.l_exe_table(*map(np.array, zip(*(rows[i] for i in subset))), 512, 128)
    assert part.tolist() == [full[i] for i in subset]
    assert fast.l_exe_table([], [], [], 512, 128).tolist() == []
    with pytest.raises(ValueError):
        fast.l_exe_table([1, 2], [4], [1, 1])
    with pytest.raises(ValueError):
        fast.l_exe_table([1, 0], [4, 4], [1, 1])


#: Space shapes the fleet views are pinned on: the default grid, layer-
#: divisible pipelines, and an unsorted grid with a D cap and 8-GPU hosts.
SPACE_VARIANTS = {
    "default": {},
    "divisible-layers": {"require_divisible_layers": True},
    "odd-grid": {
        "batch_sizes": (3, 16, 1),
        "tensor_degrees": (16, 1, 2),
        "max_data_degree": 5,
        "gpus_per_instance": 8,
    },
}


@pytest.mark.parametrize("variant", sorted(SPACE_VARIANTS))
@pytest.mark.parametrize("model", [OPT_6_7B, GPT_20B, LLAMA_30B], ids=lambda m: m.name)
def test_feasible_views_match_oracle_enumeration(model, variant):
    kwargs = SPACE_VARIANTS[variant]
    sizes = list(range(-1, 41))
    random.Random(f"{model.name}/{variant}").shuffle(sizes)
    space = ConfigurationSpace(model, **kwargs)
    oracle = ScalarConfigurationSpace(model, **kwargs)
    for n in sizes:
        configs = space.feasible_configs(n)
        assert configs == oracle.feasible_configs(n), n
        assert configs == _scalar_enumeration(space, n), n


@pytest.mark.parametrize("model", [OPT_6_7B, GPT_20B, LLAMA_30B], ids=lambda m: m.name)
def test_fleet_view_columns_match_per_config_profiles(model):
    memory = MemoryModel(model)
    profiler = OfflineProfiler(LatencyModel(model), memory)
    space = ConfigurationSpace(model, memory, require_divisible_layers=True)
    oracle = ScalarConfigurationSpace(model, memory, require_divisible_layers=True)
    controller = ParallelizationController(space, profiler)
    rng = random.Random(model.name)

    def check_views():
        sizes = list(range(0, 17))
        rng.shuffle(sizes)
        for n in sizes:
            view = controller.fleet_view(n)
            configs = oracle.feasible_configs(n)
            assert [view.config(i) for i in range(len(view))] == configs, n
            for i, config in enumerate(configs):
                entry = profiler.profile(
                    config.data_degree,
                    config.pipeline_degree,
                    config.tensor_degree,
                    config.batch_size,
                )
                assert view.exec_latency[i] == entry.latency, (n, config)
                assert view.throughput[i] == entry.throughput, (n, config)
                assert view.num_instances[i] == config.num_instances(4), (n, config)

    check_views()
    # Reassigning the buffer or the memory model re-derives table and views.
    for target in (space, oracle):
        target.migration_buffer_bytes = model.total_param_bytes / 16
    check_views()
    for target in (space, oracle):
        target.memory_model = MemoryModel(model, reserve_bytes=0.0)
    check_views()
