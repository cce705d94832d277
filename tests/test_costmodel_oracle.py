"""Differential tests: the vectorised cost model against its scalar oracles.

The decode sum in :mod:`repro.llm.costmodel` is one float64 vector summed
left to right, and :class:`repro.core.config.ConfigurationSpace` memoises the
memory fit per ``(P, M, B)``.  Every float and every enumeration must stay
bit-identical to the per-token loop and the unmemoised scan they replaced,
because the golden digests hash simulated outcomes to the last bit.
"""

import random

import pytest

from oracles.scalar_costmodel import ScalarLatencyModel
from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
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
    for p in PIPELINE_DEGREES:
        for m in TENSOR_DEGREES:
            for b in BATCH_SIZES:
                case = (name, p, m, b)
                assert fast.decode_iteration_time(p, m, b) == oracle.decode_iteration_time(
                    p, m, b
                ), case
                for s_in, s_out in LENGTHS:
                    assert fast.l_exe(p, m, b, s_in, s_out) == oracle.l_exe(
                        p, m, b, s_in, s_out
                    ), (case, s_in, s_out)
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


def test_fit_memo_resets_when_buffer_or_memory_model_changes():
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
