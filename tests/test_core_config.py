"""Tests for parallel configurations and the configuration search space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.llm.memory import MemoryModel
from repro.llm.spec import GPT_20B, LLAMA_30B, OPT_6_7B


class TestParallelConfig:
    def test_derived_quantities(self):
        config = ParallelConfig(2, 3, 4, 8)
        assert config.num_gpus == 24
        assert config.gpus_per_pipeline == 12
        assert config.concurrent_requests == 16
        assert config.num_instances(4) == 6
        assert config.without_batch() == (2, 3, 4)

    def test_instance_count_rounds_up(self):
        assert ParallelConfig(1, 2, 3, 1).num_instances(4) == 2

    def test_invalid_components_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(0, 1, 1, 1)
        with pytest.raises(ValueError):
            ParallelConfig(1, 1, 1, 0)
        with pytest.raises(ValueError):
            ParallelConfig(1, 2, 3, 1).num_instances(0)

    def test_compatibility_with_model_geometry(self):
        assert ParallelConfig(1, 2, 4, 1).is_compatible_with(GPT_20B)
        assert not ParallelConfig(1, 2, 5, 1).is_compatible_with(GPT_20B)
        assert not ParallelConfig(1, 100, 1, 1).is_compatible_with(GPT_20B)

    def test_ordering_and_equality(self):
        assert ParallelConfig(1, 2, 3, 4) == ParallelConfig(1, 2, 3, 4)
        assert ParallelConfig(1, 1, 1, 1) < ParallelConfig(2, 1, 1, 1)


class TestConfigurationSpace:
    def test_feasible_configs_respect_gpu_budget(self):
        space = ConfigurationSpace(GPT_20B)
        configs = space.feasible_configs(num_instances=4)
        assert configs
        assert all(config.num_gpus <= 16 for config in configs)

    def test_no_configs_without_instances(self):
        assert ConfigurationSpace(GPT_20B).feasible_configs(0) == []

    def test_all_configs_fit_memory(self):
        space = ConfigurationSpace(GPT_20B)
        for config in space.feasible_configs(3):
            assert space.fits(config)

    def test_head_divisibility_respected(self):
        space = ConfigurationSpace(LLAMA_30B)
        for config in space.feasible_configs(4):
            assert LLAMA_30B.num_heads % config.tensor_degree == 0

    def test_small_model_allows_small_fleets(self):
        space = ConfigurationSpace(OPT_6_7B)
        assert space.feasible_configs(1)

    def test_big_model_needs_more_instances(self):
        space = ConfigurationSpace(LLAMA_30B)
        assert space.feasible_configs(2) == []
        # Full-batch (B=8) serving of LLaMA-30B needs at least 4 instances
        # (16 GPUs, Table 1); 3 instances only admit small-batch configs.
        assert [c for c in space.feasible_configs(3) if c.batch_size == 8] == []
        assert [c for c in space.feasible_configs(4) if c.batch_size == 8]

    def test_migration_buffer_shrinks_space(self):
        roomy = ConfigurationSpace(GPT_20B)
        tight = ConfigurationSpace(GPT_20B, migration_buffer_bytes=GPT_20B.total_param_bytes / 16)
        assert len(tight.feasible_configs(3)) < len(roomy.feasible_configs(3))

    def test_invalid_batch_sizes_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(GPT_20B, batch_sizes=())

    @pytest.mark.parametrize("batch_sizes", [(0,), (4, 0, 8), (-1, 2)])
    def test_non_positive_batch_sizes_rejected(self, batch_sizes):
        with pytest.raises(ValueError, match="batch_sizes"):
            ConfigurationSpace(GPT_20B, batch_sizes=batch_sizes)

    @pytest.mark.parametrize("tensor_degrees", [(), (0,), (1, -2, 4)])
    def test_empty_or_non_positive_tensor_degrees_rejected(self, tensor_degrees):
        with pytest.raises(ValueError, match="tensor_degrees"):
            ConfigurationSpace(GPT_20B, tensor_degrees=tensor_degrees)

    @pytest.mark.parametrize("gpus_per_instance", [0, -4])
    def test_non_positive_gpus_per_instance_rejected(self, gpus_per_instance):
        # Used to build an empty space silently.
        with pytest.raises(ValueError, match="gpus_per_instance"):
            ConfigurationSpace(GPT_20B, gpus_per_instance=gpus_per_instance)

    @pytest.mark.parametrize("max_data_degree", [0, -1])
    def test_non_positive_max_data_degree_rejected(self, max_data_degree):
        with pytest.raises(ValueError, match="max_data_degree"):
            ConfigurationSpace(GPT_20B, max_data_degree=max_data_degree)

    @given(instances=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_space_grows_with_fleet(self, instances):
        space = ConfigurationSpace(GPT_20B)
        smaller = len(space.feasible_configs(instances))
        larger = len(space.feasible_configs(instances + 1))
        assert larger >= smaller
