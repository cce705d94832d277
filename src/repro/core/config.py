"""Parallel configurations and the configuration search space.

A parallel configuration is the tuple ``C = (D, P, M, B)`` of Section 3.2:
``D`` data-parallel pipelines, ``P`` pipeline-model-parallel stages, ``M``
tensor-model-parallel shards and ``B`` the maximum mini-batch size.  The
parallelization controller explores every configuration that

* uses at most the currently available GPUs,
* respects the model geometry (layer count divisible enough for ``P``,
  attention heads divisible by ``M``), and
* fits in GPU memory (checked by the :class:`~repro.llm.memory.MemoryModel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..llm.memory import MemoryModel
from ..llm.spec import ModelSpec

#: Batch sizes explored by the optimizer (Section 6.1).
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8)

#: Tensor-parallel degrees worth considering on 4-GPU instances.  The paper
#: explores shards within an instance plus one level of over-sharding (M=8);
#: wider tensor groups are dominated by their collective latency.
DEFAULT_TENSOR_DEGREES: Tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True, order=True)
class ParallelConfig:
    """A parallel configuration ``C = (D, P, M, B)``."""

    data_degree: int
    pipeline_degree: int
    tensor_degree: int
    batch_size: int = 1

    def __post_init__(self) -> None:
        if min(self.data_degree, self.pipeline_degree, self.tensor_degree, self.batch_size) <= 0:
            raise ValueError("all configuration components must be positive")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """GPUs used: ``D * P * M``."""
        return self.data_degree * self.pipeline_degree * self.tensor_degree

    @property
    def gpus_per_pipeline(self) -> int:
        """GPUs per data-parallel replica: ``P * M``."""
        return self.pipeline_degree * self.tensor_degree

    @property
    def concurrent_requests(self) -> int:
        """Maximum requests decoded concurrently: ``D * B``."""
        return self.data_degree * self.batch_size

    def num_instances(self, gpus_per_instance: int = 4) -> int:
        """Instances required (ceiling division)."""
        if gpus_per_instance <= 0:
            raise ValueError("gpus_per_instance must be positive")
        return -(-self.num_gpus // gpus_per_instance)

    def without_batch(self) -> Tuple[int, int, int]:
        """The ``(D, P, M)`` triple, ignoring batch size (Section 3.3)."""
        return (self.data_degree, self.pipeline_degree, self.tensor_degree)

    def is_compatible_with(self, model: ModelSpec) -> bool:
        """Geometry check: ``P`` cannot exceed layers, ``M`` must divide heads."""
        if self.pipeline_degree > model.num_layers:
            return False
        if model.num_heads % self.tensor_degree != 0:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"(D={self.data_degree}, P={self.pipeline_degree}, "
            f"M={self.tensor_degree}, B={self.batch_size})"
        )


class ConfigurationSpace:
    """Enumerates candidate configurations for a model on a GPU fleet."""

    def __init__(
        self,
        model: ModelSpec,
        memory_model: Optional[MemoryModel] = None,
        batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
        tensor_degrees: Sequence[int] = DEFAULT_TENSOR_DEGREES,
        gpus_per_instance: int = 4,
        max_data_degree: int = 16,
        migration_buffer_bytes: float = 0.0,
        require_divisible_layers: bool = False,
    ) -> None:
        self.model = model
        self.memory_model = memory_model or MemoryModel(model)
        self.batch_sizes = tuple(sorted(set(batch_sizes)))
        self.tensor_degrees = tuple(sorted(set(tensor_degrees)))
        self.gpus_per_instance = gpus_per_instance
        self.max_data_degree = max_data_degree
        self._feasible_cache: dict = {}
        self._fit_memo: Dict[Tuple[int, int, int], bool] = {}
        self._generation = 0
        self.migration_buffer_bytes = migration_buffer_bytes
        self.require_divisible_layers = require_divisible_layers
        if not self.batch_sizes or not self.tensor_degrees:
            raise ValueError("batch_sizes and tensor_degrees must be non-empty")

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    #: Attributes whose mutation changes which configurations are feasible;
    #: assigning any of them after construction drops the enumeration cache.
    _CACHE_SENSITIVE = frozenset(
        {
            "model",
            "memory_model",
            "batch_sizes",
            "tensor_degrees",
            "gpus_per_instance",
            "max_data_degree",
            "require_divisible_layers",
        }
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in self._CACHE_SENSITIVE and "_feasible_cache" in self.__dict__:
            self.invalidate_cache()

    @property
    def migration_buffer_bytes(self) -> float:
        """Per-instance migration buffer reserved by the memory check."""
        return self._migration_buffer_bytes

    @migration_buffer_bytes.setter
    def migration_buffer_bytes(self, value: float) -> None:
        """Set the reserved buffer and invalidate the enumeration cache."""
        # The buffer reservation changes which configurations fit in memory,
        # so any cached enumeration is stale.
        self._migration_buffer_bytes = value
        self.invalidate_cache()

    @property
    def generation(self) -> int:
        """Bumped whenever the feasible space may have changed.

        Downstream memos (the controller's per-round estimate sweeps) key
        their validity on this counter.
        """
        return self._generation

    def invalidate_cache(self) -> None:
        """Drop memoised enumerations and memory fits (e.g. after mutating the memory model)."""
        self._feasible_cache.clear()
        self._fit_memo.clear()
        self._generation += 1

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def _pipeline_degrees(self, max_degree: int) -> List[int]:
        degrees = []
        for degree in range(1, max_degree + 1):
            if self.require_divisible_layers and self.model.num_layers % degree != 0:
                continue
            if degree > self.model.num_layers:
                break
            degrees.append(degree)
        return degrees

    def feasible_configs(self, num_instances: int) -> List[ParallelConfig]:
        """Every memory-feasible configuration on *num_instances* instances.

        The enumeration is memoised per fleet size and each memory-model
        check once per ``(P, M, B)``; both caches are dropped whenever
        ``migration_buffer_bytes`` or a cache-sensitive attribute changes.
        A fresh list is returned so callers may mutate it freely.
        """
        if num_instances <= 0:
            return []
        cached = self._feasible_cache.get(num_instances)
        if cached is not None:
            return list(cached)
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
        self._feasible_cache[num_instances] = configs
        return list(configs)

    def max_gpus(self, num_instances: int) -> int:
        """GPUs available on *num_instances* instances."""
        return num_instances * self.gpus_per_instance

    def _fits(self, pipeline_degree: int, tensor_degree: int, batch_size: int) -> bool:
        """Memoised memory fit of one ``(P, M, B)``; it depends on neither D nor N."""
        key = (pipeline_degree, tensor_degree, batch_size)
        fit = self._fit_memo.get(key)
        if fit is None:
            fit = self._fit_memo[key] = self.memory_model.fits(
                pipeline_degree,
                tensor_degree,
                batch_size,
                migration_buffer_bytes=self.migration_buffer_bytes,
            )
        return fit

    def fits(self, config: ParallelConfig) -> bool:
        """Memory feasibility of *config* (independent of fleet size)."""
        return config.is_compatible_with(self.model) and self._fits(
            config.pipeline_degree, config.tensor_degree, config.batch_size
        )
