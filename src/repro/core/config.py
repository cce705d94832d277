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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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


class ConfigTable(NamedTuple):
    """Every memory-fitting ``(P, M, B)`` row of a space, independent of fleet size.

    Rows run in enumeration order (``M`` outer, then ``P``, then ``B``) and
    are grouped by ``(M, P)``; the per-fleet view expands each group over
    the data degrees a fleet can hold.  Only groups with at least one
    fitting batch size are listed.
    """

    pipeline_degree: np.ndarray
    tensor_degree: np.ndarray
    batch_size: np.ndarray
    group_size: np.ndarray  # fitting batch sizes (consecutive rows) per (M, P) group
    group_gpus: np.ndarray  # P * M of the group


class FeasibleView(NamedTuple):
    """The feasible configurations on one fleet size, as columns in enumeration order."""

    rows: np.ndarray  # row of the ConfigTable each configuration expands
    data_degree: np.ndarray
    pipeline_degree: np.ndarray
    tensor_degree: np.ndarray
    batch_size: np.ndarray


class ConfigurationSpace:
    """Enumerates candidate configurations for a model on a GPU fleet.

    The memory-fitting ``(P, M, B)`` rows are enumerated once per
    :attr:`generation` (:meth:`table`); every fleet size reads an
    order-preserving view of them (:meth:`feasible`).
    """

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
        for name, values in (("batch_sizes", batch_sizes), ("tensor_degrees", tensor_degrees)):
            if not values or min(values) <= 0:
                raise ValueError(f"{name} must be non-empty and positive")
        if gpus_per_instance <= 0:
            raise ValueError("gpus_per_instance must be positive")
        if max_data_degree <= 0:
            raise ValueError("max_data_degree must be positive")
        self.model = model
        self.memory_model = memory_model or MemoryModel(model)
        self.batch_sizes = tuple(sorted(set(batch_sizes)))
        self.tensor_degrees = tuple(sorted(set(tensor_degrees)))
        self.gpus_per_instance = gpus_per_instance
        self.max_data_degree = max_data_degree
        self._table: Optional[ConfigTable] = None
        self._generation = 0
        self.migration_buffer_bytes = migration_buffer_bytes
        self.require_divisible_layers = require_divisible_layers

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    #: Attributes whose mutation changes which configurations are feasible;
    #: assigning any of them after construction drops the table.
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
        if name in self._CACHE_SENSITIVE and "_table" in self.__dict__:
            self.invalidate_cache()

    @property
    def migration_buffer_bytes(self) -> float:
        """Per-instance migration buffer reserved by the memory check."""
        return self._migration_buffer_bytes

    @migration_buffer_bytes.setter
    def migration_buffer_bytes(self, value: float) -> None:
        """Set the reserved buffer and invalidate the table."""
        # The buffer reservation changes which configurations fit in memory,
        # so the table is stale.
        self._migration_buffer_bytes = value
        self.invalidate_cache()

    @property
    def generation(self) -> int:
        """Bumped whenever the feasible space may have changed.

        Downstream memos (the controller's cost columns and fleet views)
        key their validity on this counter.
        """
        return self._generation

    def invalidate_cache(self) -> None:
        """Drop the table (e.g. after mutating the memory model)."""
        self._table = None
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

    def table(self) -> ConfigTable:
        """The memory-fitting ``(P, M, B)`` rows, built once per generation.

        ``P`` runs up to the layer count, the largest degree any fleet can
        use; a fleet's GPU budget only decides which groups its view keeps.
        """
        if self._table is not None:
            return self._table
        rows: List[Tuple[int, int, int]] = []
        sizes: List[int] = []
        gpus: List[int] = []
        for tensor_degree in self.tensor_degrees:
            if self.model.num_heads % tensor_degree != 0:
                continue
            for pipeline_degree in self._pipeline_degrees(self.model.num_layers):
                fitting = [
                    (pipeline_degree, tensor_degree, batch_size)
                    for batch_size in self.batch_sizes
                    if self._fits(pipeline_degree, tensor_degree, batch_size)
                ]
                if fitting:
                    sizes.append(len(fitting))
                    gpus.append(pipeline_degree * tensor_degree)
                    rows.extend(fitting)
        pipeline, tensor, batch = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        self._table = ConfigTable(
            pipeline,
            tensor,
            batch,
            np.array(sizes, dtype=np.int64),
            np.array(gpus, dtype=np.int64),
        )
        return self._table

    def feasible(self, num_instances: int) -> FeasibleView:
        """Every memory-feasible configuration on *num_instances* instances.

        The order-preserving subsequence of the table with
        ``D * P * M <= num_instances * gpus_per_instance``: each ``(M, P)``
        group expands ``D = 1 .. min(max_data_degree, GPUs // (P * M))``,
        and each ``D`` the group's batch rows, so configurations come out in
        the ``(M, P, D, B)`` nesting that tie-breaking relies on.
        """
        table = self.table()
        max_gpus = max(num_instances, 0) * self.gpus_per_instance
        max_data = np.minimum(self.max_data_degree, max_gpus // table.group_gpus)
        # One block per (group, D) ...
        block_group = np.repeat(np.arange(len(max_data)), max_data)
        block_data = _ranks(max_data) + 1
        # ... and one configuration per (group, D, B).
        group_start = np.cumsum(table.group_size) - table.group_size
        sizes = table.group_size[block_group]
        rows = np.repeat(group_start[block_group], sizes) + _ranks(sizes)
        return FeasibleView(
            rows,
            np.repeat(block_data, sizes),
            table.pipeline_degree[rows],
            table.tensor_degree[rows],
            table.batch_size[rows],
        )

    def feasible_configs(self, num_instances: int) -> List[ParallelConfig]:
        """:meth:`feasible` as a fresh list of :class:`ParallelConfig`."""
        view = self.feasible(num_instances)
        return [
            ParallelConfig(*config)
            for config in zip(
                view.data_degree.tolist(),
                view.pipeline_degree.tolist(),
                view.tensor_degree.tolist(),
                view.batch_size.tolist(),
            )
        ]

    def max_gpus(self, num_instances: int) -> int:
        """GPUs available on *num_instances* instances."""
        return num_instances * self.gpus_per_instance

    def _fits(self, pipeline_degree: int, tensor_degree: int, batch_size: int) -> bool:
        """Memory fit of one ``(P, M, B)``; it depends on neither D nor N."""
        return self.memory_model.fits(
            pipeline_degree,
            tensor_degree,
            batch_size,
            migration_buffer_bytes=self.migration_buffer_bytes,
        )

    def fits(self, config: ParallelConfig) -> bool:
        """Memory feasibility of *config* (independent of fleet size)."""
        return config.is_compatible_with(self.model) and self._fits(
            config.pipeline_degree, config.tensor_degree, config.batch_size
        )


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. count - 1`` for each entry of *counts*, concatenated."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
