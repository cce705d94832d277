"""Offline profiler: pre-computes latency/throughput tables per configuration.

The paper notes that SpotServe's adaptive optimizer runs online with
negligible overhead because "the latency estimation of different
configurations is done offline in advance".  :class:`OfflineProfiler` plays
that role here: it sweeps every candidate configuration once, evaluates the
analytic :class:`~repro.llm.costmodel.LatencyModel`, and exposes cached
lookups that the controller then queries in O(1).  The controller profiles
its whole search space through :meth:`OfflineProfiler.latency_table`, one
batched evaluation per configuration-space generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel
from .memory import MemoryModel

ConfigKey = Tuple[int, int, int, int]  # (D, P, M, B)


@dataclass(frozen=True)
class ProfileEntry:
    """Cached performance numbers for one parallel configuration."""

    data_degree: int
    pipeline_degree: int
    tensor_degree: int
    batch_size: int
    latency: float
    prefill_time: float
    decode_iteration_time: float
    throughput: float
    fits_memory: bool

    @property
    def num_gpus(self) -> int:
        """GPUs used by this configuration."""
        return self.data_degree * self.pipeline_degree * self.tensor_degree

    @property
    def key(self) -> ConfigKey:
        """Tuple key ``(D, P, M, B)``."""
        return (
            self.data_degree,
            self.pipeline_degree,
            self.tensor_degree,
            self.batch_size,
        )


class OfflineProfiler:
    """Sweeps candidate configurations and caches their cost-model estimates."""

    def __init__(
        self,
        latency_model: LatencyModel,
        memory_model: Optional[MemoryModel] = None,
        input_length: int = DEFAULT_INPUT_LENGTH,
        output_length: int = DEFAULT_OUTPUT_LENGTH,
        migration_buffer_bytes: float = 0.0,
    ) -> None:
        self.latency_model = latency_model
        self.memory_model = memory_model or MemoryModel(latency_model.model, latency_model.gpu)
        self.input_length = input_length
        self.output_length = output_length
        self.migration_buffer_bytes = migration_buffer_bytes
        self._cache: Dict[ConfigKey, ProfileEntry] = {}
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic counter bumped whenever cached profiles are invalidated.

        Downstream memos (the parallelization controller's estimate cache)
        key their validity on this counter, so a ``clear()`` -- e.g. after
        changing sequence lengths -- transparently invalidates them too.
        """
        return self._generation

    def profile(
        self,
        data_degree: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> ProfileEntry:
        """Return (and cache) the profile entry for one configuration."""
        key = (data_degree, pipeline_degree, tensor_degree, batch_size)
        if key in self._cache:
            return self._cache[key]
        latency = self.latency_model.l_exe(
            pipeline_degree,
            tensor_degree,
            batch_size,
            self.input_length,
            self.output_length,
        )
        entry = ProfileEntry(
            data_degree=data_degree,
            pipeline_degree=pipeline_degree,
            tensor_degree=tensor_degree,
            batch_size=batch_size,
            latency=latency,
            prefill_time=self.latency_model.prefill_time(
                pipeline_degree, tensor_degree, batch_size, self.input_length
            ),
            decode_iteration_time=self.latency_model.decode_iteration_time(
                pipeline_degree, tensor_degree, batch_size, self.input_length
            ),
            throughput=self.latency_model.throughput(
                data_degree,
                pipeline_degree,
                tensor_degree,
                batch_size,
                self.input_length,
                self.output_length,
            ),
            fits_memory=self.memory_model.fits(
                pipeline_degree,
                tensor_degree,
                batch_size,
                migration_buffer_bytes=self.migration_buffer_bytes,
            ),
        )
        self._cache[key] = entry
        return entry

    def latency_table(self, pipeline_degrees, tensor_degrees, batch_sizes) -> np.ndarray:
        """``l_exe`` of every ``(P, M, B)`` row at the profiled sequence lengths.

        One batched cost-model evaluation; each element equals the
        :attr:`ProfileEntry.latency` that :meth:`profile` records for the row.
        """
        return self.latency_model.l_exe_table(
            pipeline_degrees,
            tensor_degrees,
            batch_sizes,
            self.input_length,
            self.output_length,
        )

    def sweep(
        self,
        max_gpus: int,
        batch_sizes: Iterable[int] = (1, 2, 4, 8),
        gpus_per_instance: int = 4,
    ) -> List[ProfileEntry]:
        """Profile every feasible configuration using up to *max_gpus* GPUs."""
        if max_gpus <= 0:
            raise ValueError("max_gpus must be positive")
        entries: List[ProfileEntry] = []
        batch_sizes = sorted(set(batch_sizes))
        for data_degree in range(1, max_gpus + 1):
            for pipeline_degree in range(1, max_gpus + 1):
                if self.latency_model.model.num_layers % pipeline_degree != 0:
                    continue
                for tensor_degree in (1, 2, 4, 8, 16):
                    gpus = data_degree * pipeline_degree * tensor_degree
                    if gpus > max_gpus:
                        continue
                    if self.latency_model.model.num_heads % tensor_degree != 0:
                        continue
                    for batch_size in batch_sizes:
                        entry = self.profile(
                            data_degree, pipeline_degree, tensor_degree, batch_size
                        )
                        if entry.fits_memory:
                            entries.append(entry)
        return entries

    def cached_entries(self) -> List[ProfileEntry]:
        """All entries profiled so far."""
        return list(self._cache.values())

    def clear(self) -> None:
        """Drop the cache (e.g. after changing sequence lengths)."""
        self._cache.clear()
        self._generation += 1
