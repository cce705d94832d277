"""Scalar per-token cost model: the reference for the vectorised decode sum.

``ScalarLatencyModel`` is the latency model as it was before the decode sum
was vectorised: one Python call per decoded token, accumulated with ``+=``.
It shares every building block (prefill, all-reduce, hand-off, calibration
flow) with :class:`repro.llm.costmodel.LatencyModel` and overrides only the
decode terms, so a bit-for-bit comparison of the two pins the vectorised
helper alone.
"""

from __future__ import annotations

from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, LatencyModel, _check_parallelism


class ScalarLatencyModel(LatencyModel):
    """:class:`LatencyModel` with the per-token scalar decode loop."""

    def _decode_iteration_raw(
        self,
        context_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        _check_parallelism(pipeline_degree, tensor_degree, batch_size)
        layers_per_stage = self.model.num_layers / pipeline_degree
        # Weight streaming: every resident parameter is read once per token.
        weight_bytes_per_gpu = (
            self.model.num_layers * self.model.layer_param_bytes
            + self.model.embedding_params * self.model.bytes_per_param
        ) / (pipeline_degree * tensor_degree)
        memory_time_per_stage = weight_bytes_per_gpu / (
            self.gpu.memory_bandwidth * self.params.memory_efficiency
        )
        # Compute lower bound (per stage, per GPU).
        flops_per_stage = (
            batch_size
            * self.model.flops_per_token(context_length)
            * (layers_per_stage / self.model.num_layers)
            / tensor_degree
        )
        peak = self._decode_peak_flops()
        compute_time_per_stage = flops_per_stage / (
            peak * self.params.decode_compute_efficiency
        )
        stage_time = max(memory_time_per_stage, compute_time_per_stage)
        # Two all-reduces per layer (attention output + FFN output).
        allreduce = 2.0 * layers_per_stage * self._allreduce_time(
            self._activation_bytes(batch_size), tensor_degree
        )
        per_stage = stage_time + allreduce
        handoff = self._pipeline_handoff_time(
            self._activation_bytes(batch_size), pipeline_degree
        )
        return pipeline_degree * per_stage + handoff + self.params.per_iteration_overhead

    def _uncalibrated_l_exe(
        self,
        output_length: int,
        input_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        prefill = self._prefill_raw(input_length, pipeline_degree, tensor_degree, batch_size)
        decode = 0.0
        for i in range(1, output_length + 1):
            decode += self._decode_iteration_raw(
                input_length + i, pipeline_degree, tensor_degree, batch_size
            )
        return prefill + decode + self.params.per_request_overhead

    def decode_iteration_time(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        context_length: int = DEFAULT_INPUT_LENGTH,
    ) -> float:
        """Latency of one incremental decoding iteration, ``t_exe(1)`` in Eq. (2)."""
        return self._calibration * self._decode_iteration_raw(
            context_length, pipeline_degree, tensor_degree, batch_size
        )
