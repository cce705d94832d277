"""Scalar per-token cost model: the reference for the batched cost model.

``ScalarLatencyModel`` is the latency model as it was before it was
vectorised: one Python call per configuration and per decoded token,
accumulated with ``+=``, on scalar building blocks (all-reduce, hand-off,
prefill).  It keeps only the constructor, calibration flow and peak-FLOP
choice of :class:`repro.llm.costmodel.LatencyModel`, so a bit-for-bit
comparison of the two pins the batched ``(P, M, B)``-row evaluation.
"""

from __future__ import annotations

from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel


def _check_parallelism(pipeline_degree: int, tensor_degree: int, batch_size: int) -> None:
    if pipeline_degree <= 0 or tensor_degree <= 0:
        raise ValueError("parallel degrees must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")


class ScalarLatencyModel(LatencyModel):
    """:class:`LatencyModel` evaluated one configuration and one token at a time."""

    def _collective_bandwidth(self, tensor_degree: int) -> float:
        """Effective per-GPU bandwidth for all-reduce within a tensor group."""
        if tensor_degree <= self.params.gpus_per_instance:
            raw = self.network.intra_instance_bandwidth
        else:
            raw = self.network.inter_instance_bandwidth
        return raw * self.params.collective_efficiency

    def _allreduce_time(self, payload_bytes: float, tensor_degree: int) -> float:
        """Ring all-reduce time for *payload_bytes* across *tensor_degree* GPUs."""
        if tensor_degree <= 1 or payload_bytes <= 0:
            return 0.0
        bandwidth = self._collective_bandwidth(tensor_degree)
        ring_factor = 2.0 * (tensor_degree - 1) / tensor_degree
        if tensor_degree <= self.params.gpus_per_instance:
            latency = self.params.collective_latency_intra
        else:
            latency = self.params.collective_latency_inter
        return ring_factor * payload_bytes / bandwidth + latency

    def _pipeline_handoff_time(self, payload_bytes: float, pipeline_degree: int) -> float:
        """Cross-stage activation transfer cost for one traversal of the pipeline."""
        if pipeline_degree <= 1 or payload_bytes <= 0:
            return 0.0
        hops = pipeline_degree - 1
        return hops * (
            payload_bytes / self.network.inter_instance_bandwidth
            + self.network.per_transfer_latency
        )

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

    def _prefill_raw(
        self,
        input_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        _check_parallelism(pipeline_degree, tensor_degree, batch_size)
        if input_length <= 0:
            return 0.0
        total_flops = (
            batch_size
            * 2.0
            * self.model.total_params
            * input_length
        )
        peak = self._decode_peak_flops()
        compute_time = total_flops / (
            pipeline_degree
            * tensor_degree
            * peak
            * self.params.prefill_compute_efficiency
        )
        layers = self.model.num_layers
        allreduce = 2.0 * layers * self._allreduce_time(
            self._activation_bytes(batch_size, input_length), tensor_degree
        )
        handoff = self._pipeline_handoff_time(
            self._activation_bytes(batch_size, input_length), pipeline_degree
        )
        return compute_time + allreduce + handoff

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

    def prefill_time(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        input_length: int = DEFAULT_INPUT_LENGTH,
    ) -> float:
        """Latency of the initial phase over the prompt, ``t_exe(S_in)`` in Eq. (1)."""
        return self._calibration * self._prefill_raw(
            input_length, pipeline_degree, tensor_degree, batch_size
        )

    def l_exe(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        input_length: int = DEFAULT_INPUT_LENGTH,
        output_length: int = DEFAULT_OUTPUT_LENGTH,
    ) -> float:
        """End-to-end execution latency ``l_exe(S_out | S_in)`` of Eq. (1)."""
        return self._calibration * self._uncalibrated_l_exe(
            output_length, input_length, pipeline_degree, tensor_degree, batch_size
        )
