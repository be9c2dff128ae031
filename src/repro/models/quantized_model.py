"""Quantized inference: route the LM's weight GEMMs through functional engines.

This is the glue between the accuracy substrate and the datapath models: a
:class:`QuantizedLM` holds, for every weight matrix of a trained
:class:`~repro.models.transformer.TransformerLM`, a quantized representation
(uniform or BCQ, possibly with per-layer mixed precision) and a functional
GEMM engine, and exposes a ``matmul`` hook that the transformer's forward
pass calls instead of ``x @ W.T``.  Under the FIGLUT-F engine that hook runs
each layer's memoised compiled LUT program — the one the decode stack and
the serving pool run — at the engine's activation and accumulator formats.

Running the model through different engines with the same quantized weights
reproduces Table IV (engine numerics); running it with different quantizers /
bit widths reproduces Table VI and the accuracy axis of Fig. 17.

Incremental decoding rides the same glue: :meth:`QuantizedLM.prefill` and
:meth:`QuantizedLM.decode_step` thread a
:class:`~repro.models.transformer.PagedKVCache` through the transformer's
``step`` path with every weight GEMM executed on a
:class:`~repro.core.mpu.MatrixProcessingUnit` over memoised tile plans and
:class:`~repro.core.mpu.PreparedWeights` (attention score/context matmuls
stay float, as in the full forward), returning each pass's
:meth:`QuantizedLM.model_mpu_stats` at its column count, so the modelled
decode cost is plan-exact per emitted token, not a full prefill's.
:meth:`QuantizedLM.generate` is one request run through the serving
:class:`~repro.serve.scheduler.DecodeScheduler`, so solo and served
generations come from the same decode loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engines import FIGLUTFloatEngine, GEMMEngine, make_engine
from repro.core.mpu import (
    MatrixProcessingUnit,
    MPUConfig,
    MPURunStats,
    PreparedWeights,
)
from repro.quant.bcq import BCQConfig, BCQTensor, quantize_bcq, uniform_to_bcq
from repro.quant.optq import OPTQConfig, quantize_optq
from repro.quant.rtn import RTNConfig, UniformQuantizedTensor, quantize_rtn
from repro.quant.mixed_precision import MixedPrecisionPlan
from repro.quant.shiftadd import ShiftAddConfig, quantize_shiftadd
from repro.models.transformer import PagedKVCache, TransformerLM

__all__ = ["QuantizationRecipe", "QuantizedLM", "GenerationResult",
           "quantize_model_weights",
           "capture_calibration_activations", "recipe_from_mixed_precision"]


@dataclass(frozen=True)
class QuantizationRecipe:
    """How to quantize the LM's weight matrices.

    Attributes
    ----------
    method:
        ``"rtn"`` (uniform round-to-nearest), ``"optq"`` (uniform with
        OPTQ second-order error compensation, needs calibration),
        ``"bcq"`` (alternating-optimization BCQ with offset) or
        ``"shiftadd"`` (BCQ with activation-aware error compensation when
        calibration data is given).
    bits:
        Default bit width for every layer.
    bits_per_layer:
        Optional per-layer override (mixed precision); keys are weight names.
    group_size:
        Scale group size (``None`` = per output channel).
    """

    method: str = "rtn"
    bits: int = 4
    bits_per_layer: dict[str, int] | None = None
    group_size: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("rtn", "optq", "bcq", "shiftadd"):
            raise ValueError("method must be 'rtn', 'optq', 'bcq' or 'shiftadd'")
        if self.bits < 1:
            raise ValueError("bits must be >= 1")

    def bits_for(self, name: str) -> int:
        if self.bits_per_layer and name in self.bits_per_layer:
            return self.bits_per_layer[name]
        return self.bits


def recipe_from_mixed_precision(plan: MixedPrecisionPlan, method: str = "bcq",
                                group_size: int | None = None) -> QuantizationRecipe:
    """Turn a :class:`~repro.quant.mixed_precision.MixedPrecisionPlan` into a
    quantization recipe.

    The allocator's per-layer plane counts become ``bits_per_layer``; every
    layer then quantizes at its own width, so each resulting
    :class:`~repro.quant.bcq.BCQTensor` carries the matching
    ``per_row_bits`` and :meth:`QuantizedLM.layer_mpu_stats` /
    the plan-driven traffic models cost the mixed (Q2.4-style) model
    cycle-accurately rather than at the padded plane-array depth.
    """
    bits_per_layer = dict(plan.bits_per_layer)
    if not bits_per_layer:
        raise ValueError("mixed-precision plan allocates no layers")
    if method not in ("bcq", "shiftadd"):
        raise ValueError("mixed-precision recipes require a BCQ method "
                         "('bcq' or 'shiftadd')")
    return QuantizationRecipe(method=method, bits=min(bits_per_layer.values()),
                              bits_per_layer=bits_per_layer, group_size=group_size)


def quantize_model_weights(model: TransformerLM, recipe: QuantizationRecipe,
                           calibration: dict[str, np.ndarray] | None = None
                           ) -> dict[str, UniformQuantizedTensor | BCQTensor]:
    """Quantize every weight GEMM matrix of the model according to the recipe."""
    quantized: dict[str, UniformQuantizedTensor | BCQTensor] = {}
    for name in model.weight_matrix_names():
        weight = model.params[name]
        bits = recipe.bits_for(name)
        calib = calibration.get(name) if calibration else None
        if recipe.method == "rtn":
            granularity = "group" if recipe.group_size else "channel"
            quantized[name] = quantize_rtn(weight, RTNConfig(
                bits=bits, granularity=granularity,
                group_size=recipe.group_size or 128))
        elif recipe.method == "optq":
            if calib is None:
                raise ValueError(f"OPTQ requires calibration activations for {name!r}")
            quantized[name] = quantize_optq(weight, calib, OPTQConfig(bits=bits))
        elif recipe.method == "bcq":
            quantized[name] = quantize_bcq(weight, BCQConfig(
                bits=bits, group_size=recipe.group_size, iterations=5))
        else:  # shiftadd
            quantized[name] = quantize_shiftadd(weight, calib, ShiftAddConfig(
                bits=bits, group_size=recipe.group_size))
    return quantized


def capture_calibration_activations(model: TransformerLM, tokens: np.ndarray,
                                    max_samples: int = 512,
                                    seed: int = 0) -> dict[str, np.ndarray]:
    """Record the inputs feeding every weight GEMM during one forward pass.

    The returned mapping (weight name → activations of shape
    ``(n_samples, in_features)``) is the calibration set used by OPTQ and
    ShiftAddLLM-style quantization.
    """
    captured: dict[str, list[np.ndarray]] = {}

    def hook(name, x, w):
        flat = x.reshape(-1, x.shape[-1])
        captured.setdefault(name, []).append(flat)
        return x @ w.T

    model.forward(np.asarray(tokens, dtype=np.int64), matmul=hook)
    rng = np.random.default_rng(seed)
    result: dict[str, np.ndarray] = {}
    for name in model.weight_matrix_names():
        if name not in captured:
            continue
        stacked = np.concatenate(captured[name], axis=0)
        if stacked.shape[0] > max_samples:
            idx = rng.choice(stacked.shape[0], size=max_samples, replace=False)
            stacked = stacked[idx]
        result[name] = stacked
    return result


@dataclass(frozen=True)
class GenerationResult:
    """One greedy autoregressive generation and its plan-exact decode cost.

    Attributes
    ----------
    tokens:
        The generated tokens (prompt excluded), in order.  The first entry
        comes from the prefill logits, the rest from single-token decode
        steps.
    finish_reason:
        ``"eos"`` or ``"length"``.
    mpu_stats:
        Modelled MPU counters of every pass the generation ran: the
        prefill (flat batch = prompt positions) plus one flat-batch-1
        decode step per further token, so the decode cost provably scales
        per emitted token.
    """

    tokens: np.ndarray
    finish_reason: str
    mpu_stats: MPURunStats


@dataclass
class QuantizedLM:
    """A trained LM whose weight GEMMs run on a functional engine.

    Use :meth:`matmul` as the transformer's ``matmul`` hook, or call
    :meth:`evaluate_loss` directly.
    """

    model: TransformerLM
    quantized_weights: dict[str, UniformQuantizedTensor | BCQTensor]
    engine: GEMMEngine
    _bcq_converted: dict[str, BCQTensor] = field(default_factory=dict)
    _plans: dict[MPUConfig, dict[str, object]] = field(default_factory=dict,
                                                         repr=False)
    _prepared: dict[MPUConfig, dict[str, PreparedWeights]] = field(
        default_factory=dict, repr=False)
    _model_affine: dict[MPUConfig, tuple[tuple[int, ...], tuple[int, ...]]] = \
        field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, model: TransformerLM, recipe: QuantizationRecipe,
              engine: GEMMEngine | str = "figlut-f",
              calibration: dict[str, np.ndarray] | None = None,
              **engine_kwargs) -> QuantizedLM:
        """Quantize the model and attach an engine (by instance or name)."""
        quantized = quantize_model_weights(model, recipe, calibration)
        if isinstance(engine, str):
            engine = make_engine(engine, **engine_kwargs)
        return cls(model=model, quantized_weights=quantized, engine=engine)

    def _bcq_view(self, name: str) -> BCQTensor:
        """The layer's weights as BCQ, converted at most once per layer.

        One shared memo serves both the engine dispatch and the analytic
        stats path, so a uniform tensor is never converted (nor its
        bit-planes duplicated) twice.
        """
        cached = self._bcq_converted.get(name)
        if cached is None:
            tensor = self.quantized_weights[name]
            cached = tensor if isinstance(tensor, BCQTensor) else uniform_to_bcq(tensor)
            self._bcq_converted[name] = cached
        return cached

    def _weights_for_engine(self, name: str):
        """The layer's weights in the form the engine consumes.

        FIGLUT-F runs the layer's memoised :meth:`prepared_weights` program
        (at the default µ, the very one a serving pool pins); the other BCQ
        engines get the :meth:`_bcq_view`; INT-only engines the uniform
        tensor.
        """
        if isinstance(self.engine, FIGLUTFloatEngine):
            return self.prepared_weights(MPUConfig(mu=self.engine.mu))[name]
        if self.engine.supports_bcq:
            return self._bcq_view(name)
        tensor = self.quantized_weights[name]
        if isinstance(tensor, BCQTensor):
            raise TypeError(
                f"engine {self.engine.name!r} cannot consume BCQ weights for {name!r}")
        return tensor

    def layer_mpu_stats(self, name: str, batch: int,
                        mpu_config: MPUConfig | None = None) -> MPURunStats:
        """Analytic MPU run counters for one weight GEMM of the model.

        Uses the tile-execution planner (no activation data needed), so a
        whole model's cycle/energy footprint can be costed without running
        it.  A uniform tensor is converted to BCQ at most once per layer,
        through the same memo the engine dispatch uses, and the plan is
        memoised per MPU geometry (see :meth:`layer_plan`).
        """
        cfg = mpu_config or MPUConfig()
        return MatrixProcessingUnit(cfg).stats_from_plan(
            self.layer_plan(name, cfg), batch)

    def layer_plan(self, name: str, mpu_config: MPUConfig | None = None):
        """The layer's :class:`~repro.core.dataflow.TileExecutionPlan`.

        Carries the layer's ``per_row_bits``, so the plan-driven memory/
        performance models (:meth:`repro.hw.memory.MemorySystemModel.
        traffic_for_plan`, ``evaluate_workload(..., plans=...)``) cost a
        mixed-precision model from its actual schedule.  Plans are memoised
        per MPU geometry — weights never change after quantization, so
        repeated cost queries (and every decode step) skip re-planning.
        """
        if name not in self.quantized_weights:
            raise KeyError(f"{name!r} is not a quantized weight matrix")
        cfg = mpu_config or MPUConfig()
        plans = self._plans.setdefault(cfg, {})
        plan = plans.get(name)
        if plan is None:
            plan = MatrixProcessingUnit(cfg).plan(self._bcq_view(name))
            plans[name] = plan
        return plan

    def model_mpu_stats(self, batch: int,
                        mpu_config: MPUConfig | None = None) -> MPURunStats:
        """Summed analytic MPU counters over every quantized weight GEMM:
        the layers' affine ``(intercept, slope)`` sums, memoised per
        geometry from the plans (nothing is compiled)."""
        if batch < 0:
            raise ValueError("batch must be >= 0")
        cfg = mpu_config or MPUConfig()
        affine = self._model_affine.get(cfg)
        if affine is None:
            mpu = MatrixProcessingUnit(cfg)
            pairs = [mpu.affine_stats(self.layer_plan(name, cfg))
                     for name in self.quantized_weights]
            affine = (tuple(map(sum, zip(*(b for b, _ in pairs)))),
                      tuple(map(sum, zip(*(s for _, s in pairs)))))
            self._model_affine[cfg] = affine
        base, slope = affine
        return MPURunStats(*(b + s * batch
                             for b, s in zip(base, slope, strict=True)))

    # -- weight-stationary prepared state ---------------------------------
    def prepared_weights(self, mpu_config: MPUConfig | None = None
                         ) -> dict[str, PreparedWeights]:
        """Every layer's :class:`~repro.core.mpu.PreparedWeights`, memoised.

        This is the weight-stationary state (tile plan + compiled program) a
        serving worker keeps resident.  It is memoised per MPU geometry so
        the standalone decode path, repeated :meth:`generate` calls, and
        the serving pool (:class:`repro.serve.workers.ShardedMPUPool`, at
        any worker count) all share one prepared copy instead of
        re-planning and re-compiling per call.
        """
        cfg = mpu_config or MPUConfig()
        cached = self._prepared.get(cfg)
        if cached is None:
            mpu = MatrixProcessingUnit(cfg)
            cached = {name: mpu.prepare(self._bcq_view(name),
                                        plan=self.layer_plan(name, cfg))
                      for name in self.quantized_weights}
            self._prepared[cfg] = cached
        return cached

    def prepared_gemm(self, mpu_config: MPUConfig | None = None):
        """``gemm(name, flat) -> y`` over the prepared weights.

        The standalone (single-thread) twin of a serving pool's ``gemm``
        dispatch: activations of shape ``(in_features, batch)`` run each
        layer's memoised :class:`~repro.core.program.CompiledProgram`
        (:meth:`prepared_weights`) through
        :meth:`~repro.core.mpu.MatrixProcessingUnit.run`.  Bit-identical to
        a pool run of the same layer, inline or fanned out.
        """
        cfg = mpu_config or MPUConfig()
        prepared = self.prepared_weights(cfg)
        mpu = MatrixProcessingUnit(cfg)

        def gemm(name: str, flat: np.ndarray) -> np.ndarray:
            return mpu.run(prepared[name], flat)

        return gemm

    # -- incremental decoding ---------------------------------------------
    def prefill(self, tokens: np.ndarray, *, num_valid: np.ndarray | None = None,
                capacity: int | None = None,
                mpu_config: MPUConfig | None = None,
                gemm=None, cache=None) -> tuple[np.ndarray, PagedKVCache, MPURunStats]:
        """Run the prompt(s) through the cache-aware step path.

        ``tokens`` is ``(seq,)`` or ``(batch, seq)`` (right-padded when
        ``num_valid`` gives per-row valid counts).  Weight GEMMs run through
        ``gemm(name, flat) -> y`` — default: the memoised
        :meth:`prepared_gemm` — while attention stays float, exactly like
        the full forward.  Returns ``(logits, cache, stats)``: the pass's
        counters are :meth:`model_mpu_stats` at ``mpu_config`` (the
        geometry of ``gemm``) over its ``tokens.size`` columns.

        ``cache`` optionally supplies a cache over a shared page pool
        instead of a fresh :meth:`~repro.models.transformer.TransformerLM.
        init_cache`; rows carrying prefix-mapped pages arrive with nonzero
        lengths, and ``tokens`` then holds only the unshared suffixes.
        """
        arr = np.asarray(tokens, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("tokens must be (seq,) or (batch, seq), non-empty")
        hook = self.matmul_via(gemm or self.prepared_gemm(mpu_config))
        if cache is None:
            cache = self.model.init_cache(arr.shape[0], capacity=capacity)
        logits = self.model.step(arr, cache, matmul=hook, num_valid=num_valid)
        return logits, cache, self.model_mpu_stats(arr.size, mpu_config)

    def decode_step(self, tokens: np.ndarray, cache: PagedKVCache, *,
                    mpu_config: MPUConfig | None = None,
                    gemm=None) -> tuple[np.ndarray, MPURunStats]:
        """One stacked decode iteration: ``(batch, t_new)`` new tokens.

        Appends to ``cache`` and returns ``(logits, stats)``; the stats are
        the iteration's plan-exact counters (flat batch = ``batch × t_new``
        activation columns, independent of the cached sequence lengths),
        with ``gemm`` and ``mpu_config`` as in :meth:`prefill`.
        """
        arr = np.asarray(tokens, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[:, None]
        hook = self.matmul_via(gemm or self.prepared_gemm(mpu_config))
        logits = self.model.step(arr, cache, matmul=hook)
        return logits, self.model_mpu_stats(arr.size, mpu_config)

    def check_generation_request(self, tokens: np.ndarray,
                                 max_new_tokens: int) -> np.ndarray:
        """Validate one generation request; returns the prompt as int64.

        The single capacity rule of the decode scheduler (which solo
        :meth:`generate` runs too): a non-empty 1-D prompt
        whose cached length after ``max_new_tokens - 1`` decode steps still
        fits ``max_seq_len`` (the last token is never fed back).  A scoring
        request is checked as a one-token generation: its prompt must fit.
        """
        prompt = np.asarray(tokens, dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError("a prompt is a non-empty 1-D token sequence")
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        max_len = self.model.config.max_seq_len
        if prompt.size + max_new_tokens - 1 > max_len:
            raise ValueError(
                f"prompt ({prompt.size}) + max_new_tokens ({max_new_tokens}) "
                f"- 1 exceeds max_seq_len {max_len}")
        return prompt

    def generate(self, tokens: np.ndarray, max_new_tokens: int, *,
                 eos_token: int | None = None,
                 mpu_config: MPUConfig | None = None,
                 gemm=None) -> GenerationResult:
        """Greedy autoregressive generation for one prompt (KV-cached).

        Runs the request alone through a private
        :class:`~repro.serve.scheduler.DecodeScheduler`: the prompt
        prefills once, then up to ``max_new_tokens`` tokens come from
        single-position decode steps — O(1) engine work per token instead
        of the O(T) (and O(T²) attention) of re-running the full forward.
        Stops early when ``eos_token`` is produced (the EOS itself is
        included in the output).
        """
        from repro.serve.scheduler import DecodeScheduler  # models ↔ serve cycle
        self.check_generation_request(tokens, max_new_tokens)
        sched = DecodeScheduler(self, gemm=gemm, max_active=1,
                                mpu_config=mpu_config)
        seq = sched.submit(tokens, max_new_tokens, eos_token=eos_token)
        sched.run_until_idle()
        if seq.error is not None:
            raise seq.error
        return GenerationResult(tokens=seq.tokens,
                                finish_reason=seq.finish_reason,
                                mpu_stats=sched.metrics.mpu_stats)

    def bcq_views(self) -> dict[str, BCQTensor]:
        """BCQ view of every quantized weight matrix, keyed by layer name.

        The BCQ tensors :meth:`prepared_weights` and :meth:`layer_plan`
        prepare and plan; uniform tensors are converted at most once
        through the shared :meth:`_bcq_view` memo.
        """
        return {name: self._bcq_view(name) for name in self.quantized_weights}

    def matmul_via(self, gemm) -> callable:
        """A transformer ``matmul`` hook routing weight GEMMs through ``gemm``.

        ``gemm(name, flat)`` receives the layer name and activations of
        shape ``(in_features, batch)`` and returns ``(out_features,
        batch)`` — e.g. a serving pool's ``gemm`` in the :meth:`prefill` /
        :meth:`decode_step` passes, or the engine's GEMM in :meth:`matmul`.
        Matrices that were not quantized fall back to the dense product.
        """
        def hook(name: str, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
            if name not in self.quantized_weights:
                return x @ weight.T
            lead_shape = x.shape[:-1]
            flat = x.reshape(-1, x.shape[-1]).T  # (in_features, batch*seq)
            out = gemm(name, flat)               # (out_features, batch*seq)
            return out.T.reshape(*lead_shape, -1)
        return hook

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Forward-pass logits ``(batch, seq, vocab)`` through the engine."""
        logits, _ = self.model.forward(np.asarray(tokens, dtype=np.int64),
                                       matmul=self.matmul)
        return logits

    def matmul(self, name: str, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """The transformer forward hook: ``x @ W.T`` through the engine.

        :meth:`matmul_via` over the engine's GEMM, so matrices that were
        not quantized (embeddings) fall back to the dense weight.
        """
        return self.matmul_via(self._engine_gemm)(name, x, weight)

    def _engine_gemm(self, name: str, flat: np.ndarray) -> np.ndarray:
        return self.engine.gemm(self._weights_for_engine(name), flat)

    def evaluate_loss(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """Mean cross-entropy of the quantized model on one batch."""
        return self.model.evaluate_loss(tokens, targets, matmul=self.matmul)

    def dequantized_loss(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """Loss using dequantized weights with exact float64 GEMMs (no engine)."""
        def mm(name, x, w):
            if name not in self.quantized_weights:
                return x @ w.T
            return x @ self.quantized_weights[name].dequantize().T
        return self.model.evaluate_loss(tokens, targets, matmul=mm)
