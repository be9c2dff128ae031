"""LLM workload substrate.

* :mod:`repro.models.opt` — OPT family configurations and GEMM workloads for
  the hardware models.
* :mod:`repro.models.tokenizer`, :mod:`repro.models.dataset` — word tokenizer
  and the synthetic WikiText-like corpus.
* :mod:`repro.models.transformer` — a trainable NumPy decoder-only
  transformer LM (forward + backward).
* :mod:`repro.models.training` — Adam optimiser and the LM training loop.
* :mod:`repro.models.quantized_model` — weight quantization + functional-
  engine inference for the trained LM.
* :mod:`repro.models.perplexity` — perplexity evaluation (Table IV/VI,
  Fig. 17 accuracy axis).
"""

from repro.models.opt import (
    OPTConfig,
    OPT_CONFIGS,
    opt_config,
    decoder_gemm_shapes,
    total_weight_count,
)
from repro.models.tokenizer import WordTokenizer
from repro.models.dataset import (
    SyntheticCorpusConfig,
    generate_corpus,
    split_corpus,
    batchify,
)
from repro.models.transformer import (
    CacheOverflowError,
    OutOfPagesError,
    PagedKVCache,
    PagePool,
    TransformerConfig,
    TransformerLM,
    cross_entropy,
    softmax,
)
from repro.models.training import AdamOptimizer, TrainingConfig, train_language_model
from repro.models.quantized_model import (
    GenerationResult,
    QuantizationRecipe,
    recipe_from_mixed_precision,
    QuantizedLM,
    quantize_model_weights,
)
from repro.models.perplexity import PerplexityResult, evaluate_perplexity

__all__ = [
    "OPTConfig",
    "OPT_CONFIGS",
    "opt_config",
    "decoder_gemm_shapes",
    "total_weight_count",
    "WordTokenizer",
    "SyntheticCorpusConfig",
    "generate_corpus",
    "split_corpus",
    "batchify",
    "CacheOverflowError",
    "OutOfPagesError",
    "PagedKVCache",
    "PagePool",
    "TransformerConfig",
    "TransformerLM",
    "cross_entropy",
    "softmax",
    "AdamOptimizer",
    "TrainingConfig",
    "train_language_model",
    "GenerationResult",
    "QuantizationRecipe",
    "recipe_from_mixed_precision",
    "QuantizedLM",
    "quantize_model_weights",
    "PerplexityResult",
    "evaluate_perplexity",
]
