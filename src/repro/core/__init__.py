"""FIGLUT core: LUT-based FP-INT GEMM.

This package implements the paper's primary contribution:

* :mod:`repro.core.lut` — LUT construction, the conflict-free FFLUT, and the
  half-size hFFLUT with its sign-flip decoder.
* :mod:`repro.core.lut_generator` — the shared-partial-sum LUT generator and
  its adder accounting.
* :mod:`repro.core.rac`, :mod:`repro.core.pe` — the read-accumulate unit and
  the processing element (one shared LUT + k RACs).
* :mod:`repro.core.dataflow`, :mod:`repro.core.mpu` — weight-stationary
  tiling with bit-plane-innermost ordering, the scale-group-aligned tile
  execution planner, and the MPU with its scalar reference walk (the
  oracle).
* :mod:`repro.core.program` — the plan compiler: lowers a tile-execution
  plan to a flat :class:`~repro.core.program.CompiledProgram` (concatenated
  LUT-key/scale buffers), the MPU's one
  executor, which replays the plan bit-identically to the scalar
  reference.
* :mod:`repro.core.engines` — functional GEMM engines with the numerics of
  FPE, iFPU, FIGNA, FIGLUT-F and FIGLUT-I.
* :mod:`repro.core.gemm` — the high-level ``prepare_weights`` /
  ``figlut_gemm`` API.
"""

from repro.core.lut import (
    FFLUT,
    HalfFFLUT,
    build_lut_values,
    build_lut_tables,
    lut_table_rows,
    pattern_to_key,
    key_to_pattern,
)
from repro.core.lut_generator import (
    LUTGenerator,
    LUTGeneratorStats,
    generate_full_lut,
    generate_half_lut,
    generator_addition_count,
    naive_addition_count,
)
from repro.core.rac import RAC
from repro.core.pe import ProcessingElement, PEStats
from repro.core.dataflow import (
    TilingConfig,
    ColumnSegment,
    RowBand,
    TileStep,
    TileExecutionPlan,
    plan_bcq_tile_execution,
)
from repro.core.mpu import MPUConfig, MPURunStats, MatrixProcessingUnit
from repro.core.program import CompiledProgram, PlanePass, compile_plan
from repro.core.engines import (
    EngineStats,
    GEMMEngine,
    FPEngine,
    IFPUEngine,
    FIGNAEngine,
    FIGLUTFloatEngine,
    FIGLUTIntEngine,
    available_engines,
    make_engine,
)
from repro.core.gemm import prepare_weights, figlut_gemm, reference_gemm

__all__ = [
    "FFLUT",
    "HalfFFLUT",
    "build_lut_values",
    "build_lut_tables",
    "lut_table_rows",
    "pattern_to_key",
    "key_to_pattern",
    "LUTGenerator",
    "LUTGeneratorStats",
    "generate_full_lut",
    "generate_half_lut",
    "generator_addition_count",
    "naive_addition_count",
    "RAC",
    "ProcessingElement",
    "PEStats",
    "TilingConfig",
    "ColumnSegment",
    "RowBand",
    "TileStep",
    "TileExecutionPlan",
    "plan_bcq_tile_execution",
    "MPUConfig",
    "MPURunStats",
    "MatrixProcessingUnit",
    "CompiledProgram",
    "PlanePass",
    "compile_plan",
    "EngineStats",
    "GEMMEngine",
    "FPEngine",
    "IFPUEngine",
    "FIGNAEngine",
    "FIGLUTFloatEngine",
    "FIGLUTIntEngine",
    "available_engines",
    "make_engine",
    "prepare_weights",
    "figlut_gemm",
    "reference_gemm",
]
