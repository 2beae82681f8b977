"""Output-sensitive sparse non-negative convolution.

Dense baselines (quadratic reference and numpy.fft real transforms),
hashing modulo random primes, ratio-trick sketches, approximate
recovery by vote and peel, and its exact form with rounding, plus a benchmark
harness and CLI.
"""

from .approx import ApproxParams, CorrectionTrace, approx_plan, approx_sparse_convolve
from .exact import (
    ExactParams,
    exact_plan,
    exact_sparse_convolve,
    repetition_schedule,
    residual_norm,
    run_correction_level,
)
from .fft import cyclic_convolve, fft_convolve, fft_work, pad_length, reset_fft_work
from .harness import (
    GeneratedInstance,
    GenerationInfeasibleError,
    InstanceSpec,
    generate_instance,
    load_instance,
    run_benchmark,
    run_engine,
    write_instance,
)
from .hashing import fold, primes_in_range, sample_prime
from .numerics import SparseResult, derivative, naive_convolve, round_to_int
from .sketch import Sketch, SketchCache, build_residual_sketch, build_sketch, extract_candidates

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "CorrectionTrace",
    "ExactParams",
    "GeneratedInstance",
    "GenerationInfeasibleError",
    "InstanceSpec",
    "Sketch",
    "SketchCache",
    "SparseResult",
    "approx_plan",
    "approx_sparse_convolve",
    "build_residual_sketch",
    "build_sketch",
    "cyclic_convolve",
    "derivative",
    "exact_plan",
    "exact_sparse_convolve",
    "extract_candidates",
    "fft_convolve",
    "fft_work",
    "fold",
    "generate_instance",
    "load_instance",
    "naive_convolve",
    "pad_length",
    "primes_in_range",
    "repetition_schedule",
    "reset_fft_work",
    "residual_norm",
    "round_to_int",
    "run_benchmark",
    "run_correction_level",
    "run_engine",
    "sample_prime",
    "write_instance",
]
