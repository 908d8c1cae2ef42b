"""moilab: a finite-dimensional laboratory for multiple operator integrals.

Evaluate operator integrals for projective, chain, and chain-like integrand
representations, check the associated Schatten norm inequalities, and build
the extremal families showing their exponents are critical.
"""

from .bounds import (
    BoundReport,
    RangeError,
    check_haagerup_like,
    check_haagerup_main,
    check_lemma_row,
    check_projective,
)
from .evaluate import (
    CapExceededError,
    MoiInstance,
    duality_functional,
    eval_haagerup,
    eval_haagerup_block,
    eval_haagerup_like,
    eval_moi,
    eval_oracle,
    eval_projective,
    moi_scale,
)
from .integrands import (
    HaagerupChainRep,
    HaagerupLikeRep,
    ProjectiveRep,
    embed_projective_in_haagerup,
    eval_pointwise,
    rep_norm_bound,
)
from .linalg import (
    INF,
    harmonic_exponent,
    hermitian_eig,
    schatten_norm,
    sequence_norm,
    sharp,
    singular_values,
)
from .sharpness import (
    ConstructionCase,
    ConstructionCheckError,
    SharpnessInstance,
    build_construction,
    default_case,
    default_sequences,
    expected_diag,
    expected_output,
    growth_sweep,
    sharp_r,
    sweep_csv,
)
from .spectral import (
    FiniteSpectralMeasure,
    cyclic_model,
    from_hermitian,
    integrate_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceededError",
    "ConstructionCase",
    "ConstructionCheckError",
    "FiniteSpectralMeasure",
    "HaagerupChainRep",
    "HaagerupLikeRep",
    "INF",
    "MoiInstance",
    "ProjectiveRep",
    "RangeError",
    "SharpnessInstance",
    "build_construction",
    "check_haagerup_like",
    "check_haagerup_main",
    "check_lemma_row",
    "check_projective",
    "cyclic_model",
    "default_case",
    "default_sequences",
    "duality_functional",
    "embed_projective_in_haagerup",
    "eval_haagerup",
    "eval_haagerup_block",
    "eval_haagerup_like",
    "eval_moi",
    "eval_oracle",
    "eval_pointwise",
    "eval_projective",
    "expected_diag",
    "expected_output",
    "from_hermitian",
    "growth_sweep",
    "harmonic_exponent",
    "hermitian_eig",
    "integrate_scalar",
    "moi_scale",
    "rep_norm_bound",
    "schatten_norm",
    "sequence_norm",
    "sharp",
    "sharp_r",
    "singular_values",
    "sweep_csv",
]
