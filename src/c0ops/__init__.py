"""Desk-scale toolkit for finite Blaschke products, model spaces,
invariant subspaces of truncated uniform Jordan operators, and the
quasiaffinity constructions relating them."""

from .errors import C0OpsError, HypothesisViolated, IllConditioned, NotInvariant
from .inner import ONE, InnerFunction, all_divisors, blaschke, divides, gcd, lcm, monomial, quotient
from .jordan import (
    JordanModel,
    canonical_subspace,
    random_invariant_subspace,
    subspace_models,
)
from .model_space import (
    ModelSpace,
    ModelVector,
    build_model_space,
    functional_calculus,
)
from .quasiaffine import (
    DensityRow,
    QuasiaffinityRecord,
    WeightSchedule,
    build_X,
    build_Y_main,
    compression_intertwiner,
    density_sweep,
    random_density_targets,
    solve_norm_preserving,
)
from .subspaces import (
    AmbientSpace,
    CopyBlocks,
    SubspaceFrame,
    image_closure,
    invariant_subspace_of_block,
    is_invariant,
    load_subspace,
    orthocomplement,
    orthonormalize,
    principal_distance,
)
from .verify import (
    CounterexampleReport,
    VerifyReport,
    cordiag_demo,
    counterexample_search,
    verify_orbit,
)

__version__ = "0.1.0"
