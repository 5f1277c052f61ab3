"""Counting primes of the form n^3 + k and the local arithmetic behind
the prediction: cubic residue classification, solvable-moduli densities,
and the partial sums that calibrate the constant."""

from .arith import (
    ArithTables,
    Factorization,
    factorize,
    integer_root,
    is_prime,
    primes_up_to,
    sieve_range,
    sigma,
    tau,
    totient,
    von_mangoldt,
)
from .counting import (
    CountRecord,
    ProgressionSum,
    Weight,
    WeightedSumRecord,
    count_table,
    lambda_sum_rhs,
    max_index,
    min_index,
    prime_power_tail,
    progression_weighted_sum,
    singular_series,
    weighted_lambda_sum,
)
from .dset import (
    dset_density,
    enumerate_dset,
    in_dset,
)
from .errors import (
    CapacityError,
    ConsistencyError,
    DomainError,
    ResourceError,
)
from .residues import (
    NONRESIDUE_FORM,
    RESIDUE_FORM,
    Branch,
    CubicClass,
    CubicTag,
    PrimeClass,
    QuadraticForm,
    cubic_residue_euler,
    gauss_classify,
    primitive_cube_root,
    rho,
    rho_bruteforce,
    roots_mod,
)
from .series import (
    PartialSumRecord,
    dirichlet_partial_sum,
    epstein_mu_sum,
    epstein_r,
    epstein_zeta_partial,
    representation_counts,
)

__version__ = "0.1.0"

__all__ = [
    "ArithTables", "Factorization", "factorize", "integer_root", "is_prime",
    "primes_up_to", "sieve_range", "sigma", "tau", "totient", "von_mangoldt",
    "CountRecord", "ProgressionSum", "Weight", "WeightedSumRecord",
    "count_table", "lambda_sum_rhs", "max_index", "min_index", "prime_power_tail",
    "progression_weighted_sum", "singular_series", "weighted_lambda_sum",
    "dset_density", "enumerate_dset", "in_dset",
    "CapacityError", "ConsistencyError", "DomainError", "ResourceError",
    "NONRESIDUE_FORM", "RESIDUE_FORM", "Branch", "CubicClass", "CubicTag",
    "PrimeClass", "QuadraticForm", "cubic_residue_euler", "gauss_classify",
    "primitive_cube_root", "rho", "rho_bruteforce", "roots_mod",
    "PartialSumRecord", "dirichlet_partial_sum", "epstein_mu_sum", "epstein_r",
    "epstein_zeta_partial", "representation_counts",
    "__version__",
]
