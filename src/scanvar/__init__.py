"""Exact and empirical asymptotic-variance comparison for kernel scan orders
on finite state spaces."""

from scanvar.embedding import CycleEmbedding, resolvent_solve
from scanvar.kernels import (
    DegenerateConditionalError,
    Dist,
    FamilyDiagnostics,
    Kernel,
    KernelFamily,
    Observable,
    ReducibilityError,
    SummabilityError,
    ValidationError,
    center,
    compose_cycle,
    family_diagnostics,
    gibbs_kernel,
    inner,
    is_irreducible,
    lazy,
    make_family,
    metropolis_kernel,
    random_reversible,
    random_scan,
)
from scanvar.ordering import (
    OrderingReport,
    PeskunComparison,
    check_peskun_ordering,
    check_scan_ordering,
    gap_lower_bound,
    peskun_dominates,
)
from scanvar.simulate import (
    SimulationConfig,
    VarianceEstimate,
    estimate_variance,
    simulate,
)
from scanvar.variance import (
    SummabilityReport,
    finite_m_variance_exact,
    summability_check,
    var_lambda_rand,
    var_lambda_strat,
    var_limit,
)

__version__ = "0.1.0"
