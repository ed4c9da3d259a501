"""Maximum-entropy modeling of discrete distributions.

The package fits maximum-entropy distributions under linear moment
constraints, quantifies how surprising observed data are inside a
constraint class through entropy concentration, selects among candidate
constraint architectures, and benchmarks the whole pipeline on
synthetic spin systems.
"""

from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    BenchmarkRow,
    SummaryRow,
    TruthRow,
    report_csv,
    run_benchmark,
    summary_csv,
    truth_csv,
)
from .constraints import (
    ArchitectureMatrix,
    CoefficientMatrix,
    KernelBasis,
    kernel_basis,
    to_architecture,
)
from .errors import (
    ConvergenceError,
    InconsistentSystemError,
    InfeasibleMomentsError,
    InputError,
    MaxentError,
    NoSolvableCandidateError,
    NotNestedError,
    RankDeficiencyError,
    RejectionExhaustedError,
    SelectionError,
    SingularJacobianError,
    SolverError,
    SupportViolationError,
    ZeroMarginalError,
)
from .ising import (
    IsingParams,
    SpinModel,
    boltzmann,
    closure,
    enumerate_models,
    random_params,
    to_coefficients,
    tp_fp_rates,
)
from .selection import (
    ErrorEstimate,
    ModelScore,
    ScoreTable,
    SelectionConfig,
    SelectionResult,
    aic,
    alpha_empirical,
    alpha_lrt,
    asymptotic_test_error,
    asymptotic_training_error,
    bic,
    empirical_p_value,
    expected_entropy,
    lrt_p_value,
    mc_test_error,
    mc_training_error,
    select,
)
from .simplex import (
    CountVector,
    Distribution,
    MicrostateSpace,
    entropy,
    kl_divergence,
    log_multinomial_pmf,
    multinomial_sample,
)
from .solver import (
    FitResult,
    MaxEntSolution,
    SolveOptions,
    fit_linear_system,
    fit_linear_systems,
    sample_equivalence_class,
    solve_ipf,
)

__version__ = "0.1.0"
