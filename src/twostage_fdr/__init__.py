"""Two-stage false discovery rate control with a copula-coupled
auxiliary statistic.

The package merges a primary p-value with an auxiliary p-value through a
bivariate copula into one null-uniform p-value, then applies plug-in FDR
thresholding.  Submodules: ``copula`` (families and h-functions),
``marginal`` (null mixture and empirical margins), ``fit`` (likelihood
fitting and selection), ``procedure`` (the testing procedures),
``ingest`` (count data and the exhaustive bootstrap), ``simulate``
(Monte Carlo benchmark) and ``cli``.
"""

from .copula import (
    CopulaModel,
    PseudoObservations,
    cdf,
    hfunc,
    hfunc_inverse,
    kendall_tau,
    sample,
    tau_to_theta,
)
from .fit import FitResult, SelectionReport, empirical_kendall_tau, fit_mle, select_copula
from .marginal import (
    GaussianMixture,
    HypothesisTable,
    REAL_DATA_NULL,
    STANDARD_NORMAL,
    build_table,
    mixture_cdf,
)
from .procedure import (
    AggregatedPValues,
    ProcedureOutcome,
    aggregate_hard,
    aggregate_soft,
    estimate_fdr,
    estimate_pi0,
    run_one_stage_storey,
    run_two_stage_hard,
    run_two_stage_soft,
    select_gamma,
)
from .ingest import (
    FoldChangeSummary,
    ReplicateData,
    read_counts,
    read_hypotheses,
    summarize,
)
from .simulate import MonteCarloResult, SimulationConfig, generate_dataset, run_cell

__version__ = "0.1.0"
