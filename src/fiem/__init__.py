"""Incremental EM algorithms with variance reduction and certified step sizes.

The package covers the algorithm family (EM, incremental EM, Online EM, FIEM,
opt-FIEM and the hybrid h-FIEM) over finite-sum curved-exponential-family
models, the nonasymptotic step-size planners with their bound calculators,
two concrete models (a linear-Gaussian toy problem and a shared-covariance
Gaussian mixture) and a seeded Monte Carlo harness.

The top level re-exports the common entry points; everything else lives in
the submodules ``algorithms``, ``model``, ``toy``, ``gmm``, ``stepsize``,
``experiments``, ``rng`` and ``errors``.
"""

from .algorithms import (
    RunOptions,
    StepSchedule,
    TerminationRule,
    fiem_step,
    h_fiem_run,
    iem_step,
    online_em_step,
    opt_fiem_lambda,
    opt_fiem_step,
    run,
)
from .errors import RunAbortError
from .experiments import gmm_epoch_path, update_magnitude_window
from .gmm import (
    GmmDataset,
    GmmModel,
    GmmParams,
    generate_gmm_synthetic,
    gmm_loglik,
    init_params,
    preprocess,
)
from .model import em_step, grad_v_fd, gradv_identity_check, mean_field, objective_v, sbar
from .rng import SeedTree
from .stepsize import (
    PlannerInputs,
    f_n,
    f_n_tilde,
    karimi_plan,
    nonuniform_plan,
    plan_case1,
    solve_case2,
)
from .toy import ToyModel, generate_toy

__version__ = "0.1.0"
