"""Numerical weak-KAM toolkit on flat tori.

Discretizes convex-coercive Hamilton-Jacobi problems, solves the discounted
equation, computes Peierls barriers, Aubry sets and Mather measures, and
verifies at desk scale that the discounted solutions select a single
critical limit.
"""

import gc
import os
import time

_IMPORT_START = time.perf_counter()
# every stage runs on one thread: ask OpenBLAS for no worker pool before numpy
# loads, unless the caller set one of the variables it reads (a process that
# imported numpy first keeps its pool)
if not any(map(os.environ.get, ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .action_barrier import (
    ActionKernel,
    AubryReport,
    BarrierMatrix,
    aubry_report,
    aubry_set,
    build_kernel,
    mather_classes,
    minplus_power,
    minplus_product,
    peierls_barrier,
    verify_subsolution,
)
from .discounted import (
    DiscountedSolution,
    OccupationMeasure,
    TrajectorySample,
    backward_trajectory,
    calibration_residual,
    critical_value_estimate,
    discounted_occupation_measure,
    solve_discounted,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EmptyAubryError,
    InfeasibleError,
    NoSublevelError,
    StencilError,
    TruncationError,
    UnboundedError,
    WeakKamError,
)
from .harness import (
    ExperimentConfig,
    RunReport,
    cli_dispatch,
    load_config,
    run_pipeline,
)
from .mather import (
    LimitFunctionResult,
    MatherSolveResult,
    VerificationReport,
    closedness_residual,
    compute_u0,
    min_mean_cycle,
    solve_mather_lp,
    u0_critical_cycles,
    u0_mechanical,
    verify_limit,
)
from .models import (
    GridFunction,
    LagrangianSpec,
    StabilityBounds,
    TorusGrid,
    VelocityStencil,
    build_grid,
    cosine_potential,
    default_time_step,
    eval_hamiltonian,
    eval_lagrangian,
    legendre_transform,
    make_stencil,
    mechanical,
    stability_bounds,
    table_potential,
    tabulated,
    zero_potential,
)

__version__ = "0.1.0"
# seconds spent importing the package, numpy and BLAS load included
import_s = time.perf_counter() - _IMPORT_START
# process-wide like the BLAS setting: the import heap lives as long as the
# process, so it leaves every later collection, the one at exit included
gc.freeze()
