"""Delay-aware hierarchical federated learning: simulator and analysis toolkit."""

from .analysis import (
    BoundConstants,
    EigenSystem,
    compute_constants,
    dispersion_matrix,
    eigen_system,
    error_terms,
    feasibility_limits,
    noise_free_step,
    noise_free_sync,
    one_step_bounds,
    proposition_step,
    theorem_bound,
)
from .control import (
    ControlConfig,
    ControlDecision,
    aggregation_indicators,
    estimate_parameters,
    run_adaptive,
    select_step_size,
    solve_p,
    trigger_local_aggregation,
)
from .data import Dataset, load_csv, load_idx, make_blobs
from .engine import (
    IntervalPlan,
    Protocol,
    RunResult,
    TrainingSchedule,
    noise_free_interval,
    run_baseline,
    run_training,
)
from .fleet import (
    FleetTopology,
    HeterogeneityParams,
    build_topology,
    measure_diversity,
    measure_sgd_noise,
    measure_smoothness_convexity,
    partition_label_skew,
)
from .losses import (
    LossModel,
    full_gradient,
    loss,
    solve_optimum,
    stochastic_gradient,
)
from .netcost import (
    RadioConfig,
    RadioCostModel,
    aggregation_delay,
    aggregation_energy,
    shannon_rate,
    wall_clock_to_iterations,
)

__version__ = "0.1.0"
