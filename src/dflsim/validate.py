"""The paper's checks, one implementation each, and the suites that run them.

The ``validate`` suites, the acceptance criteria and ``scripts/`` call
the experiments here with their own inputs. Each suite returns a list of
named checks with measured slack; the CLI prints them and fails on any
violation. The certified fleet builders construct shared-design ridge
problems whose smoothness, convexity, diversity and noise constants are
exact closed forms, so every bound can be tested without estimated inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import (
    compute_constants,
    eigen_system,
    feasibility_limits,
    one_step_bounds,
    proposition_step,
    theorem_bound,
)
from .control import (
    ControlConfig,
    ControlDecision,
    aggregation_indicators,
    run_adaptive,
    select_step_size,
    solve_p,
    subnet_contributions,
)
from .data import Dataset, make_blobs, make_shared_design
from .engine import IntervalPlan, TrainingSchedule, run_training
from .errors import InfeasibleError
from .fleet import (FleetTopology, HeterogeneityParams, build_topology, flatten_topology,
                    partition_label_skew)
from .losses import RIDGE, SVM, LossModel, full_gradient
from .netcost import CostSnapshot, stream

TAG_VALIDATE = 9


@dataclass
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: slack={self.slack:.3e}{extra}"


# ---------------------------------------------------------------------------
# certified shared-design problems


@dataclass(frozen=True)
class CertifiedProblem:
    topology: FleetTopology
    model: LossModel
    params: HeterogeneityParams
    w_star: np.ndarray
    e3_init: float


def certified_ridge_fleet(device_labels, subnet_sizes, direction=(1.0, 0.0),
                          regularization: float = 1.0, batch_size: int = 1,
                          always_aggregate: bool = True) -> CertifiedProblem:
    """Shared-design ridge fleet with closed-form heterogeneity constants.

    Every data point carries the same feature vector x, so each device
    gradient is (x.w - mean_i)x + reg*w: mu = reg and beta = reg + ||x||^2
    exactly, subnet-vs-global diversity is |mean_c - mean|*||x|| with
    zeta = 0, and the without-replacement minibatch noise variance is a
    w-independent constant. ``always_aggregate`` certifies phi = 0 (the
    deviation budget is met with zero slack when every slot aggregates);
    otherwise phi covers a never-aggregating schedule.
    """
    direction = np.asarray(direction, dtype=np.float64)
    x_sq = float(direction @ direction)
    datasets = make_shared_design(direction, device_labels)
    topology = build_topology(datasets, subnet_sizes)
    model = LossModel(RIDGE, feature_dim=direction.size, regularization=regularization)

    mu = regularization
    beta = regularization + x_sq
    dev_means = np.array([np.mean(labels) for labels in device_labels])
    sub_means = topology.subnet_sums(dev_means[:, None])[:, 0]
    global_mean = float(topology.global_sums(sub_means[:, None])[0])
    delta = float(np.max(np.abs(sub_means - global_mean))) * math.sqrt(x_sq)
    delta_c = np.array([
        max(abs(dev_means[i] - sub_means[c]) for i in members)
        for c, members in enumerate(topology.subnets)
    ]) * math.sqrt(x_sq)

    sigma_sq = 0.0
    for labels in device_labels:
        y = np.asarray(labels, dtype=np.float64)
        pop_var = float(np.mean((y - y.mean()) ** 2))
        b = min(batch_size, y.size)
        fpc = (y.size - b) / max(y.size - 1, 1)
        sigma_sq = max(sigma_sq, pop_var / b * fpc * x_sq)

    if always_aggregate:
        phi = 0.0
    else:
        phi = math.sqrt(float(np.sum(topology.subnet_weights * 2.0 * delta_c ** 2)))

    params = HeterogeneityParams(
        mu=mu, beta=beta, inter_delta=delta, inter_zeta=0.0,
        intra_delta=delta_c, intra_zeta=np.zeros(len(subnet_sizes)),
        sgd_noise=math.sqrt(sigma_sq), subnet_noise_budget=phi,
    )
    w_star = global_mean * direction / (regularization + x_sq)
    return CertifiedProblem(topology, model, params, w_star,
                            e3_init=float(np.linalg.norm(w_star)))


def theorem_problem(batch_size: int = 1) -> CertifiedProblem:
    """Equal subnet means (delta = 0), heterogeneous devices, exact sigma."""
    device_labels = [
        [0.0, 2.0], [-1.0, 3.0],       # subnet 0, both mean 1
        [0.5, 1.5], [1.0, 1.0],        # subnet 1, both mean 1
    ]
    return certified_ridge_fleet(device_labels, [2, 2], batch_size=batch_size)


def diverse_problem(batch_size: int = 1) -> CertifiedProblem:
    """Three subnets with distinct means: positive inter-subnet diversity."""
    device_labels = [
        [0.0, 0.4], [0.2, 0.2],        # subnet 0, mean 0.2
        [1.0, 1.2], [0.8, 1.4],        # subnet 1, mean 1.1
        [2.0, 2.2], [1.9, 2.3],        # subnet 2, mean 2.1
    ]
    return certified_ridge_fleet(device_labels, [2, 2, 2], batch_size=batch_size)


def ordering_fleet() -> tuple[FleetTopology, LossModel]:
    """Label-skew SVM toy of the ordering experiment: 50 devices, 10 subnets."""
    blob = make_blobs(10, 300, 12, 0.25, stream(7, 7), center_scale=6.0,
                      orthogonal_centers=True)
    parts = partition_label_skew(blob, 50, 3, stream(11, 7, 1))
    model = LossModel(SVM, feature_dim=12, regularization=0.01, num_classes=10)
    return build_topology(parts, [5] * 10), model


def trend_fleet(labels_per_device: int) -> tuple[FleetTopology, LossModel]:
    """Ridge fleet of the controller trends: 20 devices in 4 subnets."""
    blob = make_blobs(10, 120, 6, 0.6, stream(7, 7))
    parts = partition_label_skew(blob, 20, labels_per_device, stream(11, 7, 1))
    model = LossModel(RIDGE, feature_dim=6, regularization=4.0)
    return build_topology(parts, [5] * 4), model


def random_quadratic_params(rng: np.random.Generator,
                            proof_regime: bool = True) -> HeterogeneityParams:
    """Random feasible constant set; proof_regime keeps mu/beta <= 1/2.

    The simplified inter-sync constants dominate the tight recursion only
    on the regime their derivation assumes (eta*beta <= 1, mu/beta <= 1/2);
    draws for domination checks stay inside it.
    """
    beta = float(rng.uniform(0.5, 4.0))
    ratio = float(rng.uniform(0.05, 0.5 if proof_regime else 0.95))
    omega = float(rng.uniform(0.0, 1.0))
    delta = float(rng.uniform(0.0, 2.0))
    return HeterogeneityParams(
        mu=ratio * beta, beta=beta, inter_delta=delta,
        inter_zeta=omega * 2.0 * beta, intra_delta=np.array([0.0]),
        intra_zeta=np.array([0.0]), sgd_noise=float(rng.uniform(0.0, 1.0)),
        subnet_noise_budget=float(rng.uniform(0.0, 1.0)),
    )


# ---------------------------------------------------------------------------
# experiments


def contraction_slack(rng: np.random.Generator, trials: int) -> float:
    """Worst (1 - mu eta)||w1 - w2|| - ||(w1 - w2) - eta (g(w1) - g(w2))|| over
    random ridge problems, step sizes eta < 2/(mu + beta) and point pairs."""
    worst = math.inf
    for _ in range(trials):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, m))
        reg = float(rng.uniform(0.05, 1.0))
        ds = Dataset(X, rng.standard_normal(n))
        model = LossModel(RIDGE, feature_dim=m, regularization=reg)
        eigs = np.linalg.eigvalsh(X.T @ X / n + reg * np.eye(m))
        mu, beta = float(eigs[0]), float(eigs[-1])
        eta = float(rng.uniform(0.0, 1.0)) * 2.0 / (mu + beta)
        w1, w2 = rng.standard_normal(m), rng.standard_normal(m)
        step = (w1 - w2) - eta * (full_gradient(model, ds, w1) - full_gradient(model, ds, w2))
        worst = min(worst, float((1.0 - mu * eta) * np.linalg.norm(w1 - w2)
                                 - np.linalg.norm(step)))
    return worst


def eigen_margins() -> tuple[float, bool, float]:
    """1e-12 minus the worst reconstruction and identity residuals of
    eigen_system over a (mu/beta, omega) grid, and the eigenvalue signs."""
    worst_rec = worst_ident = math.inf
    signs_ok = True
    for ratio in np.linspace(0.04, 0.96, 20):
        for omega in np.linspace(0.0, 1.0, 10):
            eig = eigen_system(float(ratio), float(omega))
            rec = float(np.max(np.abs(eig.reconstruct() - eig.matrix)))
            worst_rec = min(worst_rec, 1e-12 - rec)
            signs_ok &= eig.eig_plus > 0 and eig.eig_minus < 0 \
                and eig.eig_plus * eig.eig_minus <= 0
            ident = max(abs(eig.g1 + eig.g2 - 1.0), abs(eig.g4 + eig.g3),
                        abs(eig.g3 - 1.0 / math.sqrt(8 * omega + 1)))
            worst_ident = min(worst_ident, 1e-12 - ident)
    return worst_rec, signs_ok, worst_ident


def noise_free_onestep(steps: int) -> tuple[float, float, int]:
    """Worst slack of the one-slot e2 and e3 bounds on the companion columns of a
    diverse_problem run, over the slots 1..steps that do not synchronize, and their count."""
    prob = diverse_problem()
    params = prob.params
    eta = 0.9 * 2.0 / (params.mu + params.beta)
    plan = IntervalPlan(tau=25, alpha=0.3, eta=eta, delay=5)
    res = run_training(prob.topology, prob.model,
                       TrainingSchedule((plan,) * math.ceil(steps / plan.tau)),
                       seed=0, batch_size=1, w_star=prob.w_star)
    e2, e3 = res.column("e2")[:steps + 1], res.column("e3")[:steps + 1]    # row t is slot t
    _, b2, b3 = one_step_bounds(params, 0.0, e2[:-1], e3[:-1], eta)
    inner = np.arange(1, steps + 1) % plan.tau != 0
    return (float(np.min((b2 - e2[1:])[inner])), float(np.min((b3 - e3[1:])[inner])),
            int(np.count_nonzero(inner)))


def replica_moments(prob: CertifiedProblem, schedule: TrainingSchedule, num_seeds: int,
                    trajectory, **engine_kwargs) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of ``trajectory(run)`` over seeds 0..num_seeds-1."""
    samples = np.stack([
        trajectory(run_training(prob.topology, prob.model, schedule, seed=s,
                                batch_size=1, w_star=prob.w_star, **engine_kwargs))
        for s in range(num_seeds)])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(num_seeds)


def deviation_msq_slack(prob: CertifiedProblem, num_seeds: int) -> float:
    """3-sigma slack of E e1'^2 <= (1 - mu eta)^2 E e1^2 + eta^2 (sigma^2 + phi^2),
    worst over 40 slots that all aggregate."""
    params, horizon = prob.params, 40
    eta = 0.4 * 2.0 / (params.mu + params.beta)
    schedule = TrainingSchedule.uniform(1, horizon + 1, alpha=0.0, eta=eta,
                                        delay=0, local_agg_period=1,
                                        num_subnets=prob.topology.num_subnets)
    mean, stderr = replica_moments(prob, schedule, num_seeds,
                                   lambda res: res.column("e1")[:horizon + 1] ** 2)
    noise = params.sgd_noise ** 2 + params.subnet_noise_budget ** 2
    bound = (1.0 - params.mu * eta) ** 2 * mean[:-1] + eta ** 2 * noise
    return float(np.min(bound + 3.0 * stderr[1:] - mean[1:]))


def brute_force_p(cost: CostSnapshot, params: HeterogeneityParams,
                  config: ControlConfig, theta: np.ndarray, t_now: int,
                  delay: int, e3_init: float) -> list:
    """Every (objective, tau, alpha) of solve_p's grid, found apart from
    solve_p: alpha climbs until compute_constants rejects it. The ``min``
    is solve_p's answer under its tie-break (smaller tau, then alpha)."""
    left = config.horizon - t_now
    grid = []
    for tau in range(max(delay, config.tau_min, 1), min(config.tau_max, left) + 1):
        try:
            eta_max, gamma = select_step_size(params, tau, delay, config.safety,
                                              config.gamma_safety)
        except InfeasibleError:
            continue
        counts = theta.astype(int) * tau
        energy = left / tau * (cost.global_energy + float(np.sum(counts * cost.local_energy)))
        delay_cost = left / tau * (cost.global_delay + float(np.sum(counts * cost.local_delay)))
        for j in itertools.count():
            try:
                consts = compute_constants(params, tau, delay, j * config.alpha_step,
                                           eta_max, gamma, e3_init)
            except InfeasibleError:
                break
            grid.append((config.energy_weight * energy + config.delay_weight * delay_cost
                         + config.bound_weight * theorem_bound(consts, left // tau),
                         tau, j * config.alpha_step))
    return grid


class SolverOutcome(NamedTuple):
    decision: ControlDecision
    grid_points: int
    exact: bool         # the brute-force winner, bit for bit, and again on a rerun
    cap: float          # the feasible alpha ceiling at the decision's tau
    feasible: bool      # delay <= tau <= tau_max and alpha below the ceiling


def solver_experiment(rng: np.random.Generator) -> SolverOutcome:
    """solve_p against brute_force_p on diverse_problem, costs and gaps (marks) from rng."""
    prob = diverse_problem()
    params, num_subnets = prob.params, prob.topology.num_subnets
    config = ControlConfig(energy_weight=1e-3, delay_weight=1e-2, bound_weight=1.0,
                           phi=params.subnet_noise_budget, tau_max=8,
                           alpha_step=0.25, horizon=100)
    cost = CostSnapshot(global_energy=0.5, global_delay=0.2,
                        local_energy=rng.uniform(0.01, 0.1, num_subnets),
                        local_delay=rng.uniform(0.001, 0.01, num_subnets))
    delay = 3
    theta = aggregation_indicators(subnet_contributions(
        rng.uniform(0.0, 2.0, num_subnets), prob.topology.subnet_weights, params), config.phi)
    inputs = (cost, params, config, theta, 0, delay, prob.e3_init)
    d = solve_p(*inputs)
    grid = brute_force_p(*inputs)
    exact = min(grid, default=None) == (d.objective, d.tau_next, d.alpha_next) \
        and solve_p(*inputs) == d
    cap = feasibility_limits(params, d.tau_next, delay, *select_step_size(
        params, d.tau_next, delay, config.safety)).alpha_star
    feasible = delay <= d.tau_next <= min(config.tau_max, config.horizon) and d.alpha_next < cap
    return SolverOutcome(d, len(grid), exact, cap, feasible)


ORDERING_VARIANTS = (   # (label, protocol, alpha, delay)
    ("combiner alpha=0.5, delay=10", "dfl", 0.5, 10),
    ("hierarchical alpha=0, delay=10", "dfl", 0.0, 10),
    ("flat fedavg, delay=10", "fedavg", 0.0, 10),
    ("hierarchical alpha=0, delay=0", "dfl", 0.0, 0),
    ("combiner alpha=0.5, delay=0", "dfl", 0.5, 0),
    ("ablation alpha=1, delay=10", "dfl", 1.0, 10),
)


def ordering_experiment(seeds, eta: float = 0.03,
                        intervals: int = 10) -> list[tuple[str, float, float]]:
    """(label, mean, std) over seeds of the final loss per ORDERING_VARIANTS row: tau 20,
    batch 10, local aggregation every 5 slots, or none on fedavg's flattened fleet."""
    topo, model = ordering_fleet()
    tau, batch = 20, 10
    rows = []
    for label, protocol, alpha, delay in ORDERING_VARIANTS:
        fleet, period = (flatten_topology(topo), None) if protocol == "fedavg" else (topo, 5)
        sched = TrainingSchedule.uniform(intervals, tau, alpha, eta, delay,
                                         local_agg_period=period, num_subnets=fleet.num_subnets)
        finals = [float(run_training(fleet, model, sched, seed=seed, batch_size=batch,
                                     metrics_every=tau).column("loss")[-1]) for seed in seeds]
        rows.append((label, float(np.mean(finals)), float(np.std(finals))))
    return rows


class TrendPoint(NamedTuple):
    axis: str           # "delay" or "labels_per_device"
    value: int
    mean_alpha: float
    mean_tau: float
    decisions: int      # decisions that were not fallbacks
    zero_grid: int      # of those, decisions whose alpha grid is {0}: alpha_cap <= alpha_step
    caps_ok: bool       # every chosen alpha below its cap


def controller_trends(seeds) -> list[TrendPoint]:
    """Mean (alpha, tau) the adaptive controller picks on trend_fleet, tau
    pinned to 30: by delay at 3 labels per device, then by skew at delay 10."""
    config = ControlConfig(energy_weight=1e-3, delay_weight=1e-2,
                           bound_weight=1.0, phi=2.0, tau_max=30, tau_min=30,
                           alpha_step=0.01, horizon=240, initial_tau=30,
                           probe_scale=0.5)
    points = [("delay", delay, 3, delay) for delay in (5, 10, 15, 20, 25)]
    points += [("labels_per_device", labels, labels, 10) for labels in (5, 3, 2, 1)]
    out = []
    for axis, value, labels, delay in points:
        topo, model = trend_fleet(labels)
        kept = [d for seed in seeds
                for d in run_adaptive(topo, model, config, seed=seed, batch_size=10,
                                      delay=delay, metrics_every=60).decisions
                if not d.fallback]
        out.append(TrendPoint(
            axis, value, float(np.mean([d.alpha_next for d in kept])),
            float(np.mean([d.tau_next for d in kept])), len(kept),
            sum(d.alpha_cap <= config.alpha_step for d in kept),
            all(d.alpha_next < d.alpha_cap for d in kept)))
    return out


# ---------------------------------------------------------------------------
# suites


def suite_facts(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Gradient-step contraction on random ridge problems + eigen identities."""
    worst = contraction_slack(stream(seed, TAG_VALIDATE, 0), trials)
    worst_rec, signs_ok, worst_ident = eigen_margins()
    return [CheckResult("contraction-under-gradient-step", worst >= -1e-12, worst,
                        f"{trials} random ridge problems"),
            CheckResult("eigen-reconstruction", worst_rec >= 0, worst_rec, "200 grid points"),
            CheckResult("eigenvalue-signs", signs_ok, 0.0),
            CheckResult("gap-row-coefficient-identities", worst_ident >= 0, worst_ident)]


def suite_onestep(steps: int = 525, e1_seeds: int = 1000) -> list[CheckResult]:
    """Single-slot error recursions against simulated dynamics."""
    worst2, worst3, checked = noise_free_onestep(steps)
    slack = deviation_msq_slack(theorem_problem(batch_size=1), e1_seeds)
    return [CheckResult("dispersion-one-step-bound", worst2 >= -1e-9, worst2,
                        f"{checked} noise-free slots"),
            CheckResult("gap-one-step-bound", worst3 >= -1e-9, worst3,
                        f"{checked} noise-free slots"),
            CheckResult("deviation-one-step-bound-msq", slack >= 0, slack,
                        f"{e1_seeds} seeds, 3-sigma band")]


def suite_proposition(draws: int = 100, seed: int = 1) -> list[CheckResult]:
    """Simplified vs tight inter-sync recursions, and both vs simulation."""
    rng = stream(seed, TAG_VALIDATE, 1)
    checks = []
    worst = math.inf
    done = 0
    while done < draws:
        params = random_quadratic_params(rng)
        tau = int(rng.integers(2, 12))
        delay = int(rng.integers(0, tau))
        try:
            eta_max, gamma = select_step_size(params, tau, delay)
            if eta_max * params.beta > 1.0:
                continue
            alpha = float(rng.uniform(0.0, 1.0)) * compute_constants(
                params, tau, delay, 0.0, eta_max, gamma).alpha_star * 0.999
            consts = compute_constants(params, tau, delay, alpha, eta_max, gamma,
                                       e3_init=1.0)
        except InfeasibleError:
            continue
        k = int(rng.integers(0, 5))
        eta_k = consts.eta_at(k)
        e1s, e2, e3 = (float(rng.uniform(0, 2)) for _ in range(3))
        simple = proposition_step(consts, e1s, e2, e3, eta_k, tight=False)
        tight = proposition_step(consts, e1s, e2, e3, eta_k, tight=True)
        worst = min(worst, *(s - t for s, t in zip(simple, tight)))
        done += 1
    checks.append(CheckResult("simplified-dominates-tight", worst >= -1e-12, worst,
                              f"{draws} feasible draws"))

    # alpha = 0 collapses the dispersion recursion
    params = random_quadratic_params(stream(seed, TAG_VALIDATE, 2))
    eta_max, gamma = select_step_size(params, 6, 2)
    consts = compute_constants(params, 6, 2, 0.0, eta_max, gamma, e3_init=1.0)
    _, b2, _ = proposition_step(consts, 1.0, 1.0, 1.0, consts.eta_at(0))
    checks.append(CheckResult("dispersion-collapses-at-alpha-zero", b2 == 0.0, -abs(b2)))

    # tight recursion dominates the simulated noise-free dynamics at syncs
    prob = diverse_problem()
    tau, delay = 8, 2
    eta_max, gamma = select_step_size(prob.params, tau, delay)
    alpha = 0.5 * compute_constants(prob.params, tau, delay, 0.0, eta_max,
                                    gamma).alpha_star
    consts = compute_constants(prob.params, tau, delay, alpha, eta_max, gamma,
                               e3_init=prob.e3_init)
    etas = [consts.eta_at(k) for k in range(12)]
    res = run_training(prob.topology, prob.model, TrainingSchedule(tuple(
        IntervalPlan(tau=tau, alpha=alpha, eta=eta_k, delay=delay) for eta_k in etas)),
        seed=0, batch_size=1, w_star=prob.w_star, metrics_every=tau)
    e2, e3 = (np.append(res.column(name)[0], res.at_sync(name)).tolist()
              for name in ("e2", "e3"))
    worst = math.inf
    for k, eta_k in enumerate(etas):
        _, t2, t3 = proposition_step(consts, 0.0, e2[k], e3[k], eta_k, tight=True)
        _, s2, s3 = proposition_step(consts, 0.0, e2[k], e3[k], eta_k, tight=False)
        worst = min(worst, t2 - e2[k + 1], t3 - e3[k + 1], s2 - t2, s3 - t3)
    checks.append(CheckResult("tight-dominates-simulation", worst >= -1e-9, worst,
                              "12 noise-free synchronizations"))
    return checks


def suite_theorem(num_seeds: int = 300, num_syncs: int = 50) -> list[CheckResult]:
    """Gap bound dominates the multi-seed mean trajectory on the certified fleet."""
    prob = theorem_problem(batch_size=1)
    params = prob.params
    tau, delay = 6, 2
    eta_max, gamma = select_step_size(params, tau, delay)
    alpha = 0.5 * compute_constants(params, tau, delay, 0.0, eta_max, gamma,
                                    e3_init=prob.e3_init).alpha_star
    consts = compute_constants(params, tau, delay, alpha, eta_max, gamma,
                               e3_init=prob.e3_init)
    every_slot = tuple(tuple(range(1, tau + 1)) for _ in range(prob.topology.num_subnets))
    schedule = TrainingSchedule(tuple(
        IntervalPlan(tau=tau, alpha=alpha, eta=consts.eta_at(k), delay=delay,
                     local_agg_offsets=every_slot) for k in range(num_syncs)))
    mean, stderr = replica_moments(
        prob, schedule, num_seeds,
        lambda res: np.concatenate(([res.column("gap")[0]], res.at_sync("gap"))),
        track_noise_free=False, metrics_every=tau)
    nu = np.array([theorem_bound(consts, k) for k in range(num_syncs + 1)])
    slack = float(np.min(nu + 3.0 * stderr - mean))
    return [CheckResult("gap-bound-dominates", slack >= 0, slack,
                        f"{num_seeds} seeds, {num_syncs} synchronizations"),
            CheckResult("gap-bound-strictly-decreasing", bool(np.all(np.diff(nu) < 0)),
                        float(-np.max(np.diff(nu))))]


def suite_solver(seed: int = 2) -> list[CheckResult]:
    """Grid solver against a brute-force scan, plus constraint satisfaction."""
    outcome = solver_experiment(stream(seed, TAG_VALIDATE, 3))
    d = outcome.decision
    return [CheckResult("solver-matches-brute-force", outcome.exact,
                        0.0 if outcome.exact else -1.0,
                        f"decision tau={d.tau_next}, alpha={d.alpha_next}"),
            CheckResult("decision-satisfies-constraints", outcome.feasible,
                        float(outcome.cap - d.alpha_next))]


SUITES = {
    "facts": suite_facts,
    "onestep": suite_onestep,
    "proposition": suite_proposition,
    "theorem": suite_theorem,
    "solver": suite_solver,
}

# the ``--quick`` sample sizes of each suite
QUICK = {
    "facts": dict(trials=200),
    "onestep": dict(steps=120, e1_seeds=200),
    "proposition": dict(draws=30),
    "theorem": dict(num_seeds=60, num_syncs=20),
    "solver": {},
}
