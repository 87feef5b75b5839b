"""Runnable validation suites tying the theory to the simulator.

Each suite returns a list of named checks with measured slack; the CLI
prints them and fails on any violation. The certified fleet builders
construct shared-design ridge problems whose smoothness, convexity,
diversity and noise constants are exact closed forms, so every bound can
be tested without estimated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    NoiseFreeState,
    compute_constants,
    eigen_system,
    error_terms,
    noise_free_step,
    noise_free_sync,
    one_step_bounds,
    proposition_step,
    theorem_bound,
)
from .control import (
    ControlConfig,
    aggregation_indicators,
    select_step_size,
    solve_p,
    subnet_contributions,
)
from .data import make_shared_design
from .engine import TrainingSchedule, run_training
from .errors import InfeasibleError
from .fleet import FleetTopology, HeterogeneityParams, build_topology
from .losses import RIDGE, LossModel, full_gradient
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
# suites


def suite_facts(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Gradient-step contraction on random ridge problems + eigen identities."""
    rng = stream(seed, TAG_VALIDATE, 0)
    worst = math.inf
    for _ in range(trials):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, m))
        reg = float(rng.uniform(0.05, 1.0))
        from .data import Dataset

        ds = Dataset(X, rng.standard_normal(n))
        model = LossModel(RIDGE, feature_dim=m, regularization=reg)
        H = X.T @ X / n + reg * np.eye(m)
        eigs = np.linalg.eigvalsh(H)
        mu, beta = float(eigs[0]), float(eigs[-1])
        eta = float(rng.uniform(0.0, 1.0)) * 2.0 / (mu + beta)
        w1, w2 = rng.standard_normal(m), rng.standard_normal(m)
        step = (w1 - w2) - eta * (full_gradient(model, ds, w1) - full_gradient(model, ds, w2))
        slack = (1.0 - mu * eta) * np.linalg.norm(w1 - w2) - np.linalg.norm(step)
        worst = min(worst, float(slack))
    checks = [CheckResult("contraction-under-gradient-step", worst >= -1e-12, worst,
                          f"{trials} random ridge problems")]

    worst_rec, worst_ident = math.inf, math.inf
    lam_ok = True
    for ratio in np.linspace(0.04, 0.96, 20):
        for omega in np.linspace(0.0, 1.0, 10):
            eig = eigen_system(float(ratio), float(omega))
            rec = float(np.max(np.abs(eig.reconstruct() - eig.matrix)))
            worst_rec = min(worst_rec, 1e-12 - rec)
            lam_ok &= eig.eig_plus > 0 and eig.eig_minus < 0 \
                and eig.eig_plus * eig.eig_minus <= 0
            ident = max(abs(eig.g1 + eig.g2 - 1.0), abs(eig.g4 + eig.g3),
                        abs(eig.g3 - 1.0 / math.sqrt(8 * omega + 1)))
            worst_ident = min(worst_ident, 1e-12 - ident)
    checks.append(CheckResult("eigen-reconstruction", worst_rec >= 0, worst_rec,
                              "200 grid points"))
    checks.append(CheckResult("eigenvalue-signs", lam_ok, 0.0))
    checks.append(CheckResult("gap-row-coefficient-identities", worst_ident >= 0, worst_ident))
    return checks


def suite_onestep(steps: int = 525, e1_seeds: int = 1000) -> list[CheckResult]:
    """Single-slot error recursions against simulated dynamics."""
    checks = []
    prob = diverse_problem()
    topo, model, params = prob.topology, prob.model, prob.params
    eta = 0.9 * 2.0 / (params.mu + params.beta)
    tau, delay, alpha = 25, 5, 0.3
    state = NoiseFreeState(np.zeros((topo.num_subnets, model.model_dim)))
    worst2 = worst3 = math.inf
    checked = 0
    snapshot = None
    for t in range(1, steps + 1):
        e1, e2, e3 = error_terms(np.zeros((topo.num_devices, model.model_dim)),
                                 topo, state, prob.w_star)
        _, b2, b3 = one_step_bounds(params, 0.0, e2, e3, eta)
        step_in = (t - 1) % tau + 1
        nxt = noise_free_step(state, topo, model, eta)
        if step_in == tau - delay:
            snapshot = nxt.global_model(topo)
        if step_in == tau:
            state = noise_free_sync(nxt, alpha, snapshot)
        else:
            state = nxt
            _, e2n, e3n = error_terms(np.zeros((topo.num_devices, model.model_dim)),
                                      topo, state, prob.w_star)
            worst2 = min(worst2, b2 - e2n)
            worst3 = min(worst3, b3 - e3n)
            checked += 1
    checks.append(CheckResult("dispersion-one-step-bound", worst2 >= -1e-9, worst2,
                              f"{checked} noise-free slots"))
    checks.append(CheckResult("gap-one-step-bound", worst3 >= -1e-9, worst3,
                              f"{checked} noise-free slots"))

    prob = theorem_problem(batch_size=1)
    topo, model, params = prob.topology, prob.model, prob.params
    eta = 0.4 * 2.0 / (params.mu + params.beta)
    horizon = 40
    schedule = TrainingSchedule.uniform(1, horizon + 1, alpha=0.0, eta=eta,
                                        delay=0, local_agg_period=1,
                                        num_subnets=topo.num_subnets)
    e1_sq = np.zeros((e1_seeds, horizon + 1))
    for s in range(e1_seeds):
        res = run_training(topo, model, schedule, seed=s, batch_size=1,
                           w_star=prob.w_star)
        e1_sq[s] = res.column("e1")[:horizon + 1] ** 2
    mean = e1_sq.mean(axis=0)
    stderr = e1_sq.std(axis=0, ddof=1) / math.sqrt(e1_seeds)
    noise = params.sgd_noise ** 2 + params.subnet_noise_budget ** 2
    bound = (1.0 - params.mu * eta) ** 2 * mean[:-1] + eta ** 2 * noise
    slack = float(np.min(bound + 3.0 * stderr[1:] - mean[1:]))
    checks.append(CheckResult("deviation-one-step-bound-msq", slack >= 0, slack,
                              f"{e1_seeds} seeds, 3-sigma band"))
    return checks


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
    topo, model = prob.topology, prob.model
    tau, delay = 8, 2
    eta_max, gamma = select_step_size(prob.params, tau, delay)
    alpha = 0.5 * compute_constants(prob.params, tau, delay, 0.0, eta_max,
                                    gamma).alpha_star
    worst = math.inf
    state = NoiseFreeState(np.zeros((topo.num_subnets, model.model_dim)))
    zeros = np.zeros((topo.num_devices, model.model_dim))
    for k in range(12):
        consts = compute_constants(prob.params, tau, delay, alpha, eta_max, gamma,
                                   e3_init=prob.e3_init)
        eta_k = consts.eta_at(k)
        _, e2, e3 = error_terms(zeros, topo, state, prob.w_star)
        snapshot = None
        for step in range(1, tau + 1):
            nxt = noise_free_step(state, topo, model, eta_k)
            if step == tau - delay:
                snapshot = nxt.global_model(topo)
            state = noise_free_sync(nxt, alpha, snapshot) if step == tau else nxt
        _, e2n, e3n = error_terms(zeros, topo, state, prob.w_star)
        _, t2, t3 = proposition_step(consts, 0.0, e2, e3, eta_k, tight=True)
        _, s2, s3 = proposition_step(consts, 0.0, e2, e3, eta_k, tight=False)
        worst = min(worst, t2 - e2n, t3 - e3n, s2 - t2, s3 - t3)
    checks.append(CheckResult("tight-dominates-simulation", worst >= -1e-9, worst,
                              "12 noise-free synchronizations"))
    return checks


def suite_theorem(num_seeds: int = 300, num_syncs: int = 50) -> list[CheckResult]:
    """Gap bound dominates the multi-seed mean trajectory on the certified fleet."""
    prob = theorem_problem(batch_size=1)
    topo, model, params = prob.topology, prob.model, prob.params
    tau, delay = 6, 2
    eta_max, gamma = select_step_size(params, tau, delay)
    alpha = 0.5 * compute_constants(params, tau, delay, 0.0, eta_max, gamma,
                                    e3_init=prob.e3_init).alpha_star
    consts = compute_constants(params, tau, delay, alpha, eta_max, gamma,
                               e3_init=prob.e3_init)
    gaps = np.zeros((num_seeds, num_syncs + 1))
    for s in range(num_seeds):
        plans = []
        for k in range(num_syncs):
            plans.append(TrainingSchedule.uniform(
                1, tau, alpha=alpha, eta=consts.eta_at(k), delay=delay,
                local_agg_period=1, num_subnets=topo.num_subnets).intervals[0])
        res = run_training(topo, model, TrainingSchedule(tuple(plans)), seed=s,
                           batch_size=1, w_star=prob.w_star,
                           track_noise_free=False, metrics_every=tau)
        gaps[s] = np.concatenate(([res.column("gap")[0]], res.at_sync("gap")))
    mean = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / math.sqrt(num_seeds)
    nu = np.array([theorem_bound(consts, k) for k in range(num_syncs + 1)])
    slack = float(np.min(nu + 3.0 * stderr - mean))
    checks = [CheckResult("gap-bound-dominates", slack >= 0, slack,
                          f"{num_seeds} seeds, {num_syncs} synchronizations")]
    decreasing = bool(np.all(np.diff(nu) < 0))
    checks.append(CheckResult("gap-bound-strictly-decreasing", decreasing,
                              float(-np.max(np.diff(nu)))))
    return checks


def suite_solver(seed: int = 2) -> list[CheckResult]:
    """Grid solver against a brute-force scan, plus constraint satisfaction."""
    rng = stream(seed, TAG_VALIDATE, 3)
    prob = diverse_problem()
    params = prob.params
    config = ControlConfig(energy_weight=1e-3, delay_weight=1e-2, bound_weight=1.0,
                           phi=params.subnet_noise_budget, tau_max=8, tau_min=1,
                           alpha_step=0.25, horizon=100)
    cost = CostSnapshot(
        global_energy=0.5, global_delay=0.2,
        local_energy=rng.uniform(0.01, 0.1, prob.topology.num_subnets),
        local_delay=rng.uniform(0.001, 0.01, prob.topology.num_subnets),
    )
    gaps = rng.uniform(0.0, 2.0, prob.topology.num_subnets)
    delay, t_now, e3_init = 3, 0, prob.e3_init
    decision = solve_p(cost, params, config, prob.topology.subnet_weights,
                       t_now, delay, e3_init, gaps)

    best = None
    theta = aggregation_indicators(
        subnet_contributions(gaps, prob.topology.subnet_weights, params), config.phi)
    for tau in range(max(delay, 1), min(config.tau_max, config.horizon) + 1):
        try:
            eta_max, gamma = select_step_size(params, tau, delay, config.safety)
        except InfeasibleError:
            continue
        counts = theta.astype(int) * tau
        rounds = (config.horizon - t_now) / tau
        energy = rounds * (cost.global_energy + float(np.sum(counts * cost.local_energy)))
        delay_cost = rounds * (cost.global_delay + float(np.sum(counts * cost.local_delay)))
        j = 0
        while True:
            alpha = j * config.alpha_step
            j += 1
            try:
                consts = compute_constants(params, tau, delay, alpha, eta_max,
                                           gamma, e3_init)
            except InfeasibleError:
                break
            obj = config.energy_weight * energy + config.delay_weight * delay_cost \
                + config.bound_weight * theorem_bound(consts, (config.horizon - t_now) // tau)
            if best is None or obj < best[0]:
                best = (obj, tau, alpha)
    agree = best is not None and decision.tau_next == best[1] \
        and decision.alpha_next == best[2] and decision.objective == best[0]
    checks = [CheckResult("solver-matches-brute-force", agree,
                          0.0 if agree else -1.0,
                          f"decision tau={decision.tau_next}, alpha={decision.alpha_next}")]

    eta_max, gamma = select_step_size(params, decision.tau_next, delay, config.safety)
    from .analysis import alpha_limit

    cap = alpha_limit(params, decision.tau_next, delay, eta_max, gamma)
    ok = delay <= decision.tau_next <= min(config.tau_max, config.horizon - t_now) \
        and decision.alpha_next < cap
    checks.append(CheckResult("decision-satisfies-constraints", ok,
                              float(cap - decision.alpha_next)))
    return checks


SUITES = {
    "facts": suite_facts,
    "onestep": suite_onestep,
    "proposition": suite_proposition,
    "theorem": suite_theorem,
    "solver": suite_solver,
}


def run_suite(name: str, quick: bool = False) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if quick:
        overrides = {
            "facts": dict(trials=200),
            "onestep": dict(steps=120, e1_seeds=200),
            "proposition": dict(draws=30),
            "theorem": dict(num_seeds=60, num_syncs=20),
            "solver": dict(),
        }
        return SUITES[name](**overrides[name])
    return SUITES[name]()
