"""Adaptive parameter control: step-size selection, online estimation,
aggregation triggering, and the exhaustive-search interval/combiner solver.

The controller runs at each global aggregation: it re-estimates the loss
landscape and heterogeneity constants from the uploaded stale models,
derives feasible step-size parameters, forecasts the local-aggregation
load, and picks the next interval length and combiner weight by grid
search over a weighted energy + delay + gap-bound objective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    alpha_limit,
    compute_constants,
    eta_max_limit,
    gamma_limit,
    theorem_bound,
)
from .engine import IntervalPlan, Protocol, RunResult
from .errors import EstimationError, InfeasibleError
from .fleet import (
    FleetTopology,
    HeterogeneityParams,
    diversity_from_survey,
    gradient_survey,
    measure_sgd_noise,
    secant_range,
)
from .losses import LossModel, norms, second_moment, smoothness
from .netcost import TAG_PROBE, CostSnapshot, RadioCostModel, stream

# step size of an interval whose step-size problem is infeasible
ETA_FALLBACK = 1e-3


@dataclass(frozen=True)
class ControlConfig:
    """Weights and limits of the controller objective."""

    energy_weight: float = 0.0
    delay_weight: float = 0.0
    bound_weight: float = 1.0
    phi: float = 0.0
    tau_max: int = 30
    tau_min: int = 1
    alpha_step: float = 0.01
    horizon: int = 200
    safety: float = 0.9
    gamma_safety: float | None = None
    zeta_fraction: float = 0.1
    zeta_c_fraction: float = 0.1
    initial_tau: int = 10
    probe_count: int = 32
    probe_scale: float = 1.0

    def __post_init__(self):
        # phi = inf is legal: every subnet fits its budget, so none aggregates
        if not self.phi >= 0:
            raise ValueError("phi must be nonnegative")
        for name in ("energy_weight", "delay_weight", "bound_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0 < self.probe_scale < math.inf:
            raise ValueError("probe_scale must be positive and finite")
        if max(self.energy_weight, self.delay_weight, self.bound_weight) <= 0:
            raise ValueError("bound_weight must be positive when the other cost weights are 0")
        if not 0.0 < self.alpha_step < 1.0:
            raise ValueError("alpha_step must lie in (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.tau_max < 2:
            raise ValueError("tau_max must be >= 2")
        if not 1 <= self.tau_min <= self.tau_max:
            raise ValueError("tau_min must lie in [1, tau_max]")
        if self.initial_tau < 1:
            raise ValueError("initial_tau must be >= 1")
        if self.probe_count < 2:
            raise ValueError("probe_count must be >= 2")
        for name in ("safety", "zeta_fraction", "zeta_c_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.gamma_safety is not None and not 0.0 < self.gamma_safety < 1.0:
            raise ValueError("gamma_safety must lie in (0, 1)")


@dataclass(frozen=True)
class ControlDecision:
    tau_next: int
    alpha_next: float
    alpha_cap: float
    eta_max: float
    gamma: float
    theta_plan: tuple
    agg_counts: tuple
    energy_term: float
    delay_term: float
    bound_term: float
    objective: float
    fallback: bool = False
    estimates_reused: bool = False   # the uploads were degenerate; previous estimates kept
    # the interval that ended here: local aggregations per subnet (realized,
    # next to the forecast agg_counts) and the delay after the tau - 1 clamp
    theta_counts: tuple = ()
    delay_eff: int | None = None


def select_step_size(params: HeterogeneityParams, tau: int, delay: int,
                     safety: float = 0.9,
                     gamma_safety: float | None = None) -> tuple[float, float]:
    """Strictly feasible (eta_max, gamma): a fixed fraction of each limit.

    ``gamma_safety`` defaults to ``safety``; the two margins can be split
    because a mild step size combined with a near-limit decay rate is the
    regime where the gap bound rewards a nonzero combiner weight.
    """
    em = safety * eta_max_limit(params, tau, delay)
    if gamma_safety is None:
        gamma_safety = safety
    return em, gamma_safety * gamma_limit(params, tau, delay, em)


def aggregation_indicators(contributions: np.ndarray, phi: float) -> np.ndarray:
    """Greedy subnet selection until the residual deviation fits the budget.

    Marks subnets in decreasing contribution order (ties by index) until
    the sum over unmarked subnets is at most phi^2.
    """
    contributions = np.asarray(contributions, dtype=np.float64)
    if (contributions < 0).any():
        raise ValueError("contributions must be nonnegative")
    theta = np.zeros(contributions.size, dtype=bool)
    budget = phi * phi
    order = np.lexsort((np.arange(contributions.size), -contributions))
    for idx in order:
        if contributions[~theta].sum() <= budget:
            break
        theta[idx] = True
    return theta


def subnet_contributions(gap_estimates: np.ndarray, subnet_weights: np.ndarray,
                         params: HeterogeneityParams) -> np.ndarray:
    """Per-subnet deviation-budget terms: varrho_c*(2*delta_c^2 + 4*omega_c^2*beta^2*gap_c^2).

    Every operation is monotone on nonnegative floats, so for nonnegative
    weights a term never falls when its gap grows. beta^2 is a float64
    square (inf past 1e154, where a Python float square raises).
    """
    base, slope = _contribution_terms(params)
    return np.asarray(subnet_weights, dtype=np.float64) * (
        base + slope * np.asarray(gap_estimates, dtype=np.float64) ** 2)


def _contribution_terms(params: HeterogeneityParams):
    """(2*delta_c^2, 4*omega_c^2*beta^2), the two factors of every contribution."""
    return 2.0 * params.intra_delta ** 2, 4.0 * params.omega_c ** 2 * np.float64(params.beta) ** 2


def open_subnets(topology: FleetTopology, params: HeterogeneityParams, phi: float):
    """The subnets whose floor, the contribution at gap 0, is at most phi^2 (a mask)."""
    zero = np.zeros(topology.num_subnets)
    return ~(subnet_contributions(zero, topology.subnet_weights, params) > phi * phi)


class TriggerReference:
    """The trigger's memory over one run: per subnet, the last aggregate b_c at which
    ``deviation_marks`` evaluated grad F, and r_c, the norm it computed there (NaN
    before the first). The norms do not depend on the estimates: they hold across intervals.

    ``norm_bounds`` brackets the norm that the exact path would compute at
    an aggregate a_c: r_c +- (L'*||a_c - b_c|| + e(a_c) + e(b_c) + kappa*r_c).

    * L = c*lambda_max(P) + reg*W is a Lipschitz constant of grad F
      (``losses.smoothness``), with P = sum_i |g_i| X_i'X_i/n_i over the
      global weights g, W = sum_i |g_i|, and c = ``model.curvature``.
    * e(w) bounds how far the computed norm sits from ||grad F(w)||. Each
      entry of the computed gradient is built from dot products and sums of
      fewer than K = m + n + D + N + M + 8 terms (features, points of the
      largest device, devices, subnets, model entries, and the single
      roundings between them), so with u = 2^-53 it is off by at most
      gamma_K ~ K*u times the same sum taken in absolute values, whose norm
      is at most A*||w|| + B: A = c*trace(P) + reg*W (||X'X|| <= ||X||_F^2)
      and, by Cauchy-Schwarz, B = c*t*sqrt(C*trace(P)*W), t the largest
      kernel target in absolute value and C the targets per point. The
      norm's dot product and square root add gamma_M of it again, so
      e(w) <= kappa*(A*||w|| + B) with kappa = 4*K*u, twice what is needed.
    * L itself is computed: eigvalsh is backward stable (error at most
      about m*u*||P||) and each entry of P carries gamma_K, so
      L' = L + kappa*A (A >= ||P||, A >= L); the distance, computed in
      float too, is scaled by 1 + kappa. The kappa*r_c term, with the
      margin of kappa, covers the few roundings of this arithmetic.
    """

    def __init__(self, topology: FleetTopology, model: LossModel):
        weights = np.abs(topology.global_weights())
        weight_sum = float(np.sum(weights))
        pooled = second_moment(topology.datasets, weights)
        trace = model.curvature * float(np.trace(pooled))       # c*trace(P)
        targets = topology.stack.layout(model)[0]
        terms = (model.feature_dim + int(topology.stack.counts.max()) + topology.num_devices
                 + topology.num_subnets + model.model_dim + 8)
        self.kappa = 4.0 * terms * 2.0 ** -53
        self.slope = trace + model.regularization * weight_sum     # A
        self.offset = float(np.abs(targets).max()) * math.sqrt(
            model.curvature * trace * targets[:1].size * weight_sum)
        self.lipschitz = (smoothness(model, pooled, weight_sum) + self.kappa * self.slope) \
            * (1.0 + self.kappa)
        self.points = np.full((topology.num_subnets, model.model_dim), np.nan)
        self.point_norms = np.full(topology.num_subnets, np.nan)
        self.grad_norms = np.full(topology.num_subnets, np.nan)
        self._terms = (None, None, None)

    def terms(self, topology: FleetTopology, params: HeterogeneityParams, phi: float):
        """The open mask of ``open_subnets`` and the open subnets' weights and
        ``_contribution_terms``, built again only for new estimates or a new phi."""
        if self._terms[0] is not params or self._terms[1] != phi:
            open_ = open_subnets(topology, params, phi)
            terms = (np.broadcast_to(t, open_.shape)[open_] for t in _contribution_terms(params))
            self._terms = (params, phi, (open_, topology.subnet_weights[open_], *terms))
        return self._terms[2]

    def store(self, subnets: np.ndarray, points: np.ndarray, grad_norms: np.ndarray) -> None:
        """Exact norms at the aggregates of ``subnets`` (a mask or subnet ids)."""
        self.points[subnets] = points
        self.point_norms[subnets] = norms(points)
        self.grad_norms[subnets] = grad_norms

    def norm_bounds(self, subnets: np.ndarray, points: np.ndarray):
        """(lo, hi) around the norms the exact path computes at ``points``, lo at
        least 0; NaN for a subnet with no reference."""
        ref = self.grad_norms[subnets]
        spread = self.lipschitz * norms(points - self.points[subnets]) + self.kappa * (
            self.slope * (norms(points) + self.point_norms[subnets]) + 2.0 * self.offset + ref)
        return np.maximum(ref - spread, 0.0), ref + spread


def _cut(hi: list, budget: float):
    """(order, r): the subnets by ascending hi; the first r sum to at most ``budget``."""
    order = sorted(range(len(hi)), key=hi.__getitem__)
    return order, sum(total <= budget for total in itertools.accumulate(hi[i] for i in order))


def certified_marks(lo: np.ndarray, hi: np.ndarray, phi: float) -> np.ndarray | None:
    """The greedy's marks for any contributions c with lo <= c <= hi, or None
    when these intervals do not fix them.

    With R the first r subnets of ``_cut`` and S the rest, the marks are S if every
    lo[S] exceeds every hi[R] (the greedy marks all of S before any of R, ties or
    not), sum hi[R] < phi^2 (it stops once S is marked) and sum lo[R] + min lo[S] >
    phi^2 (it stops no sooner): any S that passes is the greedy's set. The sums are
    exact (``math.fsum``), with a relative slack of 4*N*2^-52 over the (N - 1)*2^-53
    error of numpy's sum of N terms. An infinite budget marks no finite term.
    """
    budget, lo, hi = phi * phi, lo.tolist(), hi.tolist()
    finite = all(map(math.isfinite, hi))
    if budget == math.inf and finite:    # before fsum, which may overflow
        return np.zeros(len(hi), dtype=bool)
    if not (0.0 < budget < math.inf and finite and all(x >= 0 for x in lo)):
        return None
    order, r = _cut(hi, budget)
    rest_hi, least = [hi[i] for i in order[:r]], min((lo[i] for i in order[r:]), default=math.inf)
    slack = 1.0 + 4.0 * len(lo) * 2.0 ** -52
    if least > max(rest_hi, default=-math.inf) and math.fsum(rest_hi) * slack < budget \
            and (r == len(lo) or math.fsum([*(lo[i] for i in order[:r]), least]) > budget * slack):
        marks = np.ones(len(hi), dtype=bool)
        marks[order[:r]] = False
        return marks
    return None


def deviation_marks(subnet_aggregates: np.ndarray, topology: FleetTopology,
                    model: LossModel, params: HeterogeneityParams, phi: float,
                    reference: TriggerReference | None = None) -> np.ndarray:
    """The greedy's marks for the subnet aggregates, as if every gap were evaluated.

    Gaps are monitored through strong convexity, ||grad F(w)|| >= mu*||w - w*||:
    gap_c = ||grad F(aggregate_c)|| / mu. grad F is evaluated only at the open subnets,
    whose floor (contribution at gap 0) is at most phi^2. The marks equal those of
    evaluating every gap, bit for bit: + and * are monotone on nonnegative floats, so
    no contribution is below its floor, and any unmarked set holding a closed subnet
    sums above the budget; the greedy marks every closed subnet and stops at the same
    suffix of open subnets.

    With a ``reference``, each open subnet's computed norm lies in the interval of
    ``reference.norm_bounds``; division by mu and the contribution are monotone and
    correctly rounded, so ``certified_marks`` on the contributions at the interval
    ends gives the exact path's marks when it gives any. Otherwise grad F is
    evaluated, in one call, only where the intervals leave the marks undecided (no
    reference, or an interval across the cut between S and R), those intervals
    shrink to the exact contributions (a point's gradient does not depend on the
    points evaluated with it), and the certificate is tried again; failing that,
    grad F is evaluated at the other open subnets too. Each norm becomes a reference.
    """
    open_, weights, base, slope = (open_subnets(topology, params, phi), None, None, None) \
        if reference is None else reference.terms(topology, params, phi)
    theta = ~open_
    if not open_.any():
        return theta
    points = subnet_aggregates[open_]
    grad_norms = np.full(points.shape[0], np.nan)     # NaN until evaluated

    def contributions(norm_values):     # of the open subnets, at these norms of grad F
        return weights * (base + slope * (norm_values / params.mu) ** 2)

    def evaluate(subnets):              # grad F at the open subnets of the mask ``subnets``
        grad_norms[subnets] = norms(topology.global_gradients(model, points[subnets]))
        if reference is not None:
            reference.store(np.flatnonzero(open_)[subnets], points[subnets], grad_norms[subnets])

    if reference is not None:
        lo, hi = (contributions(ends) for ends in reference.norm_bounds(open_, points))
        marks = certified_marks(lo, hi, phi)
        if marks is None:   # grad F where intervals are not finite, else cross the cut, else all
            undecided = ~(np.isfinite(lo) & np.isfinite(hi))
            if not undecided.any() and 0.0 < phi * phi < math.inf:
                order, r = _cut(hi.tolist(), phi * phi)     # S = order[r:], R = order[:r]
                undecided[order[r:]] = lo[order[r:]] <= hi[order[:r]].max(initial=-math.inf)
                undecided[order[:r]] = hi[order[:r]] >= lo[order[r:]].min(initial=math.inf)
            undecided |= ~undecided.any()
            evaluate(undecided)
            lo[undecided] = hi[undecided] = contributions(grad_norms)[undecided]
            marks = certified_marks(lo, hi, phi)
        if marks is not None:
            theta[open_] = marks
            return theta
    if np.isnan(grad_norms).any():
        evaluate(np.isnan(grad_norms))
    gaps = np.zeros(topology.num_subnets)
    gaps[open_] = grad_norms / params.mu
    return aggregation_indicators(
        subnet_contributions(gaps, topology.subnet_weights, params), phi)


def trigger_local_aggregation(subnet_aggregates: np.ndarray, topology: FleetTopology,
                              model: LossModel, params: HeterogeneityParams, phi: float,
                              reference: TriggerReference | None = None) -> np.ndarray:
    """Per-slot aggregation indicators: the slot's ``deviation_marks``. The
    planner calls that step directly, so these calls count the slots."""
    return deviation_marks(subnet_aggregates, topology, model, params, phi, reference)


def estimate_parameters(models: np.ndarray, gradients: np.ndarray | None,
                        topology: FleetTopology, model: LossModel,
                        zeta_fraction: float, zeta_c_fraction: float,
                        phi: float, w_star: np.ndarray | None = None) -> HeterogeneityParams:
    """Heterogeneity estimates from one round of uploaded (model, gradient) pairs.

    Secant ratios over consecutive uploads give (mu_hat, beta_hat);
    diversity is measured at the uploads with zeta_hat = fraction*2*beta_hat.
    When w_star is unknown the ||w - w*|| factors are replaced by the
    strong-convexity surrogate ||grad F(w)|| / mu_hat. sigma_hat is the
    largest observed gap between an uploaded stochastic gradient and the
    device's exact gradient.
    """
    models = np.asarray(models, dtype=np.float64)
    if models.ndim != 2 or models.shape[0] < 2:
        raise EstimationError("need at least two uploaded models")
    # uploads too far out to measure leave the secants inf or NaN, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        global_grads, subnet_gaps, device_gaps, own = gradient_survey(topology, model, models)
        mu_hat, beta_hat = secant_range(models[:-1], models[1:],
                                        global_grads[:-1], global_grads[1:])
    if not np.isfinite([mu_hat, beta_hat]).all():
        raise EstimationError(f"secant estimates are not finite: mu_hat={mu_hat}, "
                              f"beta_hat={beta_hat}")
    # the analysis needs mu < beta strictly; nudge degenerate (isotropic) cases
    beta_hat = max(beta_hat, mu_hat * (1.0 + 1e-9))
    zeta_hat = zeta_fraction * 2.0 * beta_hat
    zeta_c_hat = zeta_c_fraction * 2.0 * beta_hat

    if w_star is None:
        distances = norms(global_grads) / mu_hat
    else:
        distances = norms(models - w_star)
    delta_hat, delta_c_hat = diversity_from_survey(
        topology, subnet_gaps, device_gaps, zeta_hat, zeta_c_hat, distances)

    sigma_hat = 0.0
    if gradients is not None:
        sigma_hat = float(np.fmax.reduce(
            norms(np.asarray(gradients, dtype=np.float64) - own), initial=0.0))

    return HeterogeneityParams(
        mu=mu_hat, beta=beta_hat,
        inter_delta=delta_hat, inter_zeta=zeta_hat,
        intra_delta=delta_c_hat,
        intra_zeta=np.full(topology.num_subnets, zeta_c_hat),
        sgd_noise=sigma_hat, subnet_noise_budget=phi,
    )


def bootstrap_estimates(topology: FleetTopology, model: LossModel,
                        w_init: np.ndarray, seed: int, config: ControlConfig,
                        batch_size: int) -> HeterogeneityParams:
    """Initial estimates from random probes around the starting model."""
    rng = stream(seed, TAG_PROBE)
    with np.errstate(over="ignore"):    # probes past the float range are refused below
        probes = w_init[None, :] + config.probe_scale \
            * rng.standard_normal((config.probe_count, w_init.size))
    params = estimate_parameters(probes, None, topology, model,
                                 config.zeta_fraction, config.zeta_c_fraction,
                                 config.phi)
    sigma = measure_sgd_noise(topology, model, [w_init], batch_size, rng, repeats=4)
    return replace(params, sgd_noise=max(params.sgd_noise, sigma))


@np.errstate(over="ignore", invalid="ignore")
def solve_p(cost: CostSnapshot, params: HeterogeneityParams,
            config: ControlConfig, theta: np.ndarray, t_now: int,
            delay: int, e3_init: float) -> ControlDecision:
    """Exhaustive grid minimizer of the energy/delay/bound objective, with
    ``theta`` the subnets forecast to aggregate in every slot.

    Scans integer interval lengths tau in [max(delay, tau_min), min(tau_max,
    T - t_now)] and combiner weights on the alpha_step grid below the
    per-tau feasibility ceiling; the gap bound is evaluated at the end of
    the remaining horizon (K = floor((T - t_now)/tau) decay steps). Ties
    break toward smaller tau, then smaller alpha; a point whose objective is
    not finite (its bound overflowed) is skipped. A term whose weight is 0
    is left out of the objective, so an unweighted cost that overflows
    cannot make it NaN (0 * inf); with finite terms the sum is the same.
    Raises InfeasibleError when no grid point is left.
    """
    horizon_left = config.horizon - t_now
    tau_hi = min(config.tau_max, horizon_left)
    tau_lo = max(delay, config.tau_min, 1)

    best = None
    for tau in range(tau_lo, tau_hi + 1):
        try:
            eta_max, gamma = select_step_size(params, tau, delay, config.safety,
                                              config.gamma_safety)
            alpha_cap = min(alpha_limit(params, tau, delay, eta_max, gamma), 1.0)
        except InfeasibleError:
            continue
        agg_counts = theta.astype(np.int64) * tau    # constant-gap forecast
        rounds = horizon_left / tau
        energy = rounds * (cost.global_energy
                           + float(np.sum(agg_counts * cost.local_energy)))
        delay_cost = rounds * (cost.global_delay
                               + float(np.sum(agg_counts * cost.local_delay)))
        k_end = horizon_left // tau
        costs = sum(weight * term for weight, term in ((config.energy_weight, energy),
                                                       (config.delay_weight, delay_cost))
                    if weight)
        j = 0
        while True:
            alpha = j * config.alpha_step
            if alpha >= alpha_cap:
                break
            consts = compute_constants(params, tau, delay, alpha, eta_max,
                                       gamma, e3_init)
            nu = theorem_bound(consts, k_end)
            objective = costs + config.bound_weight * nu if config.bound_weight else costs
            if math.isfinite(objective) and (best is None or objective < best.objective):
                best = ControlDecision(
                    tau_next=tau, alpha_next=alpha, alpha_cap=alpha_cap,
                    eta_max=eta_max, gamma=gamma,
                    theta_plan=tuple(bool(x) for x in theta),
                    agg_counts=tuple(int(x) for x in agg_counts),
                    energy_term=energy, delay_term=delay_cost, bound_term=nu,
                    objective=objective,
                )
            j += 1
    if best is None:
        raise InfeasibleError(
            f"no feasible (tau, alpha) grid point for t={t_now}, delay={delay}"
        )
    return best


def fallback_decision(delay: int, horizon_left: int) -> ControlDecision:
    """Protocol-valid decision used when the solver finds no feasible point."""
    tau = min(max(delay + 1, 1), max(horizon_left, 1))
    return ControlDecision(
        tau_next=tau, alpha_next=0.0, alpha_cap=float("nan"),
        eta_max=float("nan"), gamma=float("nan"),
        theta_plan=(), agg_counts=(), energy_term=0.0, delay_term=0.0,
        bound_term=float("nan"), objective=float("nan"), fallback=True,
    )


def run_adaptive(topology: FleetTopology, model: LossModel,
                 config: ControlConfig, seed: int, batch_size: int,
                 delay: int, up_delay: int | None = None,
                 cost_model: RadioCostModel | None = None,
                 **engine_kwargs) -> RunResult:
    """Full adaptive run: estimate, re-plan and train interval by interval.
    ``engine_kwargs`` go to the ``Protocol``; the bootstrap probes its start."""
    proto = Protocol(topology, model, seed, batch_size, cost_model=cost_model,
                     **engine_kwargs)
    params_hat = bootstrap_estimates(topology, model, proto.w[0], seed, config, batch_size)

    reference = TriggerReference(topology, model)
    decisions: list[ControlDecision] = []
    sync_times: list[int] = []
    tau_next, alpha_next = config.initial_tau, 0.0
    while proto.t < config.horizon:
        remaining = config.horizon - proto.t
        tau = min(tau_next, remaining)
        delay_eff = min(delay, tau - 1)
        up_eff = None if up_delay is None else min(up_delay, delay_eff)
        try:
            eta_max, gamma = select_step_size(params_hat, tau, delay_eff,
                                              config.safety, config.gamma_safety)
            eta_k = eta_max / (1.0 + gamma * proto.k)
        except InfeasibleError:
            eta_k = ETA_FALLBACK
        plan = IntervalPlan(tau=tau, alpha=alpha_next, eta=eta_k,
                            delay=delay_eff, up_delay=up_eff)

        def theta_policy(t, tentative, aggregates):
            return trigger_local_aggregation(
                aggregates, topology, model, params_hat, config.phi, reference)

        outcome = proto.run_interval(plan, theta_policy=theta_policy)
        sync_times.append(proto.t)

        reused = False
        try:
            params_hat = estimate_parameters(
                outcome.stale_models, outcome.stale_gradients, topology, model,
                config.zeta_fraction, config.zeta_c_fraction, config.phi)
        except EstimationError:
            reused = True    # degenerate uploads: keep the previous estimates

        e3_init = float(norms(topology.global_gradient(model, outcome.snapshot))) / params_hat.mu
        # the forecast marks: the trigger's step at the uploads' subnet aggregates
        theta = deviation_marks(topology.subnet_sums(outcome.stale_models), topology, model,
                                params_hat, config.phi, reference)
        # the capture uplinks at the prices the engine charged for them
        cost = CostSnapshot(*cost_model.global_event(outcome.capture_t),
                            *outcome.capture_prices) if cost_model is not None \
            else CostSnapshot(0.0, 0.0, np.zeros(topology.num_subnets),
                              np.zeros(topology.num_subnets))
        try:
            decision = solve_p(cost, params_hat, config, theta, proto.t, delay, e3_init)
        except InfeasibleError:
            decision = fallback_decision(delay, config.horizon - proto.t)
        decisions.append(replace(decision, estimates_reused=reused, delay_eff=delay_eff,
                                 theta_counts=tuple(outcome.theta_counts.tolist())))
        tau_next, alpha_next = decision.tau_next, decision.alpha_next

    return proto.result(sync_times=np.asarray(sync_times), decisions=decisions)
