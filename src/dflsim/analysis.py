"""Closed-form convergence machinery for the delay-aware protocol.

Covers the coupled dispersion/gap dynamics matrix and its eigensystem,
the inter-synchronization recursion constants, feasibility limits on the
step-size schedule and combiner weight, the end-to-end optimality-gap
bound, and the deterministic noise-free companion dynamics used to
validate all of it empirically.

Conventions: ``tau`` is the interval length in SGD slots, ``delay`` the
round-trip delay in slots (0 <= delay < tau), ``alpha`` the combiner
weight, and the step size decays as eta_k = eta_max / (1 + gamma*k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .fleet import FleetTopology, HeterogeneityParams
from .losses import LossModel, _dots, norms


# ---------------------------------------------------------------------------
# coupled-dynamics matrix and eigensystem


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of the 2x2 dispersion/gap coupling matrix.

    matrix = [[1 - mu/beta, 2*omega], [1, -mu/beta]] acts on the
    (dispersion, gap) pair; eig_plus > 0 >= eig_minus under
    0 < mu/beta < 1.
    """

    mu_over_beta: float
    omega: float
    matrix: np.ndarray
    eig_plus: float
    eig_minus: float
    basis: np.ndarray
    basis_inv: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.basis @ np.diag([self.eig_plus, self.eig_minus]) @ self.basis_inv

    # coefficients of the gap row of U (I + eta*beta*D)^s U^{-1} and of the
    # accumulated forcing term; closed forms depend only on omega and the
    # eigenvalues.
    @property
    def g1(self) -> float:
        return float(self.basis[1, 0] * self.basis_inv[0, 1])

    @property
    def g2(self) -> float:
        return float(self.basis[1, 1] * self.basis_inv[1, 1])

    @property
    def g3(self) -> float:
        return float(self.basis[1, 0] * self.basis_inv[0, 0])

    @property
    def g4(self) -> float:
        return float(self.basis[1, 1] * self.basis_inv[1, 0])

    @property
    def g5(self) -> float:
        return float(self.basis[1, 0] * self.basis_inv[0, 0] / self.eig_plus)

    @property
    def g6(self) -> float:
        return float(self.basis[1, 1] * self.basis_inv[1, 0] / self.eig_minus)


def eigen_system(mu_over_beta: float, omega: float) -> EigenSystem:
    if not 0.0 < mu_over_beta < 1.0:
        raise InfeasibleError(f"need 0 < mu/beta < 1, got {mu_over_beta}")
    if not 0.0 <= omega <= 1.0:
        raise InfeasibleError(f"need 0 <= omega <= 1, got {omega}")
    root = math.sqrt(8.0 * omega + 1.0)
    lam_plus = 0.5 - mu_over_beta + root / 2.0
    lam_minus = 0.5 - mu_over_beta - root / 2.0
    matrix = np.array([[1.0 - mu_over_beta, 2.0 * omega],
                       [1.0, -mu_over_beta]])
    basis = np.array([[0.5 * (1.0 + root), -0.5 * (root - 1.0)],
                      [1.0, 1.0]])
    basis_inv = (1.0 / root) * np.array([[1.0, 0.5 * (root - 1.0)],
                                         [-1.0, 0.5 * (root + 1.0)]])
    return EigenSystem(mu_over_beta, omega, matrix, lam_plus, lam_minus, basis, basis_inv)


# ---------------------------------------------------------------------------
# feasibility limits


# Constants such as C3 and the Y2 denominator are small differences of
# large terms evaluated near feasibility boundaries; the scalar pipeline
# runs in extended precision so their float64 results keep ~1e-15
# relative accuracy even there.
_LD = np.longdouble


def _lam_plus_ld(params: HeterogeneityParams):
    root = np.sqrt(_LD(8.0) * _LD(params.omega) + _LD(1.0))
    return _LD(0.5) - _LD(params.mu) / _LD(params.beta) + root / _LD(2.0)


def _growth_ld(params: HeterogeneityParams, tau: int):
    """(1 + lam_plus)^tau - 1 - tau*lam_plus; refused, naming tau, if it overflows."""
    lam = _lam_plus_ld(params)
    with np.errstate(over="ignore"):
        power = (_LD(1.0) + lam) ** tau
    _require(np.isfinite(power), f"tau: (1 + lam_plus)^tau overflows at tau={tau}")
    return power - _LD(1.0) - _LD(tau) * lam


def eta_max_limit(params: HeterogeneityParams, tau: int, delay: int) -> float:
    """Upper limit on eta_max: min of the contraction and curvature branches."""
    _require(tau > delay, "need tau > delay for a positive contraction budget, "
             f"got tau={tau}, delay={delay}")
    _require(delay >= 0, f"delay must be nonnegative, got {delay}")
    mu, beta = _LD(params.mu), _LD(params.beta)
    branch1 = _LD(2.0) / (beta + mu)
    growth = _growth_ld(params, tau)
    if growth <= 0.0:                  # tau = 1: the curvature branch is vacuous
        return float(branch1)
    branch2 = _LD(tau - delay) * mu / (beta ** 2 * growth)
    return float(min(branch1, branch2))


def _one_minus_contraction(x, power: int):
    """1 - (1 - x)^power without the cancellation of the direct form."""
    return -np.expm1(_LD(power) * np.log1p(-_LD(x)))


def gamma_limit(params: HeterogeneityParams, tau: int, delay: int, eta_max: float) -> float:
    """Upper limit on the step-decay rate gamma given eta_max."""
    em_lim = eta_max_limit(params, tau, delay)
    _require(eta_max < em_lim, f"eta_max {eta_max} >= its limit {em_lim}")
    return _gamma_limit(params, tau, delay, eta_max)


def _gamma_limit(params: HeterogeneityParams, tau: int, delay: int, eta_max: float) -> float:
    branch1 = _one_minus_contraction(params.mu * eta_max, 2 * (tau - delay))
    c3 = _c3_ld(params, tau, delay, eta_max)
    return float(min(branch1, c3 * _LD(eta_max) * _LD(params.beta)))


def alpha_limit(params: HeterogeneityParams, tau: int, delay: int,
                eta_max: float, gamma: float) -> float:
    """Largest admissible combiner weight for the sublinear guarantee."""
    return feasibility_limits(params, tau, delay, eta_max, gamma).alpha_star


@dataclass(frozen=True)
class FeasibilityLimits:
    eta_max_limit: float
    gamma_limit: float
    alpha_star: float


def feasibility_limits(params: HeterogeneityParams, tau: int, delay: int,
                       eta_max: float, gamma: float) -> FeasibilityLimits:
    """The three limits, each evaluated once, at the supplied (eta_max, gamma)."""
    em_lim = eta_max_limit(params, tau, delay)
    _require(eta_max < em_lim, f"eta_max {eta_max} >= its limit {em_lim}")
    g_lim = _gamma_limit(params, tau, delay, eta_max)
    _require(0.0 < gamma < g_lim, f"gamma {gamma} outside (0, {g_lim})")
    beta, em, gm = _LD(params.beta), _LD(eta_max), _LD(gamma)
    c2 = _c2_ld(params, tau)
    c3 = _c3_ld(params, tau, delay, eta_max)
    grow = (_LD(1.0) + _lam_plus_ld(params)) ** tau
    denom = (c2 * em ** 2 / (em * beta * c3 - gm)) \
        * _LD(2.0) * _LD(params.omega) * c2 * (_LD(1.0) + gm) \
        + (_LD(1.0) + gm) * grow
    return FeasibilityLimits(em_lim, g_lim, float(_LD(1.0) / denom))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InfeasibleError(message)


# ---------------------------------------------------------------------------
# inter-synchronization constants


def _c2_ld(params: HeterogeneityParams, tau: int):
    root = np.sqrt(_LD(8.0) * _LD(params.omega) + _LD(1.0))
    lam = _lam_plus_ld(params)
    return _LD(2.0) * _LD(params.beta) / root * ((_LD(1.0) + lam) ** tau - _LD(1.0))


def _c3_ld(params: HeterogeneityParams, tau: int, delay: int, eta_max: float):
    mu, beta = _LD(params.mu), _LD(params.beta)
    return _LD(tau - delay) * mu / beta \
        - _LD(eta_max) * beta * _growth_ld(params, tau)


@dataclass(frozen=True)
class BoundConstants:
    """Everything the gap bound needs, frozen for one (tau, delay, alpha) regime."""

    mu: float
    beta: float
    omega: float
    delta: float
    sigma: float
    phi: float
    tau: int
    delay: int
    alpha: float
    eta_max: float
    gamma: float
    e3_init: float
    eigen: EigenSystem
    c1: float
    c2: float
    c3: float
    k1: float
    k2: float
    y1: float
    y2: float
    y3: float
    alpha_star: float
    eta_max_limit: float
    gamma_limit: float

    def eta_at(self, k: int) -> float:
        return self.eta_max / (1.0 + self.gamma * k)

    def pi_plus(self, eta: float, steps: int) -> float:
        return (1.0 + eta * self.beta * self.eigen.eig_plus) ** steps

    def pi_minus(self, eta: float, steps: int) -> float:
        return (1.0 + eta * self.beta * self.eigen.eig_minus) ** steps


def compute_constants(params: HeterogeneityParams, tau: int, delay: int,
                      alpha: float, eta_max: float, gamma: float,
                      e3_init: float = 0.0, check: bool = True) -> BoundConstants:
    """Evaluate the full inter-synchronization constant set.

    Validates every feasibility inequality (naming the violated one) and
    assembles C1..C3, K1, K2, the induction envelopes Y1..Y3, and the
    combiner-weight ceiling alpha_star. With ``check=False`` the formulas
    are evaluated without the guards (the envelopes are then meaningless
    outside the feasible region; useful only for cross-checking).
    """
    if check:
        limits = feasibility_limits(params, tau, delay, eta_max, gamma)
        em_lim, g_lim, a_star = limits.eta_max_limit, limits.gamma_limit, limits.alpha_star
        _require(0.0 < eta_max, f"eta_max {eta_max} outside (0, {em_lim})")
        _require(0.0 <= alpha < min(a_star, 1.0),
                 f"alpha {alpha} outside [0, {min(a_star, 1.0)})")
    else:
        em_lim, g_lim, a_star = eta_max_limit(params, tau, delay), float("nan"), float("nan")

    eig = eigen_system(params.mu / params.beta, params.omega)
    one = _LD(1.0)
    mu, beta, omega = _LD(params.mu), _LD(params.beta), _LD(params.omega)
    delta = _LD(params.inter_delta)
    al, em, gm, e30 = _LD(alpha), _LD(eta_max), _LD(gamma), _LD(e3_init)
    root = np.sqrt(_LD(8.0) * omega + one)
    lam_p = _lam_plus_ld(params)
    lam_m = one - _LD(2.0) * mu / beta - lam_p    # lam_+ + lam_- = 1 - 2 mu/beta
    grow = (one + lam_p) ** tau

    c1 = (one - al) * _one_minus_contraction(params.mu * eta_max, 2 * (tau - delay)) \
        + al * _one_minus_contraction(params.mu * eta_max, 2 * tau)
    c2 = _c2_ld(params, tau)
    c3 = _c3_ld(params, tau, delay, eta_max)
    k1 = mu / (-beta * lam_p * lam_m) * (grow - one)
    k2 = beta / root * sum(
        _LD(math.comb(tau, ell + 2)) * (lam_p ** (ell + 1) - lam_m ** (ell + 1))
        for ell in range(tau - 1)
    )

    noise = _LD(params.sgd_noise) ** 2 + _LD(params.subnet_noise_budget) ** 2
    y1 = np.sqrt((_LD(tau) - (one - al) * _LD(delay)) * noise * em / (c1 - gm))

    # Induction envelopes for dispersion (Y2) and gap (Y3). Two constraints
    # pin Y2: compatibility of the Y3 floor e3_init/eta_max with the
    # dispersion recursion, and compatibility of the two Y3 branches; Y2 is
    # the max of the two resulting lower bounds.
    shrink = one - al * (one + gm) * grow          # > 0 iff alpha < alpha*
    e_term = em * al * _LD(2.0) * omega * c2 * (one + gm)
    g_term = em * beta * c3 - gm                   # > 0 iff gamma < its limit
    y2_a = (al * _LD(2.0) * omega * c2 * (one + gm) * e30
            + al * k1 * delta * (one + gm)) / shrink
    y2_b_den = g_term * shrink - e_term * em * c2
    y2_b = delta * (e_term * em * k2 + g_term * al * k1 * (one + gm)) / y2_b_den
    y2 = max(y2_a, y2_b)
    y3 = max(e30 / em, (c2 * y2 + k2 * delta) * em / g_term)

    return BoundConstants(
        mu=params.mu, beta=params.beta, omega=params.omega, delta=params.inter_delta,
        sigma=params.sgd_noise, phi=params.subnet_noise_budget,
        tau=tau, delay=delay, alpha=alpha, eta_max=eta_max, gamma=gamma,
        e3_init=e3_init, eigen=eig,
        c1=float(c1), c2=float(c2), c3=float(c3), k1=float(k1), k2=float(k2),
        y1=float(y1), y2=float(y2), y3=float(y3),
        alpha_star=a_star, eta_max_limit=em_lim, gamma_limit=g_lim,
    )


def theorem_bound(constants: BoundConstants, k: int) -> float:
    """Optimality-gap envelope nu_k = 2*Y1^2*eta_k + 2*Y3^2*eta_k^2; inf when it overflows."""
    eta_k = constants.eta_at(k)
    try:
        return 2.0 * constants.y1 ** 2 * eta_k + 2.0 * constants.y3 ** 2 * eta_k ** 2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# one-step and inter-sync oracles


def one_step_bounds(params: HeterogeneityParams, e1_sq: float, e2: float,
                    e3: float, eta: float):
    """Right-hand sides of the single-slot error recursions.

    Valid for eta <= 2/(mu + beta); returns the bounds on
    (e1^2, e2, e3) after one SGD slot inside an interval.
    """
    if eta > 2.0 / (params.mu + params.beta):
        raise InfeasibleError(
            f"eta {eta} > 2/(mu+beta) = {2.0 / (params.mu + params.beta)}"
        )
    mu, beta = params.mu, params.beta
    noise = params.sgd_noise ** 2 + params.subnet_noise_budget ** 2
    b1 = (1.0 - mu * eta) ** 2 * e1_sq + eta ** 2 * noise
    b2 = (1.0 + eta * (beta - mu)) * e2 \
        + 2.0 * params.omega * eta * beta * e3 + eta * params.inter_delta
    b3 = (1.0 - eta * mu) * e3 + eta * beta * e2
    return b1, b2, b3


def proposition_step(constants: BoundConstants, e1_sq: float, e2: float,
                     e3: float, eta_k: float, tight: bool = False):
    """Inter-synchronization error recursion, simplified or tight form.

    The simplified form uses the frozen C/K constants; the tight form
    evaluates the eigen-expansion coefficients at the actual eta_k. The
    simplified form dominates the tight one whenever eta*beta <= 1 and
    mu/beta <= 1/2 (the regime its derivation assumes).
    """
    c = constants
    mu, beta, omega, delta = c.mu, c.beta, c.omega, c.delta
    alpha, tau, delay = c.alpha, c.tau, c.delay
    noise = c.sigma ** 2 + c.phi ** 2

    if not tight:
        b1 = (1.0 - eta_k / c.eta_max * c.c1) * e1_sq \
            + eta_k ** 2 * (tau - (1.0 - alpha) * delay) * noise
        grow = (1.0 + c.eigen.eig_plus) ** tau
        b2 = alpha * grow * e2 + eta_k * alpha * 2.0 * omega * c.c2 * e3 \
            + eta_k * alpha * c.k1 * delta
        b3 = (1.0 - eta_k * beta * c.c3) * e3 + c.c2 * eta_k * e2 \
            + eta_k ** 2 * c.k2 * delta
        return b1, b2, b3

    eig = c.eigen
    lam_p, lam_m = eig.eig_plus, eig.eig_minus
    root = math.sqrt(8.0 * omega + 1.0)
    pi_p_tau = c.pi_plus(eta_k, tau)
    pi_m_tau = c.pi_minus(eta_k, tau)
    pi_p_cap = c.pi_plus(eta_k, tau - delay)
    pi_m_cap = c.pi_minus(eta_k, tau - delay)

    b1 = ((1.0 - alpha) * (1.0 - mu * eta_k) ** (2 * (tau - delay))
          + alpha * (1.0 - mu * eta_k) ** (2 * tau)) * e1_sq \
        + (tau - (1.0 - alpha) * delay) * eta_k ** 2 * noise
    b2 = alpha * pi_p_tau * e2 \
        + alpha * 4.0 * omega / root * (pi_p_tau - 1.0) * e3 \
        + alpha * mu / (-beta ** 2 * lam_p * lam_m) * (pi_p_tau - 1.0) * delta
    psi1 = (1.0 - alpha) * (eig.g1 * pi_p_cap + eig.g2 * pi_m_cap) \
        + alpha * (eig.g1 * pi_p_tau + eig.g2 * pi_m_tau)
    b3 = psi1 * e3 \
        + 2.0 * eig.g3 * ((1.0 - alpha) * pi_p_cap + alpha * pi_p_tau - 1.0) * e2 \
        + ((1.0 - alpha) * (eig.g5 * (pi_p_cap - 1.0) + eig.g6 * (pi_m_cap - 1.0))
           + alpha * (eig.g5 * (pi_p_tau - 1.0) + eig.g6 * (pi_m_tau - 1.0))) * delta / beta
    return b1, b2, b3


# ---------------------------------------------------------------------------
# noise-free companion dynamics


def noise_free_step(companions: np.ndarray, topology: FleetTopology,
                    model: LossModel, eta: float) -> np.ndarray:
    """One full-batch descent slot on every (N, M) subnet companion."""
    grads = topology.stack.own_gradients(model, companions[topology.subnet_of])
    return companions - eta * topology.subnet_sums(grads)


def noise_free_sync(companions: np.ndarray, alpha: float,
                    snapshot: np.ndarray) -> np.ndarray:
    """Combiner applied to the companions: (1-alpha)*stale global + alpha*own."""
    return (1.0 - alpha) * snapshot[None, :] + alpha * companions


def error_terms(device_models: np.ndarray, topology: FleetTopology,
                companions: np.ndarray, w_star: np.ndarray):
    """Per-slot (e1, e2, e3) samples from device models and their companions.

    e1 is the square-rooted weighted mean squared device deviation from
    the subnet companion (single-run sample of the expectation), e2 the
    weighted companion dispersion, e3 the companion optimality gap.
    ``(..., D, M)`` models with ``(..., N, M)`` companions give three
    ``(...)`` arrays, one sample per leading index, each equal to its
    ``(D, M)`` call, which gives three floats.
    """
    v_bar = topology.global_sums(companions)
    # the running sums add the terms one at a time, as a loop over the devices would
    e1_sq = topology.device_total(
        _dots(device_models - companions[..., topology.subnet_of, :]))
    e2 = np.add.accumulate(topology.subnet_weights * norms(companions - v_bar[..., None, :]),
                           axis=-1)[..., -1]
    e3 = norms(v_bar - w_star)
    if device_models.ndim == 2:
        return math.sqrt(e1_sq), float(e2), float(e3)
    return np.sqrt(e1_sq), e2, e3
