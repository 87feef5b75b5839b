"""Acceptance criteria, one test per criterion, each printing a status line.

Every tolerance is pinned here; nothing defers to later calibration. The
suite exercises the full stack: math identities, the arbitrary-precision
constants oracle, the noise-free and stochastic error recursions, the
end-to-end gap bound, protocol collapse, behavioral orderings at desk
scale, controller sweeps, radio-cost anchors, and the grid solver.
"""

import math
import time

import numpy as np

import mp_reference as mpref
from dflsim.analysis import compute_constants
from dflsim.control import select_step_size
from dflsim.data import Dataset
from dflsim.engine import IntervalPlan, Protocol, TrainingSchedule, run_training
from dflsim.errors import InfeasibleError
from dflsim.fleet import build_topology
from dflsim.losses import RIDGE, LossModel, stochastic_gradient
from dflsim.netcost import (
    TAG_CHANNEL,
    TAG_SGD,
    RadioConfig,
    RadioCostModel,
    aggregation_delay,
    aggregation_energy,
    pathloss_gain,
    shannon_rate,
    stream,
    wall_clock_to_iterations,
)
from dflsim.validate import (
    certified_ridge_fleet,
    contraction_slack,
    controller_trends,
    deviation_msq_slack,
    diverse_problem,
    eigen_margins,
    noise_free_onestep,
    ordering_experiment,
    random_quadratic_params,
    solver_experiment,
    suite_theorem,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1: contraction fact -------------------------------------------------------


def test_criterion_1_contraction_fact():
    start = time.time()
    worst = contraction_slack(stream(1001, 0), 1000)
    elapsed = time.time() - start
    report("criterion-1 contraction-fact",
           worst >= -1e-12 and elapsed < 5.0,
           f"min slack {worst:.3e} over 1000 problems in {elapsed:.2f}s")


# -- 2: eigen machinery --------------------------------------------------------


def test_criterion_2_eigen_machinery():
    start = time.time()
    worst_rec, signs_ok, worst_ident = eigen_margins()
    elapsed = time.time() - start
    report("criterion-2 eigen-machinery",
           worst_rec >= 0 and worst_ident >= 0 and signs_ok and elapsed < 1.0,
           f"200 grid points, worst residual margin {worst_rec:.2e}, {elapsed:.2f}s")


# -- 3: constants vs arbitrary-precision oracle --------------------------------


def test_criterion_3_constants_cross_check():
    rng = stream(1003, 0)
    worst = 0.0
    checked = 0
    taus = [64]  # force one exact-binomial stress case, then random draws
    while checked < 20:
        if taus:
            tau = taus.pop()
        else:
            tau = int(rng.integers(2, 41))
        params = random_quadratic_params(rng, proof_regime=False)
        delay = int(rng.integers(0, min(tau, 8)))
        try:
            eta_max, gamma = select_step_size(params, tau, delay)
            consts = compute_constants(params, tau, delay, 0.0, eta_max, gamma)
            if consts.c3 < 0.05 * (tau - delay) * params.mu / params.beta:
                continue  # float64 cannot hold 1e-12 relative at the boundary
            alpha = 0.8 * min(consts.alpha_star, 1.0) * float(rng.uniform(0, 1))
            e3_init = float(rng.uniform(0.0, 3.0))
            consts = compute_constants(params, tau, delay, alpha, eta_max,
                                       gamma, e3_init)
        except InfeasibleError:
            continue
        mu, beta, omega = params.mu, params.beta, params.omega
        ref_c = mpref.c_constants(mu, beta, omega, tau, delay, alpha, eta_max)
        ref_y = mpref.envelopes(mu, beta, omega, params.inter_delta,
                                params.sgd_noise, params.subnet_noise_budget,
                                tau, delay, alpha, eta_max, gamma, e3_init)
        pairs = list(zip((consts.c1, consts.c2, consts.c3, consts.k1, consts.k2),
                         ref_c))
        pairs += list(zip((consts.y1, consts.y2, consts.y3), ref_y))
        pairs.append((consts.eta_max_limit,
                      mpref.eta_max_limit(mu, beta, omega, tau, delay)))
        pairs.append((consts.gamma_limit,
                      mpref.gamma_limit(mu, beta, omega, tau, delay, eta_max)))
        pairs.append((consts.alpha_star,
                      mpref.alpha_star(mu, beta, omega, tau, delay, eta_max, gamma)))
        worst = max(worst, max(float(mpref.rel_err(a, b)) for a, b in pairs))
        checked += 1
    report("criterion-3 constants-oracle", worst < 1e-12,
           f"20 feasible sets (incl. tau=64), worst rel err {worst:.3e}")


# -- 4: noise-free one-step oracle ---------------------------------------------


def test_criterion_4_noise_free_one_step():
    prob = diverse_problem()
    assert prob.topology.num_subnets == 3 and prob.model.model_dim == 2
    worst2, worst3, checked = noise_free_onestep(525)
    worst = min(worst2, worst3)
    report("criterion-4 noise-free-one-step",
           worst >= -1e-9 and checked >= 500,
           f"min slack {worst:.3e} over {checked} slots")


# -- 5: stochastic deviation one-step oracle ------------------------------------


def test_criterion_5_stochastic_one_step():
    start = time.time()
    seeds = 1000
    slack = deviation_msq_slack(
        certified_ridge_fleet([[0.0, 2.0], [-1.0, 3.0]], [2], batch_size=1), seeds)
    elapsed = time.time() - start
    report("criterion-5 stochastic-one-step",
           slack >= 0 and elapsed < 60.0,
           f"min 3-sigma slack {slack:.3e} over {seeds} seeds, {elapsed:.1f}s")


# -- 6: theorem domination -----------------------------------------------------


def test_criterion_6_theorem_domination():
    start = time.time()
    seeds, num_syncs = 300, 50
    dominates, decreasing = suite_theorem(seeds, num_syncs)
    elapsed = time.time() - start
    report("criterion-6 theorem-domination",
           dominates.passed and decreasing.passed and elapsed < 300.0,
           f"min 3-sigma slack {dominates.slack:.3e}, "
           f"nu strictly decreasing={decreasing.passed}, "
           f"{seeds} seeds x {num_syncs} syncs, {elapsed:.0f}s")


# -- 7: protocol collapse ------------------------------------------------------


def test_criterion_7_protocol_collapse():
    gen = np.random.default_rng(5)
    ds = Dataset(gen.standard_normal((40, 3)), gen.standard_normal(40))
    topo = build_topology([ds], [1])
    model = LossModel(RIDGE, feature_dim=3, regularization=0.1)
    eta, batch, steps = 0.05, 5, 1000
    proto = Protocol(topo, model, seed=42, batch_size=batch, w_star=None)
    plan = IntervalPlan(tau=1, alpha=0.0, eta=eta, delay=0)
    traj = [proto.w[0].copy()]
    for _ in range(steps):
        proto.run_interval(plan)
        traj.append(proto.w[0].copy())

    w = np.zeros(3)
    ref = [w.copy()]
    for t in range(1, steps + 1):
        # slot t reads draws [(t-1)*n, t*n) of the device's stream
        gen = stream(42, TAG_SGD, 0)
        gen.bit_generator.advance((t - 1) * ds.n)
        g = stochastic_gradient(model, ds, w, batch, gen)
        w = w - eta * g
        ref.append(w.copy())
    identical = np.array_equal(np.asarray(traj), np.asarray(ref))
    report("criterion-7 protocol-collapse", identical,
           f"{steps}-step trajectory bit-identical to centralized SGD: {identical}")


# -- 8: behavioral ordering ----------------------------------------------------


def test_criterion_8_behavioral_ordering():
    start = time.time()
    dfl, hier, fed, d0_conventional, d0_combined, ablation = (
        mean for _, mean, _ in ordering_experiment(range(5), eta=0.03, intervals=10))
    elapsed = time.time() - start

    a_ok = dfl < hier and dfl < fed
    b_ok = d0_conventional <= d0_combined
    c_ok = ablation >= 2.0 * dfl
    report("criterion-8 behavioral-ordering",
           a_ok and b_ok and c_ok and elapsed < 600.0,
           f"(a) dfl {dfl:.4f} < hier {hier:.4f}, fedavg {fed:.4f}; "
           f"(b) delay-free {d0_conventional:.4f} <= {d0_combined:.4f}; "
           f"(c) ablation/dfl = {ablation / dfl:.2f}; {elapsed:.0f}s")


# -- 9: controller trends ------------------------------------------------------


def test_criterion_9_controller_trends():
    start = time.time()
    points = controller_trends(range(5))
    delay_means = [p.mean_alpha for p in points if p.axis == "delay"]
    increasing = all(b >= a - 1e-12 for a, b in zip(delay_means, delay_means[1:]))
    # labels per device 5, 3, 2, 1: increasing heterogeneity
    diversity_means = [p.mean_alpha for p in points if p.axis == "labels_per_device"]
    decreasing = all(b <= a + 1e-12 for a, b in
                     zip(diversity_means, diversity_means[1:]))
    caps_ok = all(p.caps_ok for p in points)
    zero_grid = sum(p.zero_grid for p in points)
    decisions = sum(p.decisions for p in points)
    elapsed = time.time() - start
    report("criterion-9 controller-trends",
           increasing and decreasing and caps_ok,
           f"mean alpha by delay {delay_means}, by skew {diversity_means}, "
           f"caps respected={caps_ok}, alpha grid {{0}} in {zero_grid} of "
           f"{decisions} decisions, {elapsed:.0f}s")


# -- 10: cost anchors ----------------------------------------------------------


def test_criterion_10_cost_anchors():
    radio = RadioConfig()
    bits = 7840 * 32
    energy = aggregation_energy(radio, bits, np.array([1e6]), np.array([0.25]))
    anchor_energy = abs(energy - 0.06272) / 0.06272
    noise_w = 10 ** ((-173.0 - 30.0) / 10.0) * 1e6
    rate = shannon_rate(radio, 1.0, 0.25)
    anchor_rate = abs(rate - 1e6 * math.log2(1.0 + 0.25 / noise_w)) / rate
    delay = aggregation_delay(radio, 250_880, np.array([1e6]))
    anchor_delay = abs(delay - 0.25088) / 0.25088
    slots = wall_clock_to_iterations(0.050, 200.0)

    # accounting closure on a real run with the default radio parameters
    gen = np.random.default_rng(3)
    parts = [Dataset(gen.standard_normal((8, 2)), gen.standard_normal(8))
             for _ in range(4)]
    topo = build_topology(parts, [2, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    cost_model = RadioCostModel(radio, model.model_dim, 4, topo.subnets, seed=13)
    sched = TrainingSchedule.uniform(4, 6, alpha=0.2, eta=0.05, delay=2,
                                     local_agg_period=3, num_subnets=2)
    res = run_training(topo, model, sched, seed=8, batch_size=4,
                       cost_model=cost_model, track_noise_free=False)
    closure = res.column("cum_energy")[-1] == sum(ev.energy_j for ev in res.events) \
        and res.column("cum_delay")[-1] == sum(ev.delay_s for ev in res.events)

    # per-event check against an independent recomputation from the same draws
    ev = next(e for e in res.events if e.kind == "local")
    members = topo.subnets[ev.subnet]
    rates = []
    for dev in members:
        # slot t's fading power is -log1p(-U), U draw t of the device's stream
        gen = stream(13, TAG_CHANNEL, dev)
        gen.bit_generator.advance(ev.t)
        gain = pathloss_gain(radio, float(cost_model.distances[dev])) \
            * -math.log1p(-gen.random())
        rates.append(radio.bandwidth_hz * math.log2(
            1.0 + 0.25 * gain / noise_w))
    hand_energy = sum(model.model_dim * 32 * 0.25 / r for r in rates)
    hand_delay = max(model.model_dim * 32 / r for r in rates)
    event_err = max(abs(hand_energy - ev.energy_j) / hand_energy,
                    abs(hand_delay - ev.delay_s) / hand_delay)

    ok = anchor_energy < 1e-6 and anchor_rate < 1e-6 and anchor_delay < 1e-6 \
        and slots == 10 and closure and event_err < 1e-6
    report("criterion-10 cost-anchors", ok,
           f"anchors rel err <= {max(anchor_energy, anchor_rate, anchor_delay):.1e}, "
           f"delay slots={slots}, closure exact={closure}, event rel err {event_err:.1e}")


# -- 11: solver determinism ----------------------------------------------------


def test_criterion_11_solver_determinism():
    outcome = solver_experiment(stream(1011, 0))
    decision = outcome.decision
    report("criterion-11 solver-determinism", outcome.exact and outcome.feasible,
           f"grid of {outcome.grid_points} points, decision (tau={decision.tau_next}, "
           f"alpha={decision.alpha_next}) matches brute force exactly")
