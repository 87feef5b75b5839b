"""Controller: step-size selection, trigger, estimation, grid solver."""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dflsim import cli, control
from dflsim.analysis import (compute_constants, eta_max_limit, feasibility_limits, gamma_limit,
                             theorem_bound)
from dflsim.control import (
    ControlConfig,
    TriggerReference,
    aggregation_indicators,
    bootstrap_estimates,
    certified_marks,
    deviation_marks,
    estimate_parameters,
    open_subnets,
    run_adaptive,
    select_step_size,
    solve_p,
    subnet_contributions,
    trigger_local_aggregation,
)
from dflsim.data import Dataset
from dflsim.engine import Protocol
from dflsim.errors import EstimationError, InfeasibleError
from dflsim.fleet import FleetTopology, HeterogeneityParams, build_topology, measure_diversity
from dflsim.losses import RIDGE, SVM, LossModel, full_gradient, norms
from dflsim.netcost import CostSnapshot, stream
from dflsim.validate import diverse_problem, theorem_problem, trend_fleet


def test_select_step_size_postconditions():
    prob = diverse_problem()
    for tau, delay in [(4, 0), (8, 3), (20, 10)]:
        eta_max, gamma = select_step_size(prob.params, tau, delay)
        assert 0 < eta_max < eta_max_limit(prob.params, tau, delay)
        assert 0 < gamma < gamma_limit(prob.params, tau, delay, eta_max)
        assert eta_max == pytest.approx(
            0.9 * eta_max_limit(prob.params, tau, delay), rel=1e-12)
    with pytest.raises(InfeasibleError):
        select_step_size(prob.params, 5, 5)


# -- greedy trigger -----------------------------------------------------------


def test_trigger_infinite_budget_never_aggregates():
    theta = aggregation_indicators(np.array([3.0, 1.0, 2.0]), phi=math.inf)
    assert not theta.any()


def test_trigger_zero_budget_always_aggregates():
    theta = aggregation_indicators(np.array([0.5, 0.1, 0.2]), phi=0.0)
    assert theta.all()


def test_trigger_greedy_matches_exhaustive_minimal_search():
    contributions = np.array([0.7, 0.05, 0.3])
    for phi_sq in (0.0, 0.04, 0.1, 0.34, 0.36, 1.04, 1.2):
        theta = aggregation_indicators(contributions, math.sqrt(phi_sq))
        assert contributions[~theta].sum() <= phi_sq + 1e-15
        # brute force: minimal cardinality, ties by largest removed mass
        best = None
        for pattern in itertools.product([False, True], repeat=3):
            pattern = np.array(pattern)
            if contributions[~pattern].sum() <= phi_sq:
                key = (pattern.sum(), -contributions[pattern].sum())
                if best is None or key < best[0]:
                    best = (key, pattern)
        np.testing.assert_array_equal(theta, best[1])


def test_trigger_budget_invariant_random(rng):
    for _ in range(200):
        contributions = rng.uniform(0, 1, rng.integers(1, 8))
        phi = float(rng.uniform(0, 1.5))
        theta = aggregation_indicators(contributions, phi)
        assert contributions[~theta].sum() <= phi * phi + 1e-15


def test_trigger_uses_strong_convexity_gap():
    from dflsim.validate import certified_ridge_fleet

    # devices disagree inside each subnet: positive intra-subnet diversity
    prob = certified_ridge_fleet([[0.0], [2.0], [1.0], [3.0]], [2, 2],
                                 always_aggregate=False)
    topo, model, params = prob.topology, prob.model, prob.params
    assert (params.intra_delta > 0).all()
    aggregates = np.tile(prob.w_star, (topo.num_subnets, 1))
    # at the optimum the gap estimate vanishes; contributions reduce to the
    # delta_c part, and a budget above their sum must not trigger
    contrib = subnet_contributions(np.zeros(topo.num_subnets), topo.subnet_weights, params)
    phi_loose = math.sqrt(contrib.sum()) * 1.01
    theta = trigger_local_aggregation(aggregates, topo, model, params, phi_loose,
                                      TriggerReference(topo, model))
    assert not theta.any()
    theta_tight = trigger_local_aggregation(aggregates, topo, model, params, 0.0,
                                            TriggerReference(topo, model))
    assert theta_tight.all()


def test_an_infinite_budget_is_a_valid_config():
    assert ControlConfig(phi=math.inf).phi == math.inf      # never aggregate


def reference_contributions(aggregates, topo, model, params, mu_hat):
    """Every subnet's contribution, from grad F at every subnet aggregate."""
    gaps = norms(topo.global_gradients(model, aggregates)) / mu_hat
    return subnet_contributions(gaps, topo.subnet_weights, params)


def at_budget(topo, params, subnets):
    """(params, phi) with the floors of ``subnets`` (of equal weights) at phi^2.

    Steps their delta_c up until the floor is the square of a float; if
    none of 64 steps gives one, phi^2 is within a few ulps of the floor.
    """
    delta = params.intra_delta.copy()
    for _ in range(64):
        trial = replace(params, intra_delta=delta.copy())
        floor = subnet_contributions(np.zeros(delta.size), topo.subnet_weights,
                                     trial)[subnets[0]]
        root = math.sqrt(floor)
        for phi in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            if phi * phi == floor:
                return trial, phi
        delta[subnets] = np.nextafter(delta[subnets], np.inf)
    return trial, root


@st.composite
def trigger_cases(draw):
    """A ragged ridge or svm fleet, its subnet aggregates, estimates and a budget.

    Each subnet's floor (its contribution at gap 0) is 0 or lies below, at
    or above phi^2; phi is also 0 or inf. A planted tie gives subnets 0 and
    1 equal weights, aggregates and estimates: equal contributions.
    """
    kind = draw(st.sampled_from([RIDGE, SVM]))
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3)) if kind == SVM else 1
    counts = draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                           min_size=1, max_size=6))
    tie = len(counts) > 1 and draw(st.booleans())
    if tie:
        counts[1] = list(counts[0])
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for n in itertools.chain.from_iterable(counts):
        labels = gen.integers(0, classes, n).astype(float) if kind == SVM \
            else gen.standard_normal(n)
        datasets.append(Dataset(gen.standard_normal((n, dim)), labels))
    model = LossModel(kind, feature_dim=dim, regularization=0.05, num_classes=classes)
    topo = build_topology(datasets, [len(c) for c in counts])
    num = topo.num_subnets
    # from near the optimum, where gaps are small, to far from it
    aggregates = topo.optimum(model) + draw(st.sampled_from([0.01, 0.1, 1.0, 10.0])) \
        * gen.standard_normal((num, model.model_dim))
    zeta_c = gen.uniform(0.0, 4.0, num)
    if tie:
        aggregates[1], zeta_c[1] = aggregates[0], zeta_c[0]
    params = HeterogeneityParams(mu=0.1, beta=2.0, inter_delta=0.1, inter_zeta=0.1,
                                 intra_delta=np.zeros(num), intra_zeta=zeta_c,
                                 sgd_noise=0.0, subnet_noise_budget=0.0)
    # phi^2 on the scale of the gap terms, so open subnets split on their gaps
    gap_terms = reference_contributions(aggregates, topo, model, params, params.mu)
    level = draw(st.sampled_from([0.05, 0.3, 1.0])) * float(gap_terms.sum()) + 1e-3
    places = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=num, max_size=num))
    if tie:
        places[1] = places[0]
    params = replace(params, intra_delta=np.sqrt(
        level * np.array(places) / (2.0 * topo.subnet_weights)))
    budget = draw(st.sampled_from([0.0, math.inf, math.sqrt(level)]))
    if 0.0 < budget < math.inf and 1.0 in places:
        at = [0, 1] if tie and places[0] == 1.0 else [places.index(1.0)]
        params, budget = at_budget(topo, params, at)
    return topo, model, aggregates, params, budget


@given(trigger_cases())
def test_trigger_skips_only_gradients_that_cannot_change_its_decision(case):
    topo, model, aggregates, params, phi = case
    got = trigger_local_aggregation(aggregates, topo, model, params, phi,
                                    TriggerReference(topo, model))
    want = aggregation_indicators(
        reference_contributions(aggregates, topo, model, params, params.mu), phi)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e306, math.inf])
@pytest.mark.parametrize("phi", [0.0, math.sqrt(300.0), math.inf])
def test_a_fresh_reference_marks_as_every_exact_gap_does(scale, phi):
    # a fresh reference bounds no norm (NaN), so grad F is evaluated at every open
    # subnet; the certificate or the greedy then marks as the exact gaps do, also
    # where the contributions (1e160), grad F (1e306) or the aggregates (inf) overflow
    gen = np.random.default_rng(3)
    datasets = [Dataset(gen.standard_normal((5, 2)), gen.standard_normal(5)) for _ in range(4)]
    topo = build_topology(datasets, [1, 1, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.05)
    # subnet 2's floor is positive: closed at phi = 0; at scale 1, phi^2 = 300 marks it alone
    params = HeterogeneityParams(mu=0.1, beta=2.0, inter_delta=0.1, inter_zeta=0.1,
                                 intra_delta=np.array([0.0, 0.0, 1.0]), intra_zeta=np.ones(3),
                                 sgd_noise=0.0, subnet_noise_budget=0.0)
    aggregates = scale * gen.standard_normal((3, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        want = aggregation_indicators(
            reference_contributions(aggregates, topo, model, params, params.mu), phi)
        got = deviation_marks(aggregates, topo, model, params, phi,
                              TriggerReference(topo, model))
    assert np.array_equal(got, want)
    if scale == 1.0 and 0.0 < phi < math.inf:
        assert got.tolist() == [False, False, True]


def planted_budgets(contributions):
    """phi with phi^2 at, or an ulp of phi off, a contribution or a sum of the
    smallest ones: budgets on the greedy's decision boundaries."""
    ordered = np.sort(contributions)
    levels = [*ordered, *np.cumsum(ordered)]
    for level in levels:
        root = math.sqrt(level)
        yield from (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf))


def near_tie(step=1e-3, seed=5):
    """(case, step, seed) whose subnets 0 and 1 contribute within 1e-9 of each
    other at a, with phi^2 between them: one is marked. Their brackets
    around the reference at b overlap; those of subnets 2 and 3, near the
    optimum, lie far below the cut."""
    gen = np.random.default_rng(1)
    datasets = [Dataset(gen.standard_normal((5, 2)), gen.standard_normal(5)) for _ in range(4)]
    topo = build_topology(datasets, [1, 1, 1, 1])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.05)
    away = np.array([1.0, 0.5])
    a = topo.optimum(model) + np.array([away, away * (1 + 1e-9), 0.01 * away, -0.01 * away])
    params = HeterogeneityParams(mu=0.1, beta=2.0, inter_delta=0.1, inter_zeta=0.1,
                                 intra_delta=np.zeros(4), intra_zeta=np.full(4, 1.0),
                                 sgd_noise=0.0, subnet_noise_budget=0.0)
    tied = reference_contributions(a, topo, model, params, params.mu)[0]
    b = a - step * np.random.default_rng(seed).standard_normal(a.shape)
    return (topo, model, b, params, math.sqrt(1.5 * tied)), step, seed, True


@given(trigger_cases(), st.sampled_from([0.0, 1e-12, 1e-3, 1.0]), st.integers(0, 2**32 - 1),
       st.just(False))
@example(*near_tie())
def test_a_certified_trigger_keeps_the_marks_of_evaluating_every_gap(case, step, seed,
                                                                    near_tied):
    topo, model, b, params, phi = case
    reference = TriggerReference(topo, model)
    # phi = inf opens every subnet: the reference holds grad F at every b_c
    trigger_local_aggregation(b, topo, model, params, math.inf, reference)
    a = b + step * np.random.default_rng(seed).standard_normal(b.shape)
    contributions = reference_contributions(a, topo, model, params, params.mu)
    evaluate, points = FleetTopology.global_gradients, []

    def counted(self, model, at):
        points.append(len(at))
        return evaluate(self, model, at)

    for budget in [phi, *planted_budgets(contributions)]:
        points.clear()
        with mock.patch.object(FleetTopology, "global_gradients", counted):
            got = trigger_local_aggregation(a, topo, model, params, budget, reference)
        assert np.array_equal(got, aggregation_indicators(contributions, budget)), budget
        if near_tied and budget == phi:
            # grad F only where the tied brackets cross the cut, not at every open subnet
            assert 0 < sum(points) < open_subnets(topo, params, phi).sum() == 4, points


def test_an_adaptive_run_evaluates_fewer_trigger_gradients_than_open_slots(monkeypatch):
    from dflsim import config, fleet
    from dflsim import control as controller

    # the label_skew_svm fleet under the adaptive_demo controller: open subnets
    configs = Path(__file__).resolve().parents[1] / "configs"
    blob = json.loads((configs / "label_skew_svm.json").read_text())
    adaptive = json.loads((configs / "adaptive_demo.json").read_text())
    blob["schedule"], blob["control"] = adaptive["schedule"], adaptive["control"]
    blob["control"]["horizon"] = 180
    cfg = config.parse_config(blob)
    counts = {"global_gradients": 0, "open_slots": 0}
    evaluate, trigger = fleet.FleetTopology.global_gradients, controller.trigger_local_aggregation

    def counted_gradients(self, model, points):
        counts["global_gradients"] += 1
        return evaluate(self, model, points)

    def counted_trigger(aggregates, topology, model, params, phi, *reference):
        floors = subnet_contributions(np.zeros(topology.num_subnets),
                                      topology.subnet_weights, params)
        counts["open_slots"] += bool((floors <= phi * phi).any())
        return trigger(aggregates, topology, model, params, phi, *reference)

    monkeypatch.setattr(fleet.FleetTopology, "global_gradients", counted_gradients)
    monkeypatch.setattr(controller, "trigger_local_aggregation", counted_trigger)
    cli.execute_single(cfg, 0)
    # every open slot evaluated grad F before, and each interval once more
    assert counts["open_slots"] >= 60
    assert counts["global_gradients"] < counts["open_slots"]


def test_an_infinite_budget_evaluates_grad_f_once_per_subnet_reference(monkeypatch):
    from dflsim import config, fleet

    # phi = inf marks nothing: once the first slot has set every reference,
    # its finite bounds settle each later slot and forecast without grad F
    configs = Path(__file__).resolve().parents[1] / "configs"
    blob = json.loads((configs / "adaptive_demo.json").read_text())
    blob["control"]["phi"] = math.inf
    calls = {"global_gradients": 0}
    evaluate = fleet.FleetTopology.global_gradients

    def counted_gradients(self, model, points):
        calls["global_gradients"] += 1
        return evaluate(self, model, points)

    monkeypatch.setattr(fleet.FleetTopology, "global_gradients", counted_gradients)
    result, _ = cli.execute_single(config.parse_config(blob), 0)
    assert not any(any(d.theta_plan) for d in result.decisions)
    # 240 slots: one evaluation in the first, plus the snapshot of each interval
    assert calls["global_gradients"] <= 30


VALUES = st.sampled_from([0.0, 0.25, 1.0, 4.0, math.inf]) | st.floats(0.0, 8.0)


@given(st.lists(st.tuples(VALUES, VALUES, st.floats(0.0, 1.0)), min_size=1, max_size=6),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]) | st.floats(0.0, 3.0))
# the greedy on hi marks subnet 0, the sums pass, but contributions (1.3, 2.4) mark subnet 1
@example([(1.2, 3.0, 0.1 / 1.8), (1.5, 2.5, 0.9)], math.sqrt(2.55))
def test_certified_marks_hold_for_every_contribution_in_their_intervals(triples, phi):
    lo = np.array([min(t[:2]) for t in triples])
    hi = np.array([max(t[:2]) for t in triples])
    marks = certified_marks(lo, hi, phi)
    if marks is not None:
        inside = lo + np.array([t[2] for t in triples]) * (hi - lo)
        for contributions in (lo, hi, np.minimum(inside, hi)):
            assert np.array_equal(marks, aggregation_indicators(contributions, phi))


@given(st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=8),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]) | st.floats(0.0, 3.0))
def test_closed_subnets_at_their_floors_leave_the_greedy_unchanged(pairs, phi):
    contributions = np.array([max(p) for p in pairs])
    floors = np.array([min(p) for p in pairs])
    closed = floors > phi * phi
    pruned = np.where(closed, floors, contributions)
    assert np.array_equal(aggregation_indicators(pruned, phi),
                          aggregation_indicators(contributions, phi))


# -- estimation ---------------------------------------------------------------


def test_estimate_brackets_quadratic_and_matches_diversity(rng):
    prob = diverse_problem()
    topo, model = prob.topology, prob.model
    uploads = rng.standard_normal((6, model.model_dim))
    est = estimate_parameters(uploads, None, topo, model, 0.1, 0.1, phi=0.3,
                              w_star=prob.w_star)
    assert prob.params.mu - 1e-9 <= est.mu <= est.beta <= prob.params.beta + 1e-9
    # shared-oracle equality for the diversity estimate
    delta, delta_c = measure_diversity(topo, model, list(uploads),
                                       est.inter_zeta, est.intra_zeta[0],
                                       prob.w_star)
    assert est.inter_delta == delta
    np.testing.assert_array_equal(est.intra_delta, delta_c)
    assert est.subnet_noise_budget == 0.3


def test_estimate_homogeneous_data_zero_diversity(rng):
    base = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    topo = build_topology([base] * 4, [2, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    uploads = rng.standard_normal((4, 2))
    est = estimate_parameters(uploads, None, topo, model, 0.1, 0.1, phi=0.0,
                              w_star=np.zeros(2))
    assert est.inter_delta == 0.0
    np.testing.assert_array_equal(est.intra_delta, 0.0)


def test_estimate_identical_uploads_error(rng):
    prob = diverse_problem()
    uploads = np.tile(rng.standard_normal(2), (4, 1))
    with pytest.raises(EstimationError):
        estimate_parameters(uploads, None, prob.topology, prob.model,
                            0.1, 0.1, phi=0.0)


def test_estimate_sigma_from_uploaded_gradients(rng):
    prob = theorem_problem()
    topo, model = prob.topology, prob.model
    uploads = rng.standard_normal((topo.num_devices, model.model_dim))
    grads = np.stack([full_gradient(model, topo.datasets[i], uploads[i])
                      for i in range(topo.num_devices)])
    est = estimate_parameters(uploads, grads, topo, model, 0.1, 0.1, phi=0.0)
    assert est.sgd_noise == 0.0  # exact gradients uploaded
    noisy = grads + 0.1
    est2 = estimate_parameters(uploads, noisy, topo, model, 0.1, 0.1, phi=0.0)
    assert est2.sgd_noise == pytest.approx(0.1 * math.sqrt(model.model_dim), rel=1e-12)


def test_bootstrap_estimates_deterministic():
    prob = diverse_problem()
    cfg = ControlConfig(phi=0.1, horizon=50)
    a = bootstrap_estimates(prob.topology, prob.model, np.zeros(2), 3, cfg, 1)
    b = bootstrap_estimates(prob.topology, prob.model, np.zeros(2), 3, cfg, 1)
    assert a.mu == b.mu and a.beta == b.beta and a.inter_delta == b.inter_delta


# -- the grid solver ----------------------------------------------------------


def frozen_snapshot(rng, n):
    return CostSnapshot(
        global_energy=0.5, global_delay=0.2,
        local_energy=rng.uniform(0.01, 0.1, n),
        local_delay=rng.uniform(0.001, 0.01, n),
    )


def test_solve_p_matches_brute_force_coarse_grid():
    prob = diverse_problem()
    params, topo = prob.params, prob.topology
    gen = stream(17, 0)
    cost = frozen_snapshot(gen, topo.num_subnets)
    gaps = gen.uniform(0, 2, topo.num_subnets)
    config = ControlConfig(energy_weight=1e-3, delay_weight=1e-2, bound_weight=1.0,
                           phi=params.subnet_noise_budget, tau_max=8,
                           alpha_step=0.25, horizon=100)
    delay = 3
    theta = aggregation_indicators(
        subnet_contributions(gaps, topo.subnet_weights, params), config.phi)
    decision = solve_p(cost, params, config, theta, 0, delay, prob.e3_init)

    best = None
    for tau in range(delay, 9):
        try:
            eta_max, gamma = select_step_size(params, tau, delay)
        except InfeasibleError:
            continue
        counts = theta.astype(int) * tau
        rounds = 100 / tau
        energy = rounds * (0.5 + float(np.sum(counts * cost.local_energy)))
        delay_cost = rounds * (0.2 + float(np.sum(counts * cost.local_delay)))
        for j in range(5):
            alpha = 0.25 * j
            try:
                consts = compute_constants(params, tau, delay, alpha, eta_max,
                                           gamma, prob.e3_init)
            except InfeasibleError:
                continue
            obj = 1e-3 * energy + 1e-2 * delay_cost \
                + theorem_bound(consts, 100 // tau)
            if best is None or obj < best[0]:
                best = (obj, tau, alpha)
    assert decision.objective == best[0]
    assert decision.tau_next == best[1]
    assert decision.alpha_next == best[2]


def test_solve_p_pure_function_of_snapshot():
    prob = diverse_problem()
    gen = stream(18, 0)
    cost = frozen_snapshot(gen, 3)
    gaps = gen.uniform(0, 2, 3)
    config = ControlConfig(phi=prob.params.subnet_noise_budget, tau_max=6,
                           alpha_step=0.1, horizon=60)
    theta = aggregation_indicators(
        subnet_contributions(gaps, prob.topology.subnet_weights, prob.params), config.phi)
    a = solve_p(cost, prob.params, config, theta, 0, 2, 1.0)
    b = solve_p(cost, prob.params, config, theta, 0, 2, 1.0)
    assert a == b


def test_solve_p_grid_optimality_rescan():
    prob = diverse_problem()
    gen = stream(19, 0)
    cost = frozen_snapshot(gen, 3)
    gaps = gen.uniform(0, 2, 3)
    config = ControlConfig(energy_weight=0.1, delay_weight=0.1, bound_weight=1.0,
                           phi=prob.params.subnet_noise_budget, tau_max=7,
                           alpha_step=0.2, horizon=70)
    theta = aggregation_indicators(
        subnet_contributions(gaps, prob.topology.subnet_weights, prob.params), config.phi)
    decision = solve_p(cost, prob.params, config, theta, 0, 2, 1.0)
    for tau in range(2, 8):
        try:
            eta_max, gamma = select_step_size(prob.params, tau, 2)
        except InfeasibleError:
            continue
        counts = theta.astype(int) * tau
        energy = 70 / tau * (0.5 + float(np.sum(counts * cost.local_energy)))
        delay_cost = 70 / tau * (0.2 + float(np.sum(counts * cost.local_delay)))
        for j in range(5):
            alpha = 0.2 * j
            try:
                consts = compute_constants(prob.params, tau, 2, alpha, eta_max,
                                           gamma, 1.0)
            except InfeasibleError:
                continue
            obj = 0.1 * energy + 0.1 * delay_cost + theorem_bound(consts, 70 // tau)
            assert decision.objective <= obj + 1e-15


def test_solve_p_extreme_weights():
    prob = diverse_problem()
    topo, params = prob.topology, prob.params
    cost = CostSnapshot(1.0, 1.0, np.full(3, 0.1), np.full(3, 0.01))
    # pure-bound objective with zero delay: alpha = 0 wins
    config = ControlConfig(energy_weight=0.0, delay_weight=0.0, bound_weight=1.0,
                           phi=params.subnet_noise_budget, tau_max=6,
                           alpha_step=0.01, horizon=60)
    theta = aggregation_indicators(
        subnet_contributions(np.zeros(3), topo.subnet_weights, params), config.phi)
    decision = solve_p(cost, params, config, theta, 0, 0, prob.e3_init)
    assert decision.alpha_next == 0.0
    # pure cost objective: tau maxes out (fewer aggregation rounds)
    config2 = ControlConfig(energy_weight=1.0, delay_weight=1.0, bound_weight=0.0,
                            phi=params.subnet_noise_budget, tau_max=6,
                            alpha_step=0.25, horizon=60)
    decision2 = solve_p(cost, params, config2, theta, 0, 0, prob.e3_init)
    assert decision2.tau_next == 6


def test_solve_p_constraints_and_infeasible():
    prob = diverse_problem()
    config = ControlConfig(phi=prob.params.subnet_noise_budget, tau_max=10,
                           alpha_step=0.05, horizon=40)
    cost = CostSnapshot(0.0, 0.0, np.zeros(3), np.zeros(3))
    theta = aggregation_indicators(
        subnet_contributions(np.zeros(3), prob.topology.subnet_weights, prob.params), config.phi)
    decision = solve_p(cost, prob.params, config, theta, 0, 4, prob.e3_init)
    assert 4 <= decision.tau_next <= 10
    eta_max, gamma = select_step_size(prob.params, decision.tau_next, 4)
    assert decision.alpha_next < feasibility_limits(prob.params, decision.tau_next, 4,
                                                    eta_max, gamma).alpha_star
    with pytest.raises(InfeasibleError):
        # horizon already exhausted
        solve_p(cost, prob.params, config, theta, 40, 4, prob.e3_init)


# -- adaptive loop ------------------------------------------------------------


def test_run_adaptive_smoke_and_decision_validity():
    prob = diverse_problem()
    config = ControlConfig(phi=2.0 * prob.params.subnet_noise_budget,
                           tau_max=8, alpha_step=0.05, horizon=40,
                           initial_tau=5, probe_scale=0.5)
    res = run_adaptive(prob.topology, prob.model, config, seed=3, batch_size=1,
                       delay=2, w_star=prob.w_star, track_noise_free=False)
    assert res.column("t")[-1] == 40
    assert res.decisions
    for d in res.decisions:
        if d.fallback:
            continue
        assert 0.0 <= d.alpha_next < 1.0
        assert d.tau_next >= 1
    # deterministic reruns
    res2 = run_adaptive(prob.topology, prob.model, config, seed=3, batch_size=1,
                        delay=2, w_star=prob.w_star, track_noise_free=False)
    assert [d.alpha_next for d in res.decisions] \
        == [d.alpha_next for d in res2.decisions]
    assert [d.tau_next for d in res.decisions] \
        == [d.tau_next for d in res2.decisions]


def test_run_adaptive_records_reused_estimates():
    # capture one slot into each interval: the uploads are the synchronized
    # models, identical across devices, so every estimate is degenerate and
    # the previous one is kept
    prob = diverse_problem()
    config = ControlConfig(phi=2.0 * prob.params.subnet_noise_budget, tau_max=4,
                           tau_min=4, alpha_step=0.05, horizon=16, initial_tau=4,
                           probe_scale=0.5)
    stale = run_adaptive(prob.topology, prob.model, config, seed=3, batch_size=1,
                         delay=3, w_star=prob.w_star, track_noise_free=False)
    assert stale.decisions
    assert stale.decisions[0].estimates_reused
    # capture at the last slot: the devices have drifted apart, nothing is reused
    fresh = run_adaptive(prob.topology, prob.model, config, seed=3, batch_size=1,
                         delay=0, w_star=prob.w_star, track_noise_free=False)
    assert not any(d.estimates_reused for d in fresh.decisions)


def test_run_adaptive_records_the_clamped_tail_delay():
    # horizon 10 in intervals of 4: the 2-slot tail cannot hold the delay of
    # 3, so it runs with delay 1
    prob = diverse_problem()
    config = ControlConfig(phi=2.0 * prob.params.subnet_noise_budget, tau_max=4,
                           tau_min=4, alpha_step=0.05, horizon=10, initial_tau=4,
                           probe_scale=0.5)
    res = run_adaptive(prob.topology, prob.model, config, seed=3, batch_size=1,
                       delay=3, w_star=prob.w_star, track_noise_free=False)
    assert res.sync_times.tolist() == [4, 8, 10]
    assert [d.delay_eff for d in res.decisions] == [3, 3, 1]
    for d in res.decisions:
        assert len(d.theta_counts) == prob.topology.num_subnets


TREND_CONFIG = ControlConfig(phi=2.0, tau_min=4, tau_max=12, horizon=60, initial_tau=4,
                             probe_scale=0.5)


def adaptive_plans():
    """The plans a small adaptive run on ``trend_fleet(3)`` at delay 2 hands to
    ``run_interval``, and its decisions."""
    plans, run_interval = [], Protocol.run_interval

    def spy(proto, plan, theta_policy=None):
        plans.append(plan)
        return run_interval(proto, plan, theta_policy)

    topo, model = trend_fleet(3)
    with mock.patch.object(Protocol, "run_interval", spy):
        res = run_adaptive(topo, model, TREND_CONFIG, seed=1, batch_size=10, delay=2)
    assert len(plans) == len(res.decisions)
    return plans, res.decisions


def test_adaptive_step_size_decays_by_the_interval_index():
    # eta_k = eta_max/(1 + gamma*k): interval k runs at the (eta_max, gamma) the
    # decision before it chose, wherever it runs that decision's tau and delay
    plans, decisions = adaptive_plans()
    counted = 0
    for i, (plan, d) in enumerate(zip(plans[1:], decisions), start=1):
        if not d.fallback and plan.tau == d.tau_next and plan.delay == 2:
            assert plan.eta == d.eta_max / (1.0 + d.gamma * i)
            counted += 1
    assert counted >= 2


def test_an_infeasible_step_size_runs_its_interval_at_the_fallback_eta():
    # the first interval's (eta_max, gamma) is infeasible: it runs at ETA_FALLBACK,
    # and the later intervals decay from their decisions' step sizes as before
    select, calls = control.select_step_size, []

    def infeasible_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise InfeasibleError("no step size")
        return select(*args)

    with mock.patch.object(control, "select_step_size", infeasible_once):
        plans, decisions = adaptive_plans()
    assert plans[0].eta == control.ETA_FALLBACK
    decayed = [(plan.eta, d.eta_max / (1.0 + d.gamma * i))
               for i, (plan, d) in enumerate(zip(plans[1:], decisions), start=1)
               if not d.fallback and plan.tau == d.tau_next and plan.delay == 2]
    assert len(decayed) >= 2 and all(eta == want for eta, want in decayed)


def test_each_plan_carries_the_previous_decisions_alpha():
    # the controller only ever picks alpha 0 on these fleets, so its choice is
    # replaced by 0.375: the engine must combine with what was decided
    solve = control.solve_p

    def deciding(*args):
        return replace(solve(*args), alpha_next=0.375)

    with mock.patch.object(control, "solve_p", deciding):
        plans, decisions = adaptive_plans()
    assert plans[0].alpha == 0.0
    assert [p.alpha for p in plans[1:]] == [d.alpha_next for d in decisions[:-1]]
    assert 0.375 in [p.alpha for p in plans]


# SHA-256 of adaptive_demo seed 0's manifest decisions, json.dumps(..., sort_keys=True)
ADAPTIVE_DEMO_DECISIONS = "417e9fabd3b9ff246f57be19e803a20260045b7ac7aecc4a6294c4b5a4e4d6f1"


def test_adaptive_demo_decisions_match_their_pinned_digest(tmp_path):
    # the golden CSVs pin (tau, alpha) through the run; this pins every
    # field of each decision, the planned marks and forecast counts too
    blob = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "adaptive_demo.json").read_text())
    blob["seeds"] = [0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    decisions = json.loads((out / "run_manifest.json").read_text())["decisions"]["0"]
    digest = hashlib.sha256(json.dumps(decisions, sort_keys=True).encode()).hexdigest()
    assert digest == ADAPTIVE_DEMO_DECISIONS
