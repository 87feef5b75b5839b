"""Protocol engine: arithmetic cases, clock discipline, oracle equivalence."""

import contextlib
import math
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dflsim import engine, losses
from dflsim.analysis import one_step_bounds
from dflsim.config import load_config
from dflsim.control import TriggerReference, trigger_local_aggregation
from dflsim.data import Dataset
from dflsim.engine import (
    METRIC_COLUMNS,
    IntervalPlan,
    Protocol,
    TrainingSchedule,
    periodic_offsets,
    run_training,
)
from dflsim.errors import DivergenceError, ScheduleError
from dflsim.fleet import HeterogeneityParams, build_topology
from dflsim.losses import RIDGE, SVM, LossModel, full_gradient, loss, stochastic_gradient
from dflsim.netcost import TAG_SGD, RadioConfig, RadioCostModel, stream
from dflsim.validate import diverse_problem, theorem_problem


def small_fleet(rng, n_devices=4, subnets=(2, 2), points=12, dim=3, reg=0.3):
    parts = [Dataset(rng.standard_normal((points, dim)), rng.standard_normal(points))
             for _ in range(n_devices)]
    topo = build_topology(parts, list(subnets))
    return topo, LossModel(RIDGE, feature_dim=dim, regularization=reg)


# -- schedule validation ------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ScheduleError):
        IntervalPlan(tau=0, alpha=0.0, eta=0.1)
    with pytest.raises(ScheduleError):
        IntervalPlan(tau=5, alpha=0.0, eta=0.1, delay=5)
    with pytest.raises(ScheduleError):
        IntervalPlan(tau=5, alpha=1.2, eta=0.1)
    with pytest.raises(ScheduleError):
        IntervalPlan(tau=5, alpha=0.0, eta=0.1, delay=2, up_delay=3)
    with pytest.raises(ScheduleError):
        IntervalPlan(tau=5, alpha=0.0, eta=0.1, local_agg_offsets=((6,),))
    plan = IntervalPlan(tau=5, alpha=0.2, eta=0.1, delay=3, up_delay=2)
    assert plan.down_delay == 1


def test_a_protocol_driven_directly_records_its_sync_instants(rng):
    # the last slot of every interval run, read by at_sync without a schedule
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=0, batch_size=4)
    for tau in (3, 5, 2):
        proto.run_interval(IntervalPlan(tau=tau, alpha=0.2, eta=0.05, delay=1))
    res = proto.result()
    assert res.sync_times.dtype == np.int64 and res.sync_times.tolist() == [3, 8, 10]
    assert res.at_sync("t").tolist() == [3, 8, 10]
    sched = TrainingSchedule.uniform(3, 4, alpha=0.2, eta=0.05, delay=1, num_subnets=2)
    assert run_training(topo, model, sched, seed=0, batch_size=4).sync_times.tolist() \
        == [4, 8, 12]


def test_periodic_offsets():
    assert periodic_offsets(20, 5, 2) == ((5, 10, 15, 20), (5, 10, 15, 20))
    assert periodic_offsets(7, None, 1) == ((),)


@pytest.mark.parametrize("offsets", [((3, 6),), ((3, 6),) * 3])
def test_offsets_for_another_subnet_count_are_refused(rng, offsets):
    # one entry for a 2-subnet fleet left subnet 1 never aggregating; a third
    # entry was dropped
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=0, batch_size=4)
    plan = IntervalPlan(tau=6, alpha=0.2, eta=0.05, local_agg_offsets=offsets)
    with pytest.raises(ScheduleError, match=f"has {len(offsets)} entries for 2 subnets"):
        proto.run_interval(plan)
    assert proto.t == 0 and proto.result().metrics["t"].tolist() == [0]    # no slot ran
    sched = TrainingSchedule.uniform(2, 6, alpha=0.2, eta=0.05, local_agg_period=3,
                                     num_subnets=len(offsets))
    with pytest.raises(ScheduleError):
        run_training(topo, model, sched, seed=0, batch_size=4)
    # no offsets at all (never aggregate) suits any fleet
    proto.run_interval(IntervalPlan(tau=6, alpha=0.2, eta=0.05))
    assert proto.t == 6


def test_metrics_every_below_one_is_refused(rng):
    topo, model = small_fleet(rng)
    with pytest.raises(ScheduleError, match="metrics_every"):
        Protocol(topo, model, seed=0, batch_size=4, metrics_every=0)


# -- aggregation arithmetic ---------------------------------------------------


def test_local_aggregate_arithmetic(rng):
    parts = [Dataset(np.ones((3, 1)), np.zeros(3)),
             Dataset(np.ones((7, 1)), np.zeros(7))]
    topo = build_topology(parts, [2])
    model = LossModel(RIDGE, feature_dim=1, regularization=0.1)
    proto = Protocol(topo, model, seed=0, batch_size=1, w_star=np.zeros(1))
    np.testing.assert_allclose(topo.device_weights, [0.3, 0.7])
    agg = proto.subnet_aggregate(np.array([[1.0], [11.0]]), 0)
    np.testing.assert_allclose(agg, [8.0], atol=1e-12)
    agg_mid = proto.subnet_aggregate(np.array([[0.0], [0.0]]), 0)
    np.testing.assert_allclose(agg_mid, [0.0])


def test_global_average_arithmetic():
    parts = [Dataset(np.ones((4, 1)), np.zeros(4)),
             Dataset(np.ones((6, 1)), np.zeros(6))]
    topo = build_topology(parts, [1, 1])
    np.testing.assert_allclose(topo.subnet_weights, [0.4, 0.6])
    got = topo.global_sums(topo.subnet_sums(np.array([[5.0], [0.0]])))
    np.testing.assert_allclose(got, [2.0], atol=1e-12)


def test_sgd_step_arithmetic():
    # eta = 0.1, w = [1], full gradient forced to [2] via a crafted dataset
    ds = Dataset([[1.0]], [-1.0])            # grad at w=1: (w + 1) * 1 = 2
    topo = build_topology([ds], [1])
    model = LossModel(RIDGE, feature_dim=1, regularization=0.0)
    proto = Protocol(topo, model, seed=0, batch_size=1,
                     w_init=np.array([1.0]), w_star=np.array([-1.0]))
    proto.run_interval(IntervalPlan(tau=1, alpha=0.0, eta=0.1))
    np.testing.assert_allclose(proto.w[0], [0.8], atol=1e-15)


# -- protocol collapse and determinism ---------------------------------------


def test_collapse_to_centralized_sgd_bitwise():
    gen = np.random.default_rng(5)
    ds = Dataset(gen.standard_normal((40, 3)), gen.standard_normal(40))
    topo = build_topology([ds], [1])
    model = LossModel(RIDGE, feature_dim=3, regularization=0.1)
    proto = Protocol(topo, model, seed=42, batch_size=5, track_noise_free=False)
    plan = IntervalPlan(tau=1, alpha=0.0, eta=0.05, delay=0)
    traj = [proto.w[0].copy()]
    for _ in range(200):
        proto.run_interval(plan)
        traj.append(proto.w[0].copy())

    w = np.zeros(3)
    ref = [w.copy()]
    for t in range(1, 201):
        gen = stream(42, TAG_SGD, 0)
        gen.bit_generator.advance((t - 1) * ds.n)
        g = stochastic_gradient(model, ds, w, 5, gen)
        w = w - 0.05 * g
        ref.append(w.copy())
    np.testing.assert_array_equal(np.asarray(traj), np.asarray(ref))


def test_full_batch_homogeneous_consensus(rng):
    base = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    topo = build_topology([base] * 4, [2, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    sched = TrainingSchedule.uniform(3, 6, alpha=0.4, eta=0.05, delay=2,
                                     local_agg_period=2, num_subnets=2)
    res = run_training(topo, model, sched, seed=1, batch_size=10,
                       w_star=topo.optimum(model))
    # identical data + full batch: every device stays identical, e1 = e2 = 0
    assert np.ptp(res.final_models, axis=0).max() == 0.0
    np.testing.assert_allclose(res.column("e1"), 0.0, atol=1e-12)
    np.testing.assert_allclose(res.column("e2"), 0.0, atol=1e-12)


def test_two_runs_bit_identical(rng):
    topo, model = small_fleet(rng)
    sched = TrainingSchedule.uniform(4, 5, alpha=0.3, eta=0.05, delay=2,
                                     local_agg_period=2, num_subnets=2)
    w_star = topo.optimum(model)
    a = run_training(topo, model, sched, seed=7, batch_size=3, w_star=w_star)
    b = run_training(topo, model, sched, seed=7, batch_size=3, w_star=w_star)
    for name in a.metrics:
        np.testing.assert_array_equal(a.metrics[name], b.metrics[name])
    np.testing.assert_array_equal(a.final_models, b.final_models)


def test_without_an_optimum_the_optimality_columns_are_nan(rng):
    topo, model = small_fleet(rng)
    sched = TrainingSchedule.uniform(2, 5, alpha=0.3, eta=0.05, delay=2,
                                     local_agg_period=2, num_subnets=2)
    res = run_training(topo, model, sched, seed=7, batch_size=3)
    for name in ("gap", "e1", "e2", "e3"):
        assert np.isnan(res.column(name)).all()
    assert np.isfinite(res.column("loss")).all()


def test_convex_combination_coordinate_bounds(rng):
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=3, batch_size=3)
    plan = IntervalPlan(tau=4, alpha=0.35, eta=0.08, delay=2)
    seen = {}

    def spy_policy(t, tentative, aggregates):
        seen[t] = tentative.copy()
        return np.zeros(topo.num_subnets, dtype=bool)

    outcome = proto.run_interval(plan, theta_policy=spy_policy)
    snapshot = outcome.snapshot
    tent = seen[4]
    for i in range(topo.num_devices):
        lo = np.minimum(snapshot, tent[i]) - 1e-12
        hi = np.maximum(snapshot, tent[i]) + 1e-12
        assert ((proto.w[i] >= lo) & (proto.w[i] <= hi)).all()


# -- the independent straight-line protocol oracle ----------------------------


def straight_line_protocol(topo, model, seed, batch, num_intervals, tau, alpha,
                           eta, delay, offsets):
    """Flat reimplementation of the training loop used as the engine oracle."""
    I = topo.num_devices
    N = topo.num_subnets
    dim = model.model_dim
    w = [np.zeros(dim) for _ in range(I)]
    t = 0
    for _ in range(num_intervals):
        t_end = t + tau
        capture = t_end - delay
        snapshot = None
        for step in range(1, tau + 1):
            tcur = t + step
            tent = []
            for i in range(I):
                gen = stream(seed, TAG_SGD, i)
                gen.bit_generator.advance((tcur - 1) * topo.datasets[i].n)
                g = stochastic_gradient(model, topo.datasets[i], w[i], batch, gen)
                tent.append(w[i] - eta * g)
            aggs = []
            for c in range(N):
                acc = np.zeros(dim)
                for i in topo.subnets[c]:
                    acc = acc + topo.device_weights[i] * tent[i]
                aggs.append(acc)
            if tcur == capture:
                snapshot = np.zeros(dim)
                for c in range(N):
                    snapshot = snapshot + topo.subnet_weights[c] * aggs[c]
            if tcur == t_end:
                for c in range(N):
                    theta = step in offsets
                    for i in topo.subnets[c]:
                        own = aggs[c] if theta else tent[i]
                        w[i] = (1 - alpha) * snapshot + alpha * own
            else:
                for c in range(N):
                    if step in offsets:
                        for i in topo.subnets[c]:
                            w[i] = aggs[c]
                    else:
                        for i in topo.subnets[c]:
                            w[i] = tent[i]
        t = t_end
    return np.asarray(w)


def test_engine_matches_straight_line_oracle(rng):
    topo, model = small_fleet(rng, n_devices=6, subnets=(3, 3))
    tau, delay, alpha, eta, period = 6, 2, 0.4, 0.06, 2
    offsets = set(range(period, tau + 1, period))
    sched = TrainingSchedule.uniform(5, tau, alpha=alpha, eta=eta, delay=delay,
                                     local_agg_period=period, num_subnets=2)
    res = run_training(topo, model, sched, seed=11, batch_size=4,
                       track_noise_free=False)
    oracle = straight_line_protocol(topo, model, seed=11, batch=4,
                                    num_intervals=5, tau=tau, alpha=alpha,
                                    eta=eta, delay=delay, offsets=offsets)
    np.testing.assert_allclose(res.final_models, oracle, rtol=0, atol=1e-10)


def engine_and_oracle(topo, model, seed, batch, intervals, tau, alpha, eta, delay,
                      period):
    """Final device models of ``run_training`` and of the straight-line oracle."""
    sched = TrainingSchedule.uniform(intervals, tau, alpha=alpha, eta=eta, delay=delay,
                                     local_agg_period=period,
                                     num_subnets=topo.num_subnets)
    res = run_training(topo, model, sched, seed=seed, batch_size=batch, w_star=None)
    offsets = set() if period is None else set(range(period, tau + 1, period))
    oracle = straight_line_protocol(topo, model, seed=seed, batch=batch,
                                    num_intervals=intervals, tau=tau, alpha=alpha,
                                    eta=eta, delay=delay, offsets=offsets)
    return res.final_models, oracle


@st.composite
def ragged_runs(draw):
    """Ragged subnets (up to 12 devices) of ragged devices, and a short schedule."""
    kind = draw(st.sampled_from([RIDGE, SVM]))
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3)) if kind == SVM else 1
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for n in gen.integers(2, 9, sum(sizes)).tolist():
        labels = gen.integers(0, classes, n).astype(float) if kind == SVM \
            else gen.standard_normal(n)
        parts.append(Dataset(gen.standard_normal((n, dim)), labels))
    model = LossModel(kind, feature_dim=dim, regularization=0.1, num_classes=classes)
    tau = draw(st.integers(1, 5))
    return dict(
        topo=build_topology(parts, sizes), model=model, seed=draw(st.integers(0, 99)),
        batch=draw(st.integers(1, 2)), intervals=draw(st.integers(1, 3)), tau=tau,
        alpha=draw(st.sampled_from([0.0, 0.4])), eta=0.05,
        delay=draw(st.integers(0, tau - 1)),
        period=draw(st.one_of(st.none(), st.integers(1, tau))),
    )


@given(ragged_runs())
def test_engine_equals_straight_line_oracle_bitwise(case):
    engine, oracle = engine_and_oracle(**case)
    assert np.array_equal(engine, oracle)


def test_engine_equals_oracle_bitwise_on_a_dim1_subnet_of_12():
    # a (k, 1) column is where a pairwise np.sum(axis=0) over k >= 9 rows
    # would part from the member-by-member sums
    for seed in range(20):
        gen = np.random.default_rng(seed)
        parts = [Dataset(gen.standard_normal((n, 1)), gen.standard_normal(n))
                 for n in gen.integers(3, 9, 14).tolist()]
        topo = build_topology(parts, [12, 2])
        model = LossModel(RIDGE, feature_dim=1, regularization=0.1)
        engine, oracle = engine_and_oracle(topo, model, seed=seed, batch=2, intervals=3,
                                           tau=4, alpha=0.4, eta=0.05, delay=1, period=2)
        assert np.array_equal(engine, oracle), seed


def straight_line_errors(topo, model, seed, batch, plans, w_star):
    """(e1, e2, e3) at the start and after every slot of a flat reimplementation
    of the engine beside its noise-free companions: one full-batch descent per
    subnet each slot, their global model taken at slot tau - delay of every
    interval and mixed back in by the combiner at slot tau."""
    I, N, dim = topo.num_devices, topo.num_subnets, model.model_dim
    w = [np.zeros(dim) for _ in range(I)]
    v = [np.zeros(dim) for _ in range(N)]

    def global_sum(vectors):
        out = np.zeros(dim)
        for c in range(N):
            out = out + topo.subnet_weights[c] * vectors[c]
        return out

    def errors():
        v_bar = global_sum(v)
        e1_sq = e2 = 0.0
        for c in range(N):
            for i in topo.subnets[c]:
                diff = w[i] - v[c]
                e1_sq += topo.subnet_weights[c] * topo.device_weights[i] * float(diff @ diff)
            e2 += topo.subnet_weights[c] * float(np.linalg.norm(v[c] - v_bar))
        return math.sqrt(e1_sq), e2, float(np.linalg.norm(v_bar - w_star))

    rows = [errors()]
    t = 0
    for plan in plans:
        for step in range(1, plan.tau + 1):
            t += 1
            tent = []
            for i in range(I):
                gen = stream(seed, TAG_SGD, i)
                gen.bit_generator.advance((t - 1) * topo.datasets[i].n)
                g = stochastic_gradient(model, topo.datasets[i], w[i], batch, gen)
                tent.append(w[i] - plan.eta * g)
            aggs = []
            for c in range(N):
                acc = np.zeros(dim)
                grad = np.zeros(dim)
                for i in topo.subnets[c]:
                    acc = acc + topo.device_weights[i] * tent[i]
                    grad = grad + topo.device_weights[i] * full_gradient(
                        model, topo.datasets[i], v[c])
                aggs.append(acc)
                v[c] = v[c] - plan.eta * grad
            if step == plan.tau - plan.delay:
                snapshot, v_snapshot = global_sum(aggs), global_sum(v)
            for c in range(N):
                for i in topo.subnets[c]:
                    w[i] = aggs[c] if step in plan.local_agg_offsets[c] else tent[i]
            if step == plan.tau:
                w = [(1 - plan.alpha) * snapshot + plan.alpha * wi for wi in w]
                v = [(1 - plan.alpha) * v_snapshot + plan.alpha * vc for vc in v]
            rows.append(errors())
    return rows


@st.composite
def companion_runs(draw, num_plans=(1, 3)):
    """A ragged fleet under ``num_plans`` (a range) intervals, each with its own plan."""
    case = draw(ragged_runs())
    plans = []
    for _ in range(draw(st.integers(*num_plans))):
        tau = draw(st.integers(1, 5))
        delay = draw(st.integers(0, tau - 1))
        period = draw(st.one_of(st.none(), st.integers(1, tau)))
        plans.append(IntervalPlan(
            tau=tau, alpha=draw(st.sampled_from([0.0, 0.4, 1.0])),
            eta=draw(st.sampled_from([0.02, 0.05, 0.1])), delay=delay,
            up_delay=draw(st.one_of(st.none(), st.integers(0, delay))),
            local_agg_offsets=periodic_offsets(tau, period, case["topo"].num_subnets)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w_star = gen.standard_normal(case["model"].model_dim)
    return case["topo"], case["model"], case["seed"], case["batch"], plans, w_star


@given(companion_runs())
def test_engine_companion_errors_equal_the_straight_line_loop(case):
    topo, model, seed, batch, plans, w_star = case
    res = run_training(topo, model, TrainingSchedule(tuple(plans)), seed=seed,
                       batch_size=batch, w_star=w_star)
    want = np.array(straight_line_errors(*case))
    for j, name in enumerate(("e1", "e2", "e3")):
        assert np.array_equal(res.column(name), want[:, j]), name


@contextlib.contextmanager
def pieces_of(budget):
    """Metric rows computed ``budget // (D*M)`` at a time, or one at a time."""
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget), \
            mock.patch.object(engine, "CHUNK_ELEMENTS", budget):
        yield


@given(companion_runs(), st.integers(1, 6), st.sampled_from([1, 40, 300]))
def test_logged_loss_and_gap_equal_the_straight_line_loop(case, every, budget):
    # each logged row from the models of its slot, copied when the slot logs:
    # the fleet average and the loss added from zero, device by device in
    # subnet order, and the squared gap as one dot product
    topo, model, seed, batch, plans, w_star = case
    schedule = TrainingSchedule(tuple(plans))
    models = {}
    state = Protocol._state

    def copying(proto):
        models[proto.t] = proto.w.copy()
        return state(proto)

    with mock.patch.object(Protocol, "_state", copying):
        res = run_training(topo, model, schedule, seed=seed, batch_size=batch,
                           w_star=w_star, metrics_every=every)
    logged = {0}
    t0 = 0
    for plan in plans:
        logged |= {t for t in range(t0 + 1, t0 + plan.tau + 1) if t % every == 0}
        t0 += plan.tau
        logged |= {t0, t0 - plan.delay}
    assert res.column("t").tolist() == sorted(logged) == sorted(models)
    want_loss, want_gap = [], []
    for t in sorted(logged):
        w_bar = np.zeros(model.model_dim)
        for c, members in enumerate(topo.subnets):
            acc = np.zeros(model.model_dim)
            for i in members:
                acc = acc + topo.device_weights[i] * models[t][i]
            w_bar = w_bar + topo.subnet_weights[c] * acc
        total = 0.0
        for c, members in enumerate(topo.subnets):
            for i in members:
                total += topo.subnet_weights[c] * topo.device_weights[i] \
                    * loss(model, topo.datasets[i], w_bar)
        diff = w_bar - w_star
        want_loss.append(total)
        want_gap.append(float(diff @ diff))
    assert np.array_equal(res.column("loss"), want_loss)
    assert np.array_equal(res.column("gap"), want_gap)
    # rows computed in smaller pieces, down to one at a time, are the same rows
    with pieces_of(budget):
        other = run_training(topo, model, schedule, seed=seed, batch_size=batch,
                             w_star=w_star, metrics_every=every)
    for name in res.metrics:
        assert np.array_equal(other.column(name), res.column(name)), name


def theorem_schedule(prob) -> TrainingSchedule:
    """50 intervals of 6 slots, aggregating in every slot: the shape of the theorem suite."""
    every_slot = tuple(tuple(range(1, 7)) for _ in range(prob.topology.num_subnets))
    return TrainingSchedule(tuple(
        IntervalPlan(tau=6, alpha=0.3, eta=0.01 / (1 + k), delay=2,
                     local_agg_offsets=every_slot) for k in range(50)))


def test_the_indicator_table_is_built_once_per_schedule_shape(monkeypatch):
    # the 50 plans of the theorem schedule differ only in eta; their table is shared
    prob = theorem_problem(batch_size=1)
    schedule = theorem_schedule(prob)
    tables = []
    build = IntervalPlan.indicators
    monkeypatch.setattr(IntervalPlan, "indicators",
                        lambda plan, n: tables.append(build(plan, n)) or tables[-1])
    proto = Protocol(prob.topology, prob.model, seed=0, batch_size=1, w_star=prob.w_star,
                     track_noise_free=False, metrics_every=6)
    for plan in schedule.intervals:
        proto.run_interval(plan)
    assert len(tables) == 1 and tables[0][1:].all()
    with pytest.raises(ValueError, match="read-only"):
        tables[0][1, 0] = False


@pytest.mark.parametrize("eta, bad_t, message", [
    (20.0, 113, "t=113, k=11: device 0 has a non-finite squared norm; the run diverged"),
    (50.0, 87, "t=87, k=8: device 0 has the largest model and the loss is not finite; "
               "the run diverged"),
])
def test_divergence_mid_piece_under_the_trigger_names_its_first_row(eta, bad_t, message):
    # the rows of a 10-slot interval are one piece; the run goes on past its first
    # non-finite model to the end of the interval, with the trigger evaluating
    # grad F at aggregates that overflow, yet raises only the DivergenceError
    # of that row, with no warning, as a flush after every slot does
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "minimal_ridge.json")
    topo, model = cfg.fleet, cfg.model
    params = HeterogeneityParams(
        mu=0.1, beta=2.0, inter_delta=0.0, inter_zeta=0.0,
        intra_delta=np.zeros(topo.num_subnets), intra_zeta=np.ones(topo.num_subnets),
        sgd_noise=0.0, subnet_noise_budget=0.5)

    def trigger(t, tentative, aggregates):
        return trigger_local_aggregation(aggregates, topo, model, params, 0.5,
                                         TriggerReference(topo, model))

    def diverge() -> Protocol:
        proto = Protocol(topo, model, seed=0, batch_size=5, w_star=cfg.w_star)
        plan = IntervalPlan(tau=10, alpha=0.3, eta=eta, delay=4)
        with pytest.raises(DivergenceError) as info:
            for _ in range(30):
                proto.run_interval(plan, theta_policy=trigger)
        assert str(info.value) == message
        return proto

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proto = diverge()
        assert proto._piece >= 10 and proto.t == bad_t // 10 * 10 + 10    # the interval end
        with pieces_of(1):
            proto = diverge()
        assert proto._piece == 1 and proto.t == bad_t


@contextlib.contextmanager
def recorded_flushes():
    """The slot and the pending row count of every ``Protocol._log_row`` call."""
    flushes = []
    log_row = Protocol._log_row

    def spy(proto):
        flushes.append((proto.t, len(proto._pending)))
        return log_row(proto)

    with mock.patch.object(Protocol, "_log_row", spy):
        yield flushes


def test_a_fixed_schedule_computes_its_rows_at_construction_and_in_the_result():
    # the 100 rows after t=0 of the theorem schedule (capture and sync of each
    # interval) fit one piece, so no interval end computes them
    prob = theorem_problem(batch_size=1)
    schedule = theorem_schedule(prob)
    with recorded_flushes() as flushes:
        res = run_training(prob.topology, prob.model, schedule, seed=0, batch_size=1,
                           w_star=prob.w_star, track_noise_free=False, metrics_every=6)
    assert flushes == [(0, 1), (300, 100)]
    assert res.column("t").size == 101
    # an interval that a theta_policy drives computes its rows at its end
    with recorded_flushes() as flushes:
        proto = Protocol(prob.topology, prob.model, seed=0, batch_size=1,
                         w_star=prob.w_star, track_noise_free=False, metrics_every=6)
        proto.run_interval(schedule.intervals[0], theta_policy=lambda t, tentative, aggs:
                           np.ones(prob.topology.num_subnets, dtype=bool))
    assert flushes == [(0, 1), (6, 2)] and not proto._pending


@given(companion_runs(num_plans=(2, 6)), st.integers(1, 7), st.sampled_from([None, 2, 5]))
def test_pieces_across_interval_ends_equal_rows_computed_one_at_a_time(case, every, rows):
    topo, model, seed, batch, plans, w_star = case
    schedule = TrainingSchedule(tuple(plans))
    kwargs = dict(seed=seed, batch_size=batch, w_star=w_star, metrics_every=every)
    # the default budget, or one of ``rows`` rows of this fleet, which splits a run
    # into several pieces
    size = topo.num_devices * model.model_dim
    budget = losses.CHUNK_ELEMENTS if rows is None else rows * size
    with pieces_of(budget), recorded_flushes() as flushes:
        res = run_training(topo, model, schedule, **kwargs)
    # the t=0 row, then one flush per full piece and one for the rest in the result
    piece = max(1, budget // size)
    assert len(flushes) == 1 + -(-(res.column("t").size - 1) // piece)
    with pieces_of(1):
        other = run_training(topo, model, schedule, **kwargs)
    for name in res.metrics:
        assert np.array_equal(other.column(name), res.column(name)), name


def test_a_tracked_run_flushes_by_the_rule_within_the_loss_budget():
    # the adaptive_demo fleet (20 devices of 60 points, model dim 60, 10 classes)
    # under the label_skew_svm fixed schedule, tracking on, metrics every slot:
    # 201 rows in pieces of 32768 // (20*60) = 27, so 9 flushes; each loss call
    # takes 2*32768 // 12000 = 5 points of 12 000 margins, so a piece of 27 rows
    # takes 6 calls: 1 + 7*6 + 3 (the last 11 rows) = 46 calls
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "adaptive_demo.json")
    topo, model = cfg.fleet, cfg.model
    schedule = TrainingSchedule.uniform(10, 20, alpha=0.5, eta=0.03, delay=10,
                                        local_agg_period=5, num_subnets=topo.num_subnets)
    margins = []
    kernel = losses._losses

    def spy(model, X, targets, W):
        margins.append(W.shape[0] * targets.size)
        return kernel(model, X, targets, W)

    with mock.patch.object(losses, "_losses", spy), recorded_flushes() as flushes:
        res = run_training(topo, model, schedule, seed=0, batch_size=cfg.batch_size,
                           w_star=np.zeros(model.model_dim))
    piece = losses.CHUNK_ELEMENTS // (topo.num_devices * model.model_dim)
    assert piece == 27 and res.column("t").size == 201
    assert len(flushes) == 1 + -(-200 // piece) == 9
    assert max(rows for _, rows in flushes) == piece
    assert max(margins) <= 2 * losses.CHUNK_ELEMENTS and len(margins) == 46


@st.composite
def scheduled_runs(draw):
    """A ragged fleet under 2..5 plans, each with its own random offsets per subnet."""
    case = draw(ragged_runs())
    plans = []
    for _ in range(draw(st.integers(2, 5))):
        tau = draw(st.integers(1, 6))
        delay = draw(st.integers(0, tau - 1))
        offsets = tuple(tuple(sorted(draw(st.sets(st.integers(1, tau)))))
                        for _ in range(case["topo"].num_subnets))
        plans.append(IntervalPlan(
            tau=tau, alpha=draw(st.sampled_from([0.0, 0.4, 1.0])),
            eta=draw(st.sampled_from([0.02, 0.1])), delay=delay,
            up_delay=draw(st.one_of(st.none(), st.integers(0, delay))),
            local_agg_offsets=offsets))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dict(topo=case["topo"], model=case["model"], seed=case["seed"],
                batch=case["batch"], plans=plans,
                w_star=gen.standard_normal(case["model"].model_dim),
                every=draw(st.integers(1, 7)))


@given(scheduled_runs())
def test_a_fixed_schedule_equals_a_policy_returning_its_table(case):
    # the fixed path sums subnets only where a slot reads them and counts from the
    # table; a policy returning the same rows sums and counts in every slot
    topo, model, plans = case["topo"], case["model"], case["plans"]

    def run(driven: bool):
        cost = RadioCostModel(RadioConfig(), model.model_dim, topo.num_devices,
                              topo.subnets, case["seed"])
        proto = Protocol(topo, model, case["seed"], case["batch"], cost_model=cost,
                         w_star=case["w_star"], metrics_every=case["every"])
        counts = []
        for plan in plans:
            table = plan.indicators(topo.num_subnets)
            policy = (lambda t, tentative, aggregates, t0=proto.t, table=table:
                      table[t - t0]) if driven else None
            counts.append(proto.run_interval(plan, theta_policy=policy).theta_counts)
        return proto.result(), counts

    (fixed, fixed_counts), (driven, driven_counts) = run(False), run(True)
    for name in METRIC_COLUMNS:
        assert np.array_equal(fixed.column(name), driven.column(name)), name
    assert fixed.events == driven.events
    for got, want in zip(fixed_counts, driven_counts):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(fixed.final_models, driven.final_models)


@pytest.mark.parametrize("num_intervals", [12, 30, 110])
@pytest.mark.parametrize("eta, bad_t, message", [
    (20.0, 107, "t=107, k=10: device 1 has a non-finite squared norm; the run diverged"),
    (50.0, 84, "t=84, k=8: device 1 has a non-finite squared norm; the run diverged"),
])
def test_a_diverging_fixed_schedule_names_its_first_row_under_any_piece(num_intervals, eta,
                                                                         bad_t, message):
    # a piece of this fleet is 32768 // (8*4) = 1024 rows: 12 and 30 intervals
    # compute theirs in the result, 110 fill the piece at slot 1024; either way
    # the error is the one of rows computed one at a time, with no warning
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "minimal_ridge.json")
    schedule = TrainingSchedule((replace(cfg.schedule.intervals[0], eta=eta),) * num_intervals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for budget, stop in [(losses.CHUNK_ELEMENTS, min(10 * num_intervals, 1024)),
                             (1, bad_t)]:
            with pieces_of(budget), recorded_flushes() as flushes, \
                    pytest.raises(DivergenceError) as info:
                run_training(cfg.fleet, cfg.model, schedule, seed=0,
                             batch_size=cfg.batch_size, w_star=cfg.w_star)
            assert str(info.value) == message
            assert flushes[-1][0] == stop


def test_clock_discipline_snapshot_precedes_sync(rng):
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=5, batch_size=3)
    plan = IntervalPlan(tau=7, alpha=0.2, eta=0.05, delay=3)
    outcome = proto.run_interval(plan)
    assert outcome.capture_t == proto.t - 3
    assert proto.t == 7


def test_duplicate_and_missing_snapshot_guards(rng):
    # plant a leftover pending snapshot to exercise the double-capture guard
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=5, batch_size=3)
    proto._pending_snapshot = np.zeros(model.model_dim)
    with pytest.raises(Exception):
        proto.run_interval(IntervalPlan(tau=3, alpha=0.0, eta=0.05, delay=1))


# -- diagnostics vs one-step bounds -------------------------------------------


def test_logged_dispersion_gap_satisfy_one_step_bounds():
    prob = diverse_problem()
    topo, model, params = prob.topology, prob.model, prob.params
    eta = 0.5 * 2.0 / (params.mu + params.beta)
    tau = 10
    sched = TrainingSchedule.uniform(4, tau, alpha=0.2, eta=eta, delay=3,
                                     num_subnets=topo.num_subnets)
    res = run_training(topo, model, sched, seed=21, batch_size=2,
                       w_star=prob.w_star)
    e2, e3 = res.column("e2"), res.column("e3")
    sync_times = set(int(t) for t in res.sync_times)
    for t in range(len(e2) - 1):
        if (t + 1) in sync_times:
            continue
        _, b2, b3 = one_step_bounds(params, 0.0, e2[t], e3[t], eta)
        assert e2[t + 1] <= b2 + 1e-9
        assert e3[t + 1] <= b3 + 1e-9


def test_metrics_decimation_keeps_sync_rows(rng):
    topo, model = small_fleet(rng)
    sched = TrainingSchedule.uniform(3, 8, alpha=0.1, eta=0.04, delay=2,
                                     num_subnets=2)
    res = run_training(topo, model, sched, seed=2, batch_size=3,
                       metrics_every=8, track_noise_free=False,
                       w_star=topo.optimum(model))
    logged = set(int(t) for t in res.column("t"))
    for t_sync in (8, 16, 24):
        assert t_sync in logged
        assert t_sync - 2 in logged  # capture slots forced into the log
    assert res.at_sync("gap").shape == (3,)


def test_full_batch_reproduces_deterministic_gd(rng):
    # batch = dataset size turns the protocol into plain gradient descent;
    # compare against a straight-line GD recursion to 1e-12 per step
    ds = Dataset(rng.standard_normal((15, 3)), rng.standard_normal(15))
    topo = build_topology([ds], [1])
    model = LossModel(RIDGE, feature_dim=3, regularization=0.2)
    eta, steps = 0.08, 30
    proto = Protocol(topo, model, seed=0, batch_size=15, w_star=None)
    plan = IntervalPlan(tau=1, alpha=0.0, eta=eta, delay=0)
    w_ref = np.zeros(3)
    for _ in range(steps):
        proto.run_interval(plan)
        w_ref = w_ref - eta * full_gradient(model, ds, w_ref)
        np.testing.assert_allclose(proto.w[0], w_ref, atol=1e-12)


def test_clock_discipline_step_counts(rng):
    # exactly delay slots of device work happen between capture and sync
    topo, model = small_fleet(rng)
    proto = Protocol(topo, model, seed=4, batch_size=3, w_star=None)
    seen = []

    def spy(t, tentative, aggregates):
        seen.append(t)
        return np.zeros(2, dtype=bool)

    out = proto.run_interval(IntervalPlan(tau=9, alpha=0.1, eta=0.05, delay=4),
                             theta_policy=spy)
    assert seen == list(range(1, 10))
    assert proto.t - out.capture_t == 4


def test_single_slot_interval_with_trigger_and_capture(rng):
    # tau=1, delay=0: capture, trigger instant and sync share one slot
    topo, model = small_fleet(rng)
    sched = TrainingSchedule.uniform(3, 1, alpha=0.4, eta=0.05, delay=0,
                                     local_agg_period=1, num_subnets=2)
    res = run_training(topo, model, sched, seed=6, batch_size=3,
                       track_noise_free=False)
    assert res.column("t")[-1] == 3
    # with theta=1 at the sync slot the combiner mixes the snapshot with the
    # subnet aggregate, so devices in a subnet end identical
    for c in range(2):
        members = list(res.final_models[list(range(2 * c, 2 * c + 2))])
        np.testing.assert_array_equal(members[0], members[1])


def test_zero_up_delay_split(rng):
    topo, model = small_fleet(rng)
    sched = TrainingSchedule.uniform(2, 6, alpha=0.2, eta=0.05, delay=3,
                                     up_delay=0, num_subnets=2)
    res = run_training(topo, model, sched, seed=6, batch_size=3,
                       track_noise_free=False)
    assert res.column("t")[-1] == 12
