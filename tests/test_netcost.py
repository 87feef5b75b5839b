"""Radio cost model: unit anchors, composition laws, accounting closure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.data import Dataset
from dflsim.engine import EVENT_COLUMNS, CostEvent, Protocol, TrainingSchedule, run_training
from dflsim.errors import CostModelError
from dflsim.fleet import build_topology
from dflsim.losses import RIDGE, LossModel
from dflsim.netcost import (
    RadioConfig,
    RadioCostModel,
    aggregation_delay,
    aggregation_energy,
    dbm_per_hz_to_w_per_hz,
    fading_gains,
    global_aggregation_cost,
    pathloss_gain,
    place_devices,
    shannon_rate,
    stream,
    wall_clock_to_iterations,
)

RADIO = RadioConfig()


def device_rates(cost, t, members):
    """Uplink rates at slot t of the devices ``members``, read from the channel table."""
    row = cost._row(t)      # refills the table first when t is outside its block
    return cost._rates[np.asarray(members), row]


def test_dbm_conversion_anchors():
    # three hand-computed anchors: 0 dBm/Hz = 1 mW/Hz, -30 -> 1 uW/Hz,
    # -173 -> 10^-20.3 W/Hz
    assert dbm_per_hz_to_w_per_hz(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_per_hz_to_w_per_hz(-30.0) == pytest.approx(1e-6, rel=1e-12)
    assert dbm_per_hz_to_w_per_hz(-173.0) == pytest.approx(10 ** (-20.3), rel=1e-12)


def test_shannon_rate_anchor():
    # W log2(1 + p*g / (N0*W)) at g=1, p=0.25, N0=-173 dBm/Hz, W=1 MHz
    noise = 10 ** ((-173.0 - 30.0) / 10.0) * 1e6
    expected = 1e6 * math.log2(1.0 + 0.25 / noise)
    got = shannon_rate(RADIO, channel_gain=1.0, tx_power_w=0.25)
    assert got == pytest.approx(expected, rel=1e-12)


def test_shannon_rate_zero_power_and_monotonicity():
    assert shannon_rate(RADIO, 1.0, 0.0) == 0.0
    r1 = shannon_rate(RADIO, 0.5, 0.25)
    r2 = shannon_rate(RADIO, 0.5, 0.5)
    assert r2 > r1


def test_energy_anchor_and_linearity():
    # M=7840, Q=32, p=0.25 W, R=1e6 bit/s -> 7840*32*0.25/1e6 = 0.06272 J
    bits = 7840 * 32
    e = aggregation_energy(RADIO, bits, np.array([1e6]), np.array([0.25]))
    assert e == pytest.approx(0.06272, rel=1e-12)
    e2 = aggregation_energy(RadioConfig(bits_per_parameter=64), 7840 * 64,
                            np.array([1e6]), np.array([0.25]))
    assert e2 == pytest.approx(2 * e, rel=1e-12)
    both = aggregation_energy(RADIO, bits, np.array([1e6, 1e6]),
                              np.array([0.25, 0.25]))
    assert both == pytest.approx(2 * e, rel=1e-12)


def test_delay_anchor_and_max_composition():
    bits = 250_880
    d = aggregation_delay(RADIO, bits, np.array([1e6]))
    assert d == pytest.approx(0.25088, rel=1e-12)
    slower = aggregation_delay(RADIO, bits, np.array([1e6, 5e5]))
    assert slower == pytest.approx(bits / 5e5, rel=1e-12)
    assert slower > d


def test_zero_rate_errors():
    with pytest.raises(CostModelError):
        aggregation_energy(RADIO, 100, np.array([0.0]), np.array([0.25]))
    with pytest.raises(CostModelError):
        aggregation_delay(RADIO, 100, np.array([0.0]))


def test_wall_clock_conversion_anchors():
    assert wall_clock_to_iterations(0.050, 200.0) == 10
    assert wall_clock_to_iterations(0.0, 200.0) == 0
    assert wall_clock_to_iterations(0.051, 200.0) == 11


def test_global_cost_includes_latency():
    bits = 7840 * 32
    energy, delay = global_aggregation_cost(RADIO, bits, num_subnets=10)
    assert energy == pytest.approx(10 * bits * 6.3 / 100e6, rel=1e-12)
    assert delay == pytest.approx(bits / 100e6 + 0.050, rel=1e-12)


def test_pathloss_reference_point():
    # at d = d0 the gain equals the reference: -30 dB -> 1e-3
    assert pathloss_gain(RADIO, 1.0) == pytest.approx(1e-3, rel=1e-12)
    assert pathloss_gain(RADIO, 10.0) == pytest.approx(
        1e-3 * 10 ** (-3.75), rel=1e-12)


def test_channel_draw_deterministic_and_positive():
    subnets = ((0, 1, 2), (3, 4))
    a = RadioCostModel(RADIO, 10, 5, subnets, seed=1)
    b = RadioCostModel(RADIO, 10, 5, subnets, seed=1)
    for t in (7, 3, 130, 7):        # out of order: the table refills and steps back
        assert np.array_equal(device_rates(a, t, range(5)), device_rates(b, t, range(5)))
        assert (device_rates(a, t, range(5)) > 0).all()
    assert not np.array_equal(device_rates(a, 7, range(5)), device_rates(a, 8, range(5)))


def test_fading_power_is_unit_exponential():
    # |CN(0, 1)|^2 is Exp(1): mean 1, variance 1, P(> 1) = 1/e
    power = fading_gains(1.0, stream(1, 2, 0).random(200_000))
    assert abs(power.mean() - 1.0) < 0.01
    assert abs(power.var() - 1.0) < 0.03
    assert abs(np.mean(power > 1.0) - math.exp(-1.0)) < 0.005
    assert (power >= 0).all()


def test_placement_in_field():
    d = place_devices(RADIO, 500, seed=4)
    assert (d >= 0).all()
    assert (d <= math.hypot(15.0, 15.0) + 1e-12).all()
    np.testing.assert_array_equal(d, place_devices(RADIO, 500, seed=4))


@given(q=st.integers(1, 256))
@settings(max_examples=30)
def test_energy_linear_in_bits(q):
    base = aggregation_energy(RADIO, 1000, np.array([2e6]), np.array([0.25]))
    scaled = aggregation_energy(RADIO, 1000 * q, np.array([2e6]), np.array([0.25]))
    assert scaled == pytest.approx(q * base, rel=1e-12)


def test_accounting_closure_on_run(rng):
    parts = [Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8))
             for _ in range(4)]
    topo = build_topology(parts, [2, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    cost_model = RadioCostModel(RadioConfig(), model.model_dim, 4, topo.subnets,
                                seed=13)
    sched = TrainingSchedule.uniform(3, 6, alpha=0.2, eta=0.05, delay=2,
                                     local_agg_period=2, num_subnets=2)
    res = run_training(topo, model, sched, seed=8, batch_size=4,
                       cost_model=cost_model, track_noise_free=False)
    # cumulative columns replay the per-event log exactly (same order)
    energy = delay = 0.0
    per_t_energy = {}
    per_t_delay = {}
    for ev in res.events:
        energy += ev.energy_j
        delay += ev.delay_s
        per_t_energy[ev.t] = energy
        per_t_delay[ev.t] = delay
    assert res.column("cum_energy")[-1] == energy
    assert res.column("cum_delay")[-1] == delay
    ts = res.column("t")
    for row, t in enumerate(ts):
        expect_e = max((v for k, v in per_t_energy.items() if k <= t), default=0.0)
        assert res.column("cum_energy")[row] == expect_e
    # events: per interval, one local uplink per subnet at the capture slot
    # and one global event at the cloud-computation slot (t_end - down_delay;
    # the delay defaults to all-uplink, so that is the sync slot here)
    kinds = [(ev.t, ev.kind) for ev in res.events]
    assert (6, "global") in kinds and (4, "local") in kinds
    local_counts = sum(1 for ev in res.events if ev.kind == "local")
    global_counts = sum(1 for ev in res.events if ev.kind == "global")
    assert global_counts == 3
    # tau=6, period=2 -> offsets {2,4,6}; the capture slot 4 charges each
    # subnet once (absorbing that offset), slots 2 and 6 charge per subnet:
    # 3 slots x 2 subnets = 6 local events per interval
    assert local_counts == 3 * 6


def replay_events(cost_model, plans, marks) -> list[tuple]:
    """The cost log one event at a time: in each slot the capture's uplinks (every
    subnet), then the global event, then the slot's aggregations unless it is the
    capture, subnets ascending; ``marks[t]`` are slot t's (N,) aggregation marks."""
    events, t0 = [], 0
    for plan in plans:
        t_end = t0 + plan.tau
        for t in range(t0 + 1, t_end + 1):
            energy, delay = (costs.tolist() for costs in cost_model.local_event(t))
            charged = range(len(energy)) if t == t_end - plan.delay else []
            events += [(t, "local", c, energy[c], delay[c]) for c in charged]
            if t == t_end - plan.down_delay:
                events.append((t, "global", -1, *cost_model.global_event(t)))
            if not charged:
                events += [(t, "local", c, energy[c], delay[c])
                           for c in np.flatnonzero(marks[t]).tolist()]
        t0 = t_end
    return events


@st.composite
def radio_runs(draw):
    """A small radio-on ridge fleet under a periodic schedule whose global event falls
    in the capture slot (up_delay 0) or later, or under a policy's random marks."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [Dataset(gen.standard_normal((4, 2)), gen.standard_normal(4))
             for _ in range(sum(sizes))]
    tau = draw(st.integers(1, 7))
    delay = draw(st.integers(0, tau - 1))
    schedule = TrainingSchedule.uniform(
        draw(st.integers(1, 4)), tau, alpha=0.3, eta=0.05, delay=delay,
        up_delay=draw(st.sampled_from([0, delay, (delay + 1) // 2])),
        local_agg_period=draw(st.one_of(st.none(), st.integers(1, tau))),
        num_subnets=len(sizes))
    return dict(topo=build_topology(parts, sizes), schedule=schedule, gen=gen,
                seed=draw(st.integers(0, 99)), every=draw(st.integers(1, 7)),
                driven=draw(st.booleans()))


@given(radio_runs())
def test_the_event_columns_equal_a_per_event_replay(case):
    topo, schedule, gen = case["topo"], case["schedule"], case["gen"]
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    cost_model = RadioCostModel(RADIO, model.model_dim, topo.num_devices, topo.subnets,
                                case["seed"])
    proto = Protocol(topo, model, case["seed"], 2, cost_model=cost_model,
                     metrics_every=case["every"])
    marks = {}
    for plan in schedule.intervals:
        table, t0 = plan.indicators(topo.num_subnets), proto.t
        if case["driven"]:
            def policy(t, tentative, aggregates):
                marks[t] = gen.random(topo.num_subnets) < 0.5
                return marks[t]
        else:
            marks.update((t0 + step, table[step]) for step in range(1, plan.tau + 1))
            policy = None
        proto.run_interval(plan, theta_policy=policy)
    res = proto.result()

    want = replay_events(cost_model, schedule.intervals, marks)
    assert res.events == [CostEvent(*event) for event in want]
    for name, column in zip(EVENT_COLUMNS, zip(*want)):
        assert res.event_columns[name].tolist() == list(column), name
    # each logged row holds the running sums of the events up to its slot, bit for bit
    energy = delay = 0.0
    events = iter(want)
    event = next(events, None)
    for t, cum_energy, cum_delay in zip(*(res.column(name).tolist()
                                          for name in ("t", "cum_energy", "cum_delay"))):
        while event is not None and event[0] <= t:
            energy += event[3]
            delay += event[4]
            event = next(events, None)
        assert (cum_energy, cum_delay) == (energy, delay), t
    assert event is None


def test_rates_positive_under_default_radio():
    cost_model = RadioCostModel(RadioConfig(), 100, 6, ((0, 1, 2), (3, 4, 5)),
                                seed=3)
    rates = device_rates(cost_model, 7, (0, 1, 2))
    assert (rates > 0).all()
    energy, delay = cost_model.local_event(7)
    e, d = energy[0], delay[0]
    assert e > 0 and d > 0


def test_updown_split_sets_event_timestamps(rng):
    parts = [Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8))
             for _ in range(2)]
    topo = build_topology(parts, [2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    cost_model = RadioCostModel(RadioConfig(), model.model_dim, 2, topo.subnets,
                                seed=5)
    sched = TrainingSchedule.uniform(1, 10, alpha=0.2, eta=0.05, delay=6,
                                     up_delay=4, num_subnets=1)
    res = run_training(topo, model, sched, seed=1, batch_size=4,
                       cost_model=cost_model, track_noise_free=False)
    by_kind = {(ev.kind): ev.t for ev in res.events}
    assert by_kind["local"] == 4      # capture at t_end - delay
    assert by_kind["global"] == 8     # cloud computes at t_end - down_delay
