"""The fleet-batched gradient oracle and the slot-addressed streams against
the single-device calls.

Every stacked result must equal, bit for bit, the per-device loop it
replaces: ``full_gradient`` per (point, device), the subnet and global
sums added device by device and subnet by subnet, ``stochastic_gradient``
on the same stream, and the estimator's norms and maxima. The engine's
minibatches and the channel table must equal what each device's own
stream, advanced to the slot, gives.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import losses
from dflsim.analysis import error_terms, noise_free_step
from dflsim.data import Dataset
from dflsim.engine import Protocol, TrainingSchedule, run_training
from dflsim.errors import BatchSizeError
from dflsim.fleet import (
    FleetTopology,
    build_topology,
    gradient_survey,
    measure_diversity,
    measure_sgd_noise,
    measure_smoothness_convexity,
)
from dflsim.losses import RIDGE, SVM, LossModel, full_gradient, loss, norms, stochastic_gradient
from dflsim.netcost import (
    TAG_CHANNEL,
    TAG_SGD,
    RadioConfig,
    RadioCostModel,
    aggregation_delay,
    aggregation_energy,
    pathloss_gain,
    stream,
)


@st.composite
def fleets(draw):
    """A ragged fleet (unequal point counts), its model and a few points."""
    kind = draw(st.sampled_from([RIDGE, SVM]))
    dim = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 4)) if kind == SVM else 1
    counts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    cut = draw(st.integers(1, len(counts)))
    sizes = [s for s in (cut, len(counts) - cut) if s]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for n in counts:
        labels = gen.integers(0, classes, n).astype(float) if kind == SVM \
            else gen.standard_normal(n)
        datasets.append(Dataset(gen.standard_normal((n, dim)), labels))
    model = LossModel(kind, feature_dim=dim, regularization=0.05, num_classes=classes)
    points = gen.standard_normal((draw(st.integers(1, 9)), model.model_dim))
    # a small budget splits blocks and points into several kernel calls
    budget = draw(st.sampled_from([1, 7, 40, losses.CHUNK_ELEMENTS]))
    return build_topology(datasets, sizes), model, points, budget


def slot_stream(seed, device, draws, tag=TAG_SGD):
    """The device's stream (seed, tag, device) advanced past its first ``draws`` draws."""
    gen = stream(seed, tag, device)
    gen.bit_generator.advance(draws)
    return gen


def looped_subnet_gradient(topo: FleetTopology, model, c, w):
    out = np.zeros(model.model_dim)
    for i in topo.subnets[c]:
        out += topo.device_weights[i] * full_gradient(model, topo.datasets[i], w)
    return out


def looped_global_gradient(topo: FleetTopology, model, w):
    out = np.zeros(model.model_dim)
    for c in range(topo.num_subnets):
        out += topo.subnet_weights[c] * looped_subnet_gradient(topo, model, c, w)
    return out


@given(fleets())
def test_every_slice_equals_the_single_device_call(case):
    topo, model, points, budget = case
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        grads = topo.stack.gradients(model, points)
        own = topo.stack.own_gradients(model, points[:1].repeat(topo.num_devices, 0))
        device_losses = topo.stack.losses(model, points[0])
    for p, w in enumerate(points):
        for i, ds in enumerate(topo.datasets):
            assert np.array_equal(grads[p, i], full_gradient(model, ds, w))
    for i, ds in enumerate(topo.datasets):
        assert np.array_equal(own[i], full_gradient(model, ds, points[0]))
        assert device_losses[i] == loss(model, ds, points[0])


@given(fleets())
def test_stacked_losses_equal_the_single_device_call(case):
    # the logged rows' loss: (P, M) points -> (P, D), and F at every point
    topo, model, points, budget = case
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        device_losses = topo.stack.losses(model, points)
        global_losses = topo.global_loss(model, points)
    assert device_losses.shape == (len(points), topo.num_devices)
    for p, w in enumerate(points):
        for i, ds in enumerate(topo.datasets):
            assert device_losses[p, i] == loss(model, ds, w)
        assert global_losses[p] == topo.global_loss(model, w)


@given(fleets())
def test_subnet_and_global_sums_equal_the_loops(case):
    topo, model, points, budget = case
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        subnet = topo.subnet_sums(topo.stack.gradients(model, points))
        glob = topo.global_gradients(model, points)
    for p, w in enumerate(points):
        for c in range(topo.num_subnets):
            assert np.array_equal(subnet[p, c], looped_subnet_gradient(topo, model, c, w))
        assert np.array_equal(glob[p], looped_global_gradient(topo, model, w))
        assert np.array_equal(topo.global_gradient(model, w), glob[p])
    looped_loss = 0.0
    for c in range(topo.num_subnets):
        for i in topo.subnets[c]:
            looped_loss += topo.subnet_weights[c] * topo.device_weights[i] \
                * loss(model, topo.datasets[i], points[0])
    assert topo.global_loss(model, points[0]) == looped_loss


@given(fleets(), st.data())
def test_global_loss_equals_the_loop_on_shuffled_ragged_subnets(case, data):
    fleet, model, points, _ = case
    num = fleet.num_devices
    ids = data.draw(st.permutations(range(num)))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(num - 1, 1)), max_size=num - 1)))
    subnets = tuple(tuple(ids[a:b]) for a, b in zip([0] + cuts, cuts + [num]))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = gen.uniform(0.1, 1.0, num)
    device_weights = np.empty(num)
    for members in subnets:
        device_weights[list(members)] = raw[list(members)] / raw[list(members)].sum()
    subnet_weights = gen.uniform(0.1, 1.0, len(subnets))
    subnet_weights /= subnet_weights.sum()
    topo = FleetTopology(subnets, fleet.datasets, device_weights, subnet_weights)
    looped = 0.0
    for c, members in enumerate(subnets):
        for i in members:
            looped += subnet_weights[c] * device_weights[i] \
                * loss(model, topo.datasets[i], points[0])
    assert topo.global_loss(model, points[0]) == looped


@st.composite
def reductions(draw):
    """A fleet of one-point devices, in consecutive equal-size subnets (strided
    member positions) or shuffled ragged ones (index positions), with random
    weights and (P, D, M) values holding planted -0.0 and infinities."""
    num_subnets = draw(st.integers(1, 5))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 4))] * num_subnets
        ids = list(range(sum(sizes)))
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=num_subnets, max_size=num_subnets))
        ids = draw(st.permutations(range(sum(sizes))))
    cuts = np.cumsum([0] + sizes).tolist()
    subnets = tuple(tuple(ids[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
    num = len(ids)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = gen.uniform(0.1, 1.0, num)
    device_weights = np.empty(num)
    for members in subnets:
        device_weights[list(members)] = raw[list(members)] / raw[list(members)].sum()
    subnet_weights = gen.uniform(0.1, 1.0, num_subnets)
    subnet_weights /= subnet_weights.sum()
    datasets = tuple(Dataset(np.zeros((1, 1)), np.zeros(1)) for _ in range(num))
    topo = FleetTopology(subnets, datasets, device_weights, subnet_weights)
    values = gen.standard_normal((draw(st.integers(1, 3)), num, draw(st.integers(1, 3))))
    plant = gen.random(values.shape)
    values[plant < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    values[plant > 1.0 - draw(st.sampled_from([0.0, 0.05]))] = np.inf
    values[plant > 1.0 - draw(st.sampled_from([0.0, 0.05]))] *= -1.0
    return topo, values


def same_bits(got, want) -> bool:
    return np.array_equal(got, want, equal_nan=True) \
        and np.array_equal(np.signbit(got), np.signbit(want))


@given(reductions())
def test_reductions_equal_the_scalar_loops(case):
    topo, values = case
    num_points, _, dim = values.shape
    subnet = np.zeros((num_points, topo.num_subnets, dim))
    glob = np.zeros((num_points, dim))
    for p in range(num_points):
        for m in range(dim):
            for c, members in enumerate(topo.subnets):
                for i in members:
                    subnet[p, c, m] += topo.device_weights[i] * values[p, i, m]
                glob[p, m] += topo.subnet_weights[c] * subnet[p, c, m]
    assert same_bits(topo.subnet_sums(values), subnet)
    assert same_bits(topo.global_sums(subnet), glob)
    total = 0.0
    for c, members in enumerate(topo.subnets):
        for i in members:
            total += topo.subnet_weights[c] * topo.device_weights[i] * values[0, i, 0]
    assert same_bits(topo.device_total(values[0, :, 0]), total)


@given(reductions())
def test_device_total_over_leading_axes_equals_the_row_calls(case):
    topo, values = case
    rows = topo.device_total(np.swapaxes(values, 1, 2))     # (P, M, D) -> (P, M)
    for p in range(values.shape[0]):
        for m in range(values.shape[2]):
            assert same_bits(rows[p, m], topo.device_total(values[p, :, m]))


@given(fleets(), st.integers(0, 2**32 - 1))
def test_default_devices_equal_the_explicit_ones(case, seed):
    topo, model, points, _ = case
    stack = topo.stack
    gen = np.random.default_rng(seed)
    smallest = int(stack.counts.min())
    batch = int(gen.integers(1, smallest + 1))
    idx = np.stack([gen.permutation(n)[:batch] for n in stack.counts.tolist()])
    W = points[np.arange(topo.num_devices) % len(points)]
    every = np.arange(topo.num_devices)
    assert same_bits(stack.minibatch_gradients(model, W, idx),
                     stack.minibatch_gradients(model, W, idx, every))
    for bad in (0, smallest + 1):
        for devices in (None, every):
            with pytest.raises(BatchSizeError, match=f"batch_size {bad} outside"):
                stack.minibatch_gradients(model, W, np.zeros((topo.num_devices, bad)), devices)


@given(fleets(), st.integers(0, 50), st.integers(1, 9))
def test_minibatch_form_equals_stochastic_gradient(case, t, batch):
    topo, model, points, _ = case
    batch = min(batch, int(topo.stack.counts.min()))
    W = points[np.arange(topo.num_devices) % len(points)]
    # the engine's draws at slot t+1: draws [t*n, (t+1)*n) of each device's
    # stream; a device whose data is one batch takes all of it and draws nothing
    idx = np.array([np.argsort(slot_stream(5, i, t * n).random(n), kind="stable")[:batch]
                    if batch < n else np.arange(n)
                    for i, n in enumerate(topo.stack.counts.tolist())])
    got = topo.stack.minibatch_gradients(model, W, idx)
    for i, ds in enumerate(topo.datasets):
        want = stochastic_gradient(model, ds, W[i], batch, slot_stream(5, i, t * ds.n))
        assert np.array_equal(got[i], want)


@given(st.data(), st.integers(1, 4), st.integers(1, 9))
def test_minibatch_is_the_stable_argsort_under_ties(data, rows, n):
    # keys from four values tie often; a stable sort breaks ties by position
    keys = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                                       min_size=rows * n, max_size=rows * n)))
    batch = data.draw(st.integers(1, n))
    for shaped in (keys.reshape(rows, n), keys[:n]):
        want = np.argsort(shaped, axis=-1, kind="stable")[..., :batch]
        assert np.array_equal(losses.minibatch(shaped, batch), want)


@given(st.integers(1, 100).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([-1, 0, 1, None]))
def test_minibatch_is_the_stable_argsort_at_realistic_sizes(sizes, rows, slots, seed, plant):
    # (rows, slots, n) keys as the engine sorts them; in half the rows, plant -1, 0
    # or 1 copies the key one below, at or one above the b-th smallest onto another
    # point, and plant None draws every key from three or four values
    n, batch = sizes
    rng = np.random.default_rng(seed)
    if plant is None:
        keys = rng.choice(rng.random(rng.integers(3, 5)), size=(rows, slots, n))
    else:
        keys = rng.random((rows, slots, n))
        if n > 1:
            rank = min(max(batch - 1 + plant, 0), n - 1)
            lead = np.nonzero(rng.random((rows, slots)) < 0.5)
            src = np.argsort(keys, axis=-1)[lead + (rank,)]
            dst = (src + rng.integers(1, n, size=src.shape)) % n
            keys[lead + (dst,)] = keys[lead + (src,)]
    want = np.argsort(keys, axis=-1, kind="stable")[..., :batch]
    assert np.array_equal(losses.minibatch(keys, batch), want)


def engine_minibatch(proto, t):
    """The (D, b) point indices the engine's SGD step uses at slot t."""
    with mock.patch.object(proto.topology.stack, "minibatch_gradients") as spy:
        proto._sgd_gradients(t)
    return spy.call_args.args[2].copy()


def stream_minibatch(seed, i, n, batch, t):
    """Device i's minibatch at slot t from its own stream, advanced by (t-1)*n draws."""
    if batch == n:
        return np.arange(n)
    return np.argsort(slot_stream(seed, i, (t - 1) * n).random(n), kind="stable")[:batch]


@given(fleets(), st.integers(1, 9), st.lists(st.integers(1, 300), min_size=1, max_size=6))
def test_engine_minibatches_equal_the_device_streams(case, batch, slots):
    topo, model, _, _ = case
    batch = min(batch, int(topo.stack.counts.min()))
    proto = Protocol(topo, model, seed=5, batch_size=batch, w_star=None)
    for t in slots:     # any order: a slot is read at its own draw index
        got = engine_minibatch(proto, t)
        for i, n in enumerate(topo.stack.counts.tolist()):
            assert np.array_equal(got[i], stream_minibatch(5, i, n, batch, t))


@given(fleets(), st.integers(1, 9), st.integers(1, 60))
def test_device_draws_do_not_depend_on_the_subnet_split(case, batch, t):
    topo, model, _, _ = case
    batch = min(batch, int(topo.stack.counts.min()))
    datasets = list(topo.datasets)
    splits = [topo, build_topology(datasets, [len(datasets)]),
              build_topology(datasets, [1] * len(datasets))]
    draws = [engine_minibatch(Protocol(split, model, seed=9, batch_size=batch, w_star=None), t)
             for split in splits]
    assert all(np.array_equal(draws[0], other) for other in draws[1:])


@given(st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 400), min_size=1, max_size=8))
def test_channel_table_equals_the_device_streams(num_devices, seed, slots):
    radio = RadioConfig()
    cost = RadioCostModel(radio, 10, num_devices, (tuple(range(num_devices)),), seed)
    for t in slots:
        got = cost.device_rates(t, range(num_devices))
        for d in range(num_devices):
            u = slot_stream(seed, d, t, tag=TAG_CHANNEL).random()
            gain = pathloss_gain(radio, float(cost.distances[d])) * -np.log1p(-u)
            snr = radio.device_tx_power_w * gain / radio.noise_power_w
            assert got[d] == radio.bandwidth_hz * np.log2(1.0 + snr)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 11), st.integers(1, 4), st.integers(0, 2**16),
       st.lists(st.integers(1, 10), min_size=1, max_size=5))
def test_snapshot_prices_the_capture_events(tau, delay, period, seed, sizes):
    delay = min(delay, tau - 1)
    gen = np.random.default_rng(seed)
    parts = [Dataset(gen.standard_normal((6, 2)), gen.standard_normal(6))
             for _ in range(sum(sizes))]
    topo = build_topology(parts, sizes)
    model = LossModel(RIDGE, feature_dim=2, regularization=0.2)
    radio = RadioConfig()
    cost = RadioCostModel(radio, model.model_dim, topo.num_devices, topo.subnets, seed)
    sched = TrainingSchedule.uniform(12, tau, alpha=0.3, eta=0.05, delay=delay,
                                     local_agg_period=period, num_subnets=len(sizes))
    res = run_training(topo, model, sched, seed=seed, batch_size=3, cost_model=cost,
                       w_star=None)
    # every local event is the one-subnet energy sum and delay maximum
    bits = model.model_dim * radio.bits_per_parameter
    for ev in reversed(res.events):     # the table steps back
        if ev.kind == "local":
            rates = cost.device_rates(ev.t, topo.subnets[ev.subnet])
            assert ev.energy_j == aggregation_energy(radio, bits, rates,
                                                     radio.device_tx_power_w)
            assert ev.delay_s == aggregation_delay(radio, bits, rates)
    for capture in (sched.sync_times - delay)[::-1].tolist():
        energy, delay_s = cost.local_event(capture)
        charged = [ev for ev in res.events if ev.t == capture and ev.kind == "local"]
        assert sorted(ev.subnet for ev in charged) == list(range(len(sizes)))
        for ev in charged:
            assert (energy[ev.subnet], delay_s[ev.subnet]) == (ev.energy_j, ev.delay_s)


@given(fleets())
def test_norms_are_the_one_dimensional_norm(case):
    _, _, points, _ = case
    stacked = norms(points)
    assert all(stacked[p] == np.linalg.norm(w) for p, w in enumerate(points))


@given(fleets())
def test_companion_step_equals_the_subnet_loop(case):
    topo, model, points, _ = case
    models = points[np.arange(topo.num_subnets) % len(points)]
    got = noise_free_step(models, topo, model, 0.1)
    for c in range(topo.num_subnets):
        want = models[c] - 0.1 * looped_subnet_gradient(topo, model, c, models[c])
        assert np.array_equal(got[c], want)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=5), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_error_terms_equal_the_device_loop(sizes, dim, seed):
    # up to 60 devices: a pairwise sum would differ from the loop's order
    gen = np.random.default_rng(seed)
    counts = gen.integers(1, 10, sum(sizes))
    topo = build_topology([Dataset(gen.standard_normal((n, dim)), gen.standard_normal(n))
                           for n in counts], sizes)
    device_models = gen.standard_normal((topo.num_devices, dim))
    state = gen.standard_normal((topo.num_subnets, dim))
    w_star = gen.standard_normal(dim)
    v_bar = topo.global_sums(state)
    e1_sq = e2 = 0.0
    for c in range(topo.num_subnets):
        vc = state[c]
        for i in topo.subnets[c]:
            diff = device_models[i] - vc
            e1_sq += topo.subnet_weights[c] * topo.device_weights[i] * float(diff @ diff)
        e2 += topo.subnet_weights[c] * float(np.linalg.norm(vc - v_bar))
    want = (math.sqrt(e1_sq), e2, float(np.linalg.norm(v_bar - w_star)))
    assert error_terms(device_models, topo, state, w_star) == want


@given(fleets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_error_terms_over_a_row_axis_equal_the_row_calls(case, num_rows, seed):
    topo, model, points, _ = case
    gen = np.random.default_rng(seed)
    models = gen.standard_normal((num_rows, topo.num_devices, model.model_dim))
    companions = gen.standard_normal((num_rows, topo.num_subnets, model.model_dim))
    stacked = error_terms(models, topo, companions, points[0])
    for r in range(num_rows):
        assert tuple(e[r] for e in stacked) == error_terms(models[r], topo, companions[r],
                                                           points[0])


@given(fleets(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_measurements_equal_the_probe_loops(case, zeta, zeta_c):
    topo, model, points, budget = case
    w_star = points[-1]
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        delta, delta_c = measure_diversity(topo, model, list(points), zeta, zeta_c, w_star)
    want_delta, want_delta_c = 0.0, np.zeros(topo.num_subnets)
    for w in points:
        dist = float(np.linalg.norm(w - w_star))
        g_global = looped_global_gradient(topo, model, w)
        for c in range(topo.num_subnets):
            g_sub = looped_subnet_gradient(topo, model, c, w)
            want_delta = max(want_delta, np.linalg.norm(g_sub - g_global) - zeta * dist)
            for i in topo.subnets[c]:
                gap = np.linalg.norm(full_gradient(model, topo.datasets[i], w) - g_sub)
                want_delta_c[c] = max(want_delta_c[c], gap - zeta_c * dist)
    assert delta == max(want_delta, 0.0)
    assert np.array_equal(delta_c, np.maximum(want_delta_c, 0.0))

    if len(points) >= 2:
        pairs = list(zip(points[:-1], points[1:]))
        ratios = [float(np.linalg.norm(looped_global_gradient(topo, model, a)
                                       - looped_global_gradient(topo, model, b))
                        / np.linalg.norm(a - b)) for a, b in pairs]
        assert measure_smoothness_convexity(topo, model, pairs) == (min(ratios), max(ratios))


@given(fleets(), st.data())
def test_a_survey_evaluates_each_distinct_point_once(case, data):
    # the uploads of a subnet that just aggregated repeat one model; points are
    # told apart by their bits, so a -0.0 and a +0.0 copy are surveyed apart
    topo, model, points, budget = case
    positive = points[0].copy()
    positive[0] = 0.0
    negative = positive.copy()
    negative[0] = -0.0
    distinct = np.vstack([points, positive, negative])
    repeats = data.draw(st.lists(st.integers(0, len(distinct) - 1), max_size=12))
    planted = distinct[data.draw(st.permutations(list(range(len(distinct))) + repeats))]
    seen = []
    gradients = losses.DeviceStack.gradients

    def spy(stack, model, W):
        seen.append(W.copy())
        return gradients(stack, model, W)

    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        want = [gradient_survey(topo, model, row[None]) for row in planted]
        with mock.patch.object(losses.DeviceStack, "gradients", spy):
            got = gradient_survey(topo, model, planted)
    kernel = np.vstack(seen)
    assert kernel.shape[0] == len(distinct)
    assert {row.tobytes() for row in kernel} == {row.tobytes() for row in distinct}
    for j in range(3):
        assert np.array_equal(got[j], np.vstack([rows[j] for rows in want]))
    # device i's gradient at point i, the uploads' own gradients
    uploads = min(len(planted), topo.num_devices)
    own = topo.stack.own_gradients(model, planted[np.arange(topo.num_devices) % len(planted)])
    assert np.array_equal(got[3], own[:uploads])


@given(fleets(), st.integers(1, 9))
def test_sgd_noise_equals_the_draw_loop(case, batch):
    topo, model, points, _ = case
    got = measure_sgd_noise(topo, model, list(points[:2]), batch,
                            np.random.default_rng(3), repeats=3)
    rng = np.random.default_rng(3)
    worst = 0.0
    for w in points[:2]:
        for ds in topo.datasets:
            exact = full_gradient(model, ds, w)
            for _ in range(3):
                ghat = stochastic_gradient(model, ds, w, min(batch, ds.n), rng)
                worst = max(worst, float(np.linalg.norm(ghat - exact)))
    assert got == worst
