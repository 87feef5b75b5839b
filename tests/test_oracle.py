"""The fleet-batched gradient oracle against the single-device calls.

Every stacked result must equal, bit for bit, the per-device loop it
replaces: ``full_gradient`` per (point, device), the subnet and global
sums added device by device and subnet by subnet, ``stochastic_gradient``
on the same stream, and the estimator's norms and maxima.
"""

from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dflsim import losses
from dflsim.analysis import NoiseFreeState, noise_free_step
from dflsim.data import Dataset
from dflsim.fleet import (
    FleetTopology,
    build_topology,
    measure_diversity,
    measure_sgd_noise,
    measure_smoothness_convexity,
)
from dflsim.losses import RIDGE, SVM, LossModel, full_gradient, loss, norms, stochastic_gradient
from dflsim.netcost import TAG_SGD, stream


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
def test_subnet_and_global_sums_equal_the_loops(case):
    topo, model, points, budget = case
    with mock.patch.object(losses, "CHUNK_ELEMENTS", budget):
        subnet = topo.subnet_sums(topo.stack.gradients(model, points))
        glob = topo.global_gradients(model, points)
    for p, w in enumerate(points):
        for c in range(topo.num_subnets):
            assert np.array_equal(subnet[p, c], looped_subnet_gradient(topo, model, c, w))
            assert np.array_equal(topo.subnet_gradient(model, c, w), subnet[p, c])
        assert np.array_equal(glob[p], looped_global_gradient(topo, model, w))
        assert np.array_equal(topo.global_gradient(model, w), glob[p])
    looped_loss = 0.0
    for c in range(topo.num_subnets):
        for i in topo.subnets[c]:
            looped_loss += topo.subnet_weights[c] * topo.device_weights[i] \
                * loss(model, topo.datasets[i], points[0])
    assert topo.global_loss(model, points[0]) == looped_loss


@given(fleets(), st.integers(0, 50), st.integers(1, 9))
def test_minibatch_form_equals_stochastic_gradient(case, t, batch):
    topo, model, points, _ = case
    batch = min(batch, int(topo.stack.counts.min()))
    W = points[np.arange(topo.num_devices) % len(points)]
    # the engine's draws: one stream per (device, slot); a device whose data
    # is one batch takes all of it and draws nothing
    idx = np.array([stream(5, TAG_SGD, i, t).choice(n, size=batch, replace=False)
                    if batch < n else np.arange(n)
                    for i, n in enumerate(topo.stack.counts.tolist())])
    got = topo.stack.minibatch_gradients(model, W, idx)
    for i, ds in enumerate(topo.datasets):
        want = stochastic_gradient(model, ds, W[i], batch, stream(5, TAG_SGD, i, t))
        assert np.array_equal(got[i], want)


@given(fleets())
def test_norms_are_the_one_dimensional_norm(case):
    _, _, points, _ = case
    stacked = norms(points)
    assert all(stacked[p] == np.linalg.norm(w) for p, w in enumerate(points))


@given(fleets())
def test_companion_step_equals_the_subnet_loop(case):
    topo, model, points, _ = case
    models = points[np.arange(topo.num_subnets) % len(points)]
    got = noise_free_step(NoiseFreeState(models), topo, model, 0.1).subnet_models
    for c in range(topo.num_subnets):
        want = models[c] - 0.1 * looped_subnet_gradient(topo, model, c, models[c])
        assert np.array_equal(got[c], want)


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
