"""Topology assembly, label-skew partitioning, heterogeneity measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.data import Dataset, make_blobs
from dflsim.errors import EstimationError, PartitionError, TopologyError
from dflsim.fleet import (
    FleetTopology,
    HeterogeneityParams,
    build_topology,
    flatten_topology,
    measure_diversity,
    measure_smoothness_convexity,
    measure_sgd_noise,
    partition_label_skew,
)
from dflsim.losses import RIDGE, DeviceStack, LossModel, full_gradient, solve_optimum


def subnet_gradient(topo, model, c, w):
    """grad F_c at w, summed device by device: the reference for the batched forms."""
    return sum(topo.device_weights[i] * full_gradient(model, topo.datasets[i], w)
               for i in topo.subnets[c])


def equal_datasets(n_devices, points_each, rng, dim=2):
    return [Dataset(rng.standard_normal((points_each, dim)),
                    rng.standard_normal(points_each)) for _ in range(n_devices)]


def test_equal_weights_single_subnet(rng):
    topo = build_topology(equal_datasets(5, 4, rng), [5])
    np.testing.assert_allclose(topo.device_weights, 0.2)
    np.testing.assert_allclose(topo.subnet_weights, [1.0])


def test_subnet_weights_follow_data_volume(rng):
    parts = [Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10)),
             Dataset(rng.standard_normal((20, 2)), rng.standard_normal(20)),
             Dataset(rng.standard_normal((30, 2)), rng.standard_normal(30)),
             Dataset(rng.standard_normal((40, 2)), rng.standard_normal(40))]
    topo = build_topology(parts, [2, 2])
    np.testing.assert_allclose(topo.subnet_weights, [0.3, 0.7], atol=1e-12)
    assert abs(topo.device_weights[:2].sum() - 1) < 1e-12
    assert abs(topo.device_weights[2:].sum() - 1) < 1e-12


def test_size_mismatch_errors(rng):
    parts = equal_datasets(4, 3, rng)
    with pytest.raises(TopologyError):
        build_topology(parts, [2, 3])
    with pytest.raises(TopologyError):
        build_topology(parts, [4, 0])


def test_weights_are_read_only_copies(rng):
    # their sums are checked once, at construction, so nothing may write them after
    device_weights = np.full(4, 0.5)
    topo = FleetTopology(((0, 1), (2, 3)), tuple(equal_datasets(4, 3, rng)),
                         device_weights, [0.5, 0.5])
    device_weights[0] = 1.5     # the caller's array, not the topology's copy
    for weights in (topo.device_weights, topo.subnet_weights):
        assert weights.dtype == np.float64
        with pytest.raises(ValueError):
            weights[0] += 0.5
    np.testing.assert_array_equal(topo.device_weights, 0.5)
    np.testing.assert_array_equal(topo.subnet_weights, 0.5)


def test_paper_scale_topology(rng):
    gen = np.random.default_rng(0)
    blob = make_blobs(10, 200, 4, 0.5, gen)
    parts = partition_label_skew(blob, 50, 3, gen)
    topo = build_topology(parts, [5] * 10)
    assert topo.num_devices == 50 and topo.num_subnets == 10
    assert abs(topo.subnet_weights.sum() - 1) < 1e-12


@given(labels_per=st.integers(1, 6), seed=st.integers(0, 500))
@settings(max_examples=25)
def test_label_skew_partition_properties(labels_per, seed):
    gen = np.random.default_rng(seed)
    ds = make_blobs(6, 40, 3, 0.4, gen)
    parts = partition_label_skew(ds, 8, labels_per, gen)
    # exact label support per device
    for part in parts:
        assert np.unique(part.labels).size == labels_per
    # true partition: multiset of rows is preserved
    merged = np.concatenate([np.column_stack([p.labels, p.features]) for p in parts])
    original = np.column_stack([ds.labels, ds.features])
    order = np.lexsort(merged.T)
    order_orig = np.lexsort(original.T)
    np.testing.assert_array_equal(merged[order], original[order_orig])


def test_label_skew_full_support_is_iid_like(rng):
    ds = make_blobs(5, 30, 2, 0.4, np.random.default_rng(3))
    parts = partition_label_skew(ds, 4, 5, np.random.default_rng(4))
    for part in parts:
        assert np.unique(part.labels).size == 5


def test_partition_determinism():
    ds = make_blobs(6, 40, 3, 0.4, np.random.default_rng(8))
    a = partition_label_skew(ds, 8, 2, np.random.default_rng(99))
    b = partition_label_skew(ds, 8, 2, np.random.default_rng(99))
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.features, pb.features)


def test_partition_insufficient_data_errors():
    ds = Dataset(np.zeros((4, 1)), [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(PartitionError):
        partition_label_skew(ds, 8, 1, np.random.default_rng(0))  # 1 pt/label, 2 holders
    with pytest.raises(PartitionError):
        partition_label_skew(ds, 8, 7, np.random.default_rng(0))
    with pytest.raises(PartitionError):
        partition_label_skew(ds, 2, 1, np.random.default_rng(0))  # labels without holders


def partition_point_by_point(dataset, num_devices, labels_per_device, rng):
    """The label-skew partition gathering each device's indices one Python int at a
    time: the reference for ``partition_label_skew``."""
    labels = np.unique(dataset.labels)
    if labels_per_device < 1 or labels_per_device > labels.size:
        raise PartitionError(
            f"labels_per_device {labels_per_device} outside [1, {labels.size}]"
        )
    alphabet = labels[rng.permutation(labels.size)]
    device_order = rng.permutation(num_devices)

    holders = {lab: [] for lab in labels}
    for slot, dev in enumerate(device_order):
        for j in range(labels_per_device):
            lab = alphabet[(slot * labels_per_device + j) % labels.size]
            holders[lab].append(int(dev))

    per_device_idx = [[] for _ in range(num_devices)]
    for lab in labels:
        devs = holders[lab]
        if not devs:
            raise PartitionError(f"labels_per_device: label {lab} has no holder; "
                                 "need num_devices*labels_per_device >= num_labels")
        idx = np.flatnonzero(dataset.labels == lab)
        idx = idx[rng.permutation(idx.size)]
        if idx.size < len(devs):
            raise PartitionError(
                f"num_devices: label {lab} has {idx.size} points for {len(devs)} holders")
        chunks = np.array_split(idx, len(devs))
        for dev, chunk in zip(devs, chunks):
            per_device_idx[dev].extend(int(i) for i in chunk)

    out = []
    for dev in range(num_devices):
        idx = np.array(sorted(per_device_idx[dev]), dtype=np.int64)
        if np.unique(dataset.labels[idx]).size != min(labels_per_device, labels.size):
            raise PartitionError(f"device {dev} ended with wrong label support")
        out.append(dataset.subset(idx))
    return out


# six labels holding 2, 4, 7, 10, 14 and 19 points, interleaved
UNEVEN_LABELS = np.random.default_rng(21).permutation(
    np.repeat(np.arange(6.0), [2, 4, 7, 10, 14, 19]))


@given(num_devices=st.integers(0, 10), labels_per=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_partition_gathers_the_indices_of_the_point_by_point_reference(num_devices, labels_per,
                                                                       seed):
    ds = Dataset(np.arange(2.0 * UNEVEN_LABELS.size).reshape(-1, 2), UNEVEN_LABELS)

    def outcome(partition):
        try:
            return partition(ds, num_devices, labels_per, np.random.default_rng(seed))
        except PartitionError as exc:
            return str(exc)

    got, want = outcome(partition_label_skew), outcome(partition_point_by_point)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want) == num_devices
    for a, b in zip(got, want):
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)


# -- heterogeneity measurement ------------------------------------------------


def ridge_fleet(rng, n_devices=4, subnets=(2, 2), reg=0.3):
    parts = equal_datasets(n_devices, 12, rng, dim=3)
    topo = build_topology(parts, list(subnets))
    model = LossModel(RIDGE, feature_dim=3, regularization=reg)
    return topo, model


def test_identical_datasets_have_zero_diversity(rng):
    base = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    topo = build_topology([base] * 4, [2, 2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.1)
    w_star = solve_optimum(model, DeviceStack(topo.datasets), topo.global_weights())
    probes = [rng.standard_normal(2) for _ in range(5)]
    delta, delta_c = measure_diversity(topo, model, probes, 0.05, 0.05, w_star)
    assert delta == 0.0
    np.testing.assert_array_equal(delta_c, 0.0)


def test_diversity_probe_at_optimum_drops_zeta_term(rng):
    topo, model = ridge_fleet(rng)
    w_star = solve_optimum(model, DeviceStack(topo.datasets), topo.global_weights())
    delta, _ = measure_diversity(topo, model, [w_star], zeta=123.0, zeta_c=0.0,
                                 w_star=w_star)
    expected = max(
        np.linalg.norm(subnet_gradient(topo, model, c, w_star)
                       - topo.global_gradient(model, w_star))
        for c in range(topo.num_subnets)
    )
    assert delta == pytest.approx(expected, rel=1e-12)


def test_diversity_matches_brute_force_scan(rng):
    topo, model = ridge_fleet(rng)
    w_star = solve_optimum(model, DeviceStack(topo.datasets), topo.global_weights())
    probes = [rng.standard_normal(3) for _ in range(6)]
    zeta = 0.1
    delta, _ = measure_diversity(topo, model, probes, zeta, 0.0, w_star)
    # independent max scan
    worst = 0.0
    for w in probes:
        g = topo.global_gradient(model, w)
        for c in range(topo.num_subnets):
            gap = np.linalg.norm(subnet_gradient(topo, model, c, w) - g) \
                - zeta * np.linalg.norm(w - w_star)
            worst = max(worst, gap)
    assert delta == pytest.approx(worst, rel=1e-12)
    # minimality: shrinking delta violates the bound at some probe
    violated = False
    for w in probes:
        g = topo.global_gradient(model, w)
        for c in range(topo.num_subnets):
            lhs = np.linalg.norm(subnet_gradient(topo, model, c, w) - g)
            if lhs > (delta - 1e-9) + zeta * np.linalg.norm(w - w_star):
                violated = True
    assert violated


def test_secant_bracketing_on_quadratic(rng):
    topo, model = ridge_fleet(rng, reg=0.5)
    pooled = np.zeros((3, 3))
    for i in range(topo.num_devices):
        ds = topo.datasets[i]
        pooled += topo.global_weights()[i] * ds.features.T @ ds.features / ds.n
    eigs = np.linalg.eigvalsh(pooled + 0.5 * np.eye(3))
    pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(10)]
    mu_hat, beta_hat = measure_smoothness_convexity(topo, model, pairs)
    assert eigs[0] - 1e-9 <= mu_hat <= beta_hat <= eigs[-1] + 1e-9


def test_secant_exact_on_isotropic_quadratic():
    # one data point at the origin: pure ridge term, Hessian = reg * I
    ds = Dataset(np.zeros((1, 2)), np.zeros(1))
    topo = build_topology([ds, ds], [2])
    model = LossModel(RIDGE, feature_dim=2, regularization=0.8)
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
             (np.array([2.0, 1.0]), np.array([-1.0, 0.5]))]
    mu_hat, beta_hat = measure_smoothness_convexity(topo, model, pairs)
    assert mu_hat == pytest.approx(0.8, rel=1e-12)
    assert beta_hat == pytest.approx(0.8, rel=1e-12)


def test_secant_includes_top_eigendirection(rng):
    topo, model = ridge_fleet(rng, reg=0.2)
    pooled = np.zeros((3, 3))
    for i in range(topo.num_devices):
        ds = topo.datasets[i]
        pooled += topo.global_weights()[i] * ds.features.T @ ds.features / ds.n
    H = pooled + 0.2 * np.eye(3)
    eigvals, eigvecs = np.linalg.eigh(H)
    pairs = [(np.zeros(3), eigvecs[:, -1])]
    _, beta_hat = measure_smoothness_convexity(topo, model, pairs)
    assert beta_hat == pytest.approx(eigvals[-1], rel=1e-9)


def test_secant_coincident_pairs_error(rng):
    topo, model = ridge_fleet(rng)
    w = rng.standard_normal(3)
    with pytest.raises(EstimationError):
        measure_smoothness_convexity(topo, model, [(w, w.copy())])


def test_sgd_noise_estimate_nonnegative_and_zero_fullbatch(rng):
    topo, model = ridge_fleet(rng)
    probes = [rng.standard_normal(3)]
    sigma = measure_sgd_noise(topo, model, probes, batch_size=12,
                              rng=np.random.default_rng(1), repeats=2)
    assert sigma == 0.0  # batch covers every device dataset
    sigma1 = measure_sgd_noise(topo, model, probes, batch_size=1,
                               rng=np.random.default_rng(1), repeats=2)
    assert sigma1 > 0.0


def test_flatten_topology(rng):
    topo = build_topology(equal_datasets(6, 5, rng), [3, 3])
    flat = flatten_topology(topo)
    assert flat.num_subnets == 1
    np.testing.assert_allclose(
        flat.device_weights,
        [topo.global_weights()[i] for i in range(6)], atol=1e-12)


def test_heterogeneity_params_validation():
    with pytest.raises(ValueError):
        HeterogeneityParams(mu=1.0, beta=0.5, inter_delta=0, inter_zeta=0,
                            intra_delta=[0.0], intra_zeta=[0.0],
                            sgd_noise=0, subnet_noise_budget=0)
    with pytest.raises(ValueError):
        HeterogeneityParams(mu=0.5, beta=1.0, inter_delta=0, inter_zeta=3.0,
                            intra_delta=[0.0], intra_zeta=[0.0],
                            sgd_noise=0, subnet_noise_budget=0)  # omega > 1
    params = HeterogeneityParams(mu=0.5, beta=1.0, inter_delta=0.1, inter_zeta=0.4,
                                 intra_delta=[0.0], intra_zeta=[0.2],
                                 sgd_noise=0.1, subnet_noise_budget=0.2)
    assert params.omega == pytest.approx(0.2)
    np.testing.assert_allclose(params.omega_c, [0.1])
