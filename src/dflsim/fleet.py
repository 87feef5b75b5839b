"""Hierarchical fleet: topology, non-i.i.d. partitioning, heterogeneity.

A fleet is a two-tier hierarchy: devices grouped into disjoint subnets,
one edge aggregator per subnet, one cloud aggregator on top. Device
weights within a subnet and subnet weights within the fleet are
proportional to data volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import (
    BatchSizeError,
    EstimationError,
    PartitionError,
    TopologyError,
)
from .losses import DeviceStack, LossModel, minibatch, norms, solve_optimum


def _index(ids: list[int]) -> slice | np.ndarray:
    """The ids as a slice (a view of the same elements) if evenly rising, else an index array."""
    step = ids[1] - ids[0] if len(ids) > 1 else 1
    if step > 0 and ids == list(range(ids[0], ids[-1] + 1, step)):
        return slice(ids[0], ids[-1] + 1, step)
    return np.array(ids, dtype=np.int64)


@dataclass(frozen=True)
class FleetTopology:
    """Subnet membership, per-device datasets and aggregation weights.

    device_weights[i] is the weight of device i inside its own subnet
    (rho), subnet_weights[c] the weight of subnet c in the fleet
    (varrho); both families sum to one, checked here, on read-only copies.

    The device data is stored once, in ``stack``; ``datasets`` are views
    of it. Subnet and global sums and the weighted device total, the
    fleet's only reductions, add device by device within a subnet, then
    subnet by subnet: the order of the single-point loops, so a batched
    sum equals the looped one bit for bit. Their index layouts and the
    global weights in that order are built once, at construction; the
    reductions take arrays of the shapes they document, unchecked.
    """

    subnets: tuple[tuple[int, ...], ...]
    datasets: tuple[Dataset, ...]
    device_weights: np.ndarray
    subnet_weights: np.ndarray
    subnet_of: np.ndarray = field(init=False)
    stack: DeviceStack = field(init=False, repr=False, compare=False)
    # (subnet rows, member ids) of member j of every subnet that has one, j = 0, 1, ...
    positions: tuple = field(init=False, repr=False, compare=False)
    # the device ids subnet by subnet, members in order, and their global weights
    order: slice | np.ndarray = field(init=False, repr=False, compare=False)
    ordered_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("device_weights", "subnet_weights"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
            getattr(self, name).flags.writeable = False
        seen = set()
        for members in self.subnets:
            if seen & set(members):
                raise TopologyError("subnets must be disjoint")
            seen |= set(members)
        if seen != set(range(len(self.datasets))):
            raise TopologyError("subnets must cover exactly the device ids")
        subnet_of = np.empty(len(self.datasets), dtype=np.int64)
        for c, members in enumerate(self.subnets):
            for i in members:
                subnet_of[i] = c
            s = self.device_weights[list(members)].sum()
            if abs(s - 1.0) > 1e-9:
                raise TopologyError(f"device weights of subnet {c} sum to {s}")
        if abs(self.subnet_weights.sum() - 1.0) > 1e-9:
            raise TopologyError("subnet weights must sum to 1")
        object.__setattr__(self, "subnet_of", subnet_of)
        positions = []
        for j in range(max(len(m) for m in self.subnets)):
            subnets = [c for c, m in enumerate(self.subnets) if len(m) > j]
            positions.append((_index(subnets), _index([self.subnets[c][j] for c in subnets])))
        object.__setattr__(self, "positions", tuple(positions))
        order = [i for members in self.subnets for i in members]
        object.__setattr__(self, "order", _index(order))
        object.__setattr__(self, "ordered_weights", self.global_weights()[order])
        stack = DeviceStack(self.datasets)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "datasets", stack.datasets())

    @property
    def num_devices(self) -> int:
        return len(self.datasets)

    @property
    def num_subnets(self) -> int:
        return len(self.subnets)

    def global_weights(self) -> np.ndarray:
        """varrho_c * rho_{i,c}: the weight of each device in the global objective."""
        return self.subnet_weights[self.subnet_of] * self.device_weights

    def device_total(self, values: np.ndarray):
        """(..., D) -> (...,): sum_i global_weights()[i] * values[..., i], added one
        device at a time from zero, subnet by subnet, members in order; a float
        for a (D,) call."""
        weighted = self.ordered_weights * values[..., self.order]
        # 0.0 + the sum: the loop's start at zero, which makes an all -0.0 sum 0.0
        total = 0.0 + np.add.accumulate(weighted, axis=-1)[..., -1]
        return float(total) if values.ndim == 1 else total

    def subnet_sums(self, values: np.ndarray) -> np.ndarray:
        """(..., D, M) -> (..., N, M): rho-weighted sums over each subnet's members."""
        weighted = self.device_weights[:, None] * values
        out = np.zeros(values.shape[:-2] + (self.num_subnets, values.shape[-1]))
        # member j of every subnet at once: each subnet adds its members in order
        for subnets, members in self.positions:
            out[..., subnets, :] += weighted[..., members, :]
        return out

    def global_sums(self, values: np.ndarray) -> np.ndarray:
        """(..., N, M) -> (..., M): varrho-weighted sum over the subnets."""
        weighted = self.subnet_weights[:, None] * values
        out = np.zeros(values.shape[:-2] + values.shape[-1:])
        for c in range(self.num_subnets):
            out += weighted[..., c, :]
        return out

    def global_gradients(self, model: LossModel, points) -> np.ndarray:
        """(P, M) -> (P, M): grad F at every point, a few points per pass."""
        points = model.check_points(points)
        out = np.empty_like(points)
        step = self.stack.points_per_chunk(model)
        for s in range(0, points.shape[0], step):
            out[s:s + step] = self.global_sums(self.subnet_sums(
                self.stack.gradients(model, points[s:s + step])))
        return out

    def global_gradient(self, model: LossModel, w: np.ndarray) -> np.ndarray:
        return self.global_gradients(model, np.asarray(w)[None])[0]

    def global_loss(self, model: LossModel, W: np.ndarray):
        """(..., M) -> (...,): F at every point; a float for a (M,) call."""
        return self.device_total(self.stack.losses(model, W))

    def optimum(self, model: LossModel) -> np.ndarray:
        return solve_optimum(model, list(self.datasets), self.global_weights())


@dataclass(frozen=True)
class HeterogeneityParams:
    """Loss-landscape and data-heterogeneity constants.

    mu/beta are the strong-convexity and smoothness constants; the
    (inter_delta, inter_zeta) pair bounds subnet-vs-global gradient
    mismatch by delta + zeta*||w - w*||, and (intra_delta, intra_zeta)
    does the same per device inside each subnet. omega = zeta/(2 beta)
    must not exceed one.
    """

    mu: float
    beta: float
    inter_delta: float
    inter_zeta: float
    intra_delta: np.ndarray
    intra_zeta: np.ndarray
    sgd_noise: float
    subnet_noise_budget: float

    def __post_init__(self):
        object.__setattr__(self, "intra_delta",
                           np.atleast_1d(np.asarray(self.intra_delta, dtype=np.float64)))
        object.__setattr__(self, "intra_zeta",
                           np.atleast_1d(np.asarray(self.intra_zeta, dtype=np.float64)))
        if not 0 < self.mu < self.beta:
            raise ValueError(f"mu must lie in (0, beta), got mu={self.mu}, beta={self.beta}")
        for name in ("inter_delta", "inter_zeta", "sgd_noise", "subnet_noise_budget"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("intra_delta", "intra_zeta"):
            if not (getattr(self, name) >= 0).all():
                raise ValueError(f"{name} must be nonnegative")
        if self.omega > 1.0 + 1e-12:
            raise ValueError(f"omega = zeta/(2 beta) = {self.omega} exceeds 1")
        if (self.omega_c > 1.0 + 1e-12).any():
            raise ValueError("omega_c = zeta_c/(2 beta) exceeds 1")

    @property
    def omega(self) -> float:
        return self.inter_zeta / (2.0 * self.beta)

    @property
    def omega_c(self) -> np.ndarray:
        return self.intra_zeta / (2.0 * self.beta)


# ---------------------------------------------------------------------------
# partitioning and assembly


def partition_label_skew(dataset: Dataset, num_devices: int, labels_per_device: int,
                         rng: np.random.Generator) -> list[Dataset]:
    """Split a labeled dataset so each device sees exactly k distinct labels.

    Devices are assigned label subsets cyclically over a permuted label
    alphabet, then each label's (shuffled) points are dealt out to the
    devices holding that label. Every point lands on exactly one device.
    """
    labels = np.unique(dataset.labels)
    if labels_per_device < 1 or labels_per_device > labels.size:
        raise PartitionError(
            f"labels_per_device {labels_per_device} outside [1, {labels.size}]"
        )
    alphabet = labels[rng.permutation(labels.size)]
    device_order = rng.permutation(num_devices)

    holders: dict[float, list[int]] = {lab: [] for lab in labels}
    for slot, dev in enumerate(device_order):
        for j in range(labels_per_device):
            lab = alphabet[(slot * labels_per_device + j) % labels.size]
            holders[lab].append(int(dev))

    per_device_idx: list[list[int]] = [[] for _ in range(num_devices)]
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


def build_topology(assignments: Sequence[Dataset], subnet_sizes: Sequence[int]) -> FleetTopology:
    """Group consecutively-numbered devices into subnets and compute weights."""
    if sum(subnet_sizes) != len(assignments):
        raise TopologyError(
            f"subnet sizes sum to {sum(subnet_sizes)}, have {len(assignments)} devices"
        )
    if any(s <= 0 for s in subnet_sizes):
        raise TopologyError("subnet sizes must be positive")
    sizes = np.array([ds.n for ds in assignments], dtype=np.float64)
    subnets, offset = [], 0
    device_weights = np.zeros(len(assignments))
    subnet_weights = np.zeros(len(subnet_sizes))
    for c, s in enumerate(subnet_sizes):
        members = tuple(range(offset, offset + s))
        subnet_total = sizes[list(members)].sum()
        device_weights[list(members)] = sizes[list(members)] / subnet_total
        subnet_weights[c] = subnet_total / sizes.sum()
        subnets.append(members)
        offset += s
    return FleetTopology(tuple(subnets), tuple(assignments), device_weights, subnet_weights)


# ---------------------------------------------------------------------------
# heterogeneity measurement


def gradient_survey(topology: FleetTopology, model: LossModel, points):
    """Everything the estimator reads from the gradients at P points, in one pass.

    Returns grad F at every point (P, M), ||grad Fbar_c - grad F|| per
    subnet (P, N), ||grad F_i - grad Fbar_c(i)|| per device (P, D), and
    grad F_i at point i for i < min(P, D) (each device's own upload; the
    bits of ``DeviceStack.own_gradients``). Each bitwise-distinct point is
    surveyed once (the members of a subnet that just aggregated upload one
    model), keyed by its bytes, so -0.0 and +0.0, or two NaN payloads, stay
    apart; its rows, which depend on that point alone, are copied to its
    repeats. Device gradients are reduced a few points at a time.
    """
    stack = topology.stack
    points = model.check_points(points)
    keys: dict = {}
    repeats = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in points], dtype=int)
    distinct = np.empty((len(keys), model.model_dim))
    distinct[repeats] = points      # repeats are equal bit for bit: any write stands
    global_grads = np.empty_like(distinct)
    subnet_gaps = np.empty((len(keys), topology.num_subnets))
    device_gaps = np.empty((len(keys), topology.num_devices))
    uploads = repeats[:topology.num_devices]
    own = np.empty((uploads.size, model.model_dim))
    step = 2 * stack.points_per_chunk(model)     # two (P, D, M) arrays live: one chunk
    for s in range(0, len(keys), step):
        device = stack.gradients(model, distinct[s:s + step])
        mine = np.flatnonzero((uploads >= s) & (uploads < s + step))
        own[mine] = device[uploads[mine] - s, mine]
        subnet = topology.subnet_sums(device)
        glob = topology.global_sums(subnet)
        global_grads[s:s + step] = glob
        subnet_gaps[s:s + step] = norms(subnet - glob[:, None])
        device -= subnet[:, topology.subnet_of]
        device_gaps[s:s + step] = norms(device)
    return global_grads[repeats], subnet_gaps[repeats], device_gaps[repeats], own


def _largest_excess(gaps: np.ndarray, allowance: np.ndarray) -> float:
    """max(0, max of gaps - allowance); a NaN never wins, as with ``max``."""
    return float(np.fmax.reduce((gaps - allowance).ravel(), initial=0.0))


def diversity_from_survey(topology: FleetTopology, subnet_gaps: np.ndarray,
                          device_gaps: np.ndarray, zeta: float, zeta_c: float,
                          distances: np.ndarray):
    """(delta, delta_c) from the gaps of ``gradient_survey`` and the ||w - w*|| factors."""
    distances = np.asarray(distances, dtype=np.float64)[:, None]
    delta = _largest_excess(subnet_gaps, zeta * distances)
    device_excess = device_gaps - zeta_c * distances
    delta_c = np.array([_largest_excess(device_excess[:, list(members)], 0.0)
                        for members in topology.subnets])
    return delta, delta_c


def measure_diversity(topology: FleetTopology, model: LossModel,
                      probe_points: Sequence[np.ndarray], zeta: float,
                      zeta_c: float, w_star: np.ndarray):
    """Smallest (delta, delta_c) satisfying the diversity bounds on the probes.

    delta = max over probes w and subnets c of
    [ ||grad Fbar_c(w) - grad F(w)|| - zeta*||w - w*|| ]_+, and delta_c
    analogously per device inside subnet c.
    """
    if len(probe_points) == 0:
        raise EstimationError("measure_diversity needs at least one probe point")
    probes = np.asarray(probe_points, dtype=np.float64)
    _, subnet_gaps, device_gaps, _ = gradient_survey(topology, model, probes)
    return diversity_from_survey(topology, subnet_gaps, device_gaps, zeta, zeta_c,
                                 norms(probes - w_star))


def secant_range(points_a: np.ndarray, points_b: np.ndarray, grads_a: np.ndarray,
                 grads_b: np.ndarray):
    """(smallest, largest) ||grad a - grad b|| / ||a - b|| over the pairs more than
    1e-12 apart."""
    separation = norms(points_a - points_b)
    kept = ~(separation <= 1e-12)
    if not kept.any():
        raise EstimationError("all probe pairs coincident; secant undefined")
    ratios = (norms(grads_a[kept] - grads_b[kept]) / separation[kept]).tolist()
    return min(ratios), max(ratios)


def measure_smoothness_convexity(topology: FleetTopology, model: LossModel,
                                 probe_pairs: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Secant estimates (mu_hat, beta_hat) of the global loss landscape.

    beta_hat is the largest, mu_hat the smallest gradient-difference /
    point-difference ratio over the pairs; coincident pairs are skipped.
    """
    pairs = np.asarray(probe_pairs, dtype=np.float64).reshape(-1, 2, model.model_dim)
    grads = topology.global_gradients(model, pairs.reshape(-1, model.model_dim))
    grads = grads.reshape(pairs.shape)
    return secant_range(pairs[:, 0], pairs[:, 1], grads[:, 0], grads[:, 1])


def measure_sgd_noise(topology: FleetTopology, model: LossModel,
                      probe_points: Sequence[np.ndarray], batch_size: int,
                      rng: np.random.Generator, repeats: int = 8) -> float:
    """Conservative sigma estimate: max ||ghat - grad F_i|| over sampled draws.

    Draws go probe by probe, device by device, repeat by repeat, each one
    the keys of ``stochastic_gradient``. A device with at most
    ``batch_size`` points has its full data as the minibatch, no draw and
    a zero gap.
    """
    stack = topology.stack
    if batch_size < 1:
        raise BatchSizeError(f"batch_size {batch_size} outside [1, {stack.counts.min()}]")
    points = model.check_points(probe_points)
    sampled = np.flatnonzero(stack.counts > batch_size)
    worst = 0.0
    for w in points if sampled.size else ():
        exact = stack.gradients(model, w[None])[0, sampled]
        idx = np.stack([minibatch(rng.random((repeats, int(stack.counts[i]))), batch_size)
                        for i in sampled])
        for r in range(repeats):
            ghat = stack.minibatch_gradients(model, np.tile(w, (sampled.size, 1)),
                                             idx[:, r], sampled)
            worst = max(worst, _largest_excess(norms(ghat - exact), 0.0))
    return worst


def flatten_topology(topology: FleetTopology) -> FleetTopology:
    """Collapse all subnets into one (device-to-cloud baseline layout)."""
    return build_topology(list(topology.datasets), [topology.num_devices])


def partition_manifest(topology: FleetTopology) -> dict:
    """JSON-ready audit record of the partition and weights."""
    devices = []
    for i in range(topology.num_devices):
        ds = topology.datasets[i]
        devices.append({
            "device": i,
            "subnet": int(topology.subnet_of[i]),
            "points": ds.n,
            "labels": sorted(set(float(v) for v in np.unique(ds.labels))),
            "weight_in_subnet": float(topology.device_weights[i]),
        })
    return {
        "num_subnets": topology.num_subnets,
        "subnet_sizes": [len(m) for m in topology.subnets],
        "subnet_weights": [float(w) for w in topology.subnet_weights],
        "devices": devices,
    }
