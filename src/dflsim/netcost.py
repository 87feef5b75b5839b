"""Wireless/wired communication cost model, and the simulator's random streams.

Device-to-edge links use Shannon rates over Rayleigh-faded pathloss
channels: device d's gain at slot t is its pathloss times -log1p(-U), an
Exp(1) fading power, where U is draw t of the device's channel stream
(seed, TAG_CHANNEL, d). Edge-to-cloud links are wired with a fixed rate
and latency. Energy is additive across transmitters; delay composes as a
max over parallel device uplinks within a subnet.

Per-device streams are PCG64 generators read with ``Generator.random``,
which takes exactly one 64-bit output per double, so ``PCG64.advance``
reaches any draw index directly (``SlotStreams``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CostModelError

# stream tags keep channel, placement and SGD draws on disjoint substreams
TAG_SGD = 1
TAG_CHANNEL = 2
TAG_PLACEMENT = 3
TAG_PROBE = 4


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for one (seed, tag, ...) key."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


class SlotStreams:
    """One stream per device, ``stream(seed, tag, d)``, read at any draw index.

    ``fill`` positions each device's generator with ``PCG64.advance`` (a
    no-op when reads follow each other), so what a device draws depends
    only on (seed, tag, device, index), never on the reads before it.
    """

    def __init__(self, seed: int, tag: int, num_devices: int):
        self._keys = [(seed, tag, d) for d in range(num_devices)]
        # built at the first read: each costs a SeedSequence, and the first
        # one in a process imports numpy.random (about 14 ms)
        self._generators = None
        self._next = [0] * num_devices      # draw index each generator is at

    def fill(self, devices, start: int, out: np.ndarray) -> None:
        """Row j of ``out`` <- draws start, start+1, ... of device devices[j]."""
        if self._generators is None:
            self._generators = [stream(*key) for key in self._keys]
        for d, row in zip(devices, out):
            gen = self._generators[d]
            ahead = start - self._next[d]
            if ahead:
                gen.bit_generator.advance(ahead)    # a negative delta steps back
            gen.random(out=row)
            self._next[d] = start + row.size


@dataclass(frozen=True)
class RadioConfig:
    device_tx_power_w: float = 0.25
    edge_tx_power_w: float = 6.3
    bandwidth_hz: float = 1e6
    noise_density_dbm_hz: float = -173.0
    pathloss_ref_db: float = -30.0
    ref_distance_m: float = 1.0
    pathloss_exponent: float = 3.75
    bits_per_parameter: int = 32
    edge_cloud_rate_bps: float = 100e6
    edge_cloud_latency_s: float = 0.050
    processing_rate_hz: float = 200.0
    field_size_m: float = 30.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("device_tx_power_w", "edge_tx_power_w", "bandwidth_hz",
                     "ref_distance_m", "pathloss_exponent", "edge_cloud_rate_bps",
                     "processing_rate_hz", "field_size_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.bits_per_parameter < 1 or self.bits_per_parameter != int(self.bits_per_parameter):
            raise ValueError("bits_per_parameter must be a positive integer")
        if not self.edge_cloud_latency_s >= 0:
            raise ValueError("edge_cloud_latency_s must be nonnegative")

    @property
    def noise_power_w(self) -> float:
        return dbm_per_hz_to_w_per_hz(self.noise_density_dbm_hz) * self.bandwidth_hz


def dbm_per_hz_to_w_per_hz(density_dbm_hz: float) -> float:
    return 10.0 ** ((density_dbm_hz - 30.0) / 10.0)


def pathloss_gain(radio: RadioConfig, distance_m: float) -> float:
    """Linear large-scale gain: ref gain minus 10*exponent*log10(d/d0) in dB."""
    loss_db = radio.pathloss_ref_db - 10.0 * radio.pathloss_exponent \
        * math.log10(distance_m / radio.ref_distance_m)
    return 10.0 ** (loss_db / 10.0)


def fading_gains(pathloss, uniforms: np.ndarray) -> np.ndarray:
    """Rayleigh-faded channel gains pathloss * -log1p(-U) from uniforms U in [0, 1).

    -log1p(-U) is Exp(1): the law of |CN(0, 1)|^2, the power of a unit
    complex normal fading coefficient.
    """
    return pathloss * -np.log1p(-uniforms)


def shannon_rate(radio: RadioConfig, channel_gain, tx_power_w: float):
    """Achievable bit/s of a device uplink (elementwise over gains)."""
    snr = tx_power_w * channel_gain / radio.noise_power_w
    return radio.bandwidth_hz * np.log2(1.0 + snr)


def aggregation_energy(radio: RadioConfig, model_bits: int, rates: np.ndarray,
                       tx_power_w: float):
    """Joules for one aggregation: sum of bits * power / rate over the last axis."""
    rates = np.asarray(rates, dtype=np.float64)
    if (rates <= 0).any():
        raise CostModelError("aggregation energy needs positive rates")
    return np.sum(model_bits * tx_power_w / rates, axis=-1)


def aggregation_delay(radio: RadioConfig, model_bits: int, rates: np.ndarray):
    """Seconds for one parallel aggregation: the slowest uplink (last axis) wins."""
    rates = np.asarray(rates, dtype=np.float64)
    if (rates <= 0).any():
        raise CostModelError("aggregation delay needs positive rates")
    return np.max(model_bits / rates, axis=-1)


def global_aggregation_cost(radio: RadioConfig, model_bits: int,
                            num_subnets: int) -> tuple[float, float]:
    """(energy, delay) of the wired edge-to-cloud hop for one global round."""
    energy = num_subnets * model_bits * radio.edge_tx_power_w / radio.edge_cloud_rate_bps
    delay = model_bits / radio.edge_cloud_rate_bps + radio.edge_cloud_latency_s
    return energy, delay


def wall_clock_to_iterations(delay_s: float, processing_rate_hz: float) -> int:
    """Smallest whole number of SGD slots covering a wall-clock delay."""
    if delay_s < 0 or processing_rate_hz <= 0:
        raise CostModelError("need delay >= 0 and positive processing rate")
    return int(math.ceil(delay_s * processing_rate_hz))


def place_devices(radio: RadioConfig, num_devices: int, seed: int) -> np.ndarray:
    """Uniform positions in the square field, distances to the centered base station."""
    rng = stream(seed, TAG_PLACEMENT)
    half = radio.field_size_m / 2.0
    xy = rng.uniform(-half, half, size=(num_devices, 2))
    return np.hypot(xy[:, 0], xy[:, 1])


# slots of uplink rates the channel table holds between refills
CHANNEL_BLOCK = 64


class RadioCostModel:
    """Per-event cost source for a fleet with fixed device placements.

    Every device's uplink rate is kept in one (devices, CHANNEL_BLOCK)
    table covering an aligned block of slots; an event outside the block
    refills the table from the channel streams, so an event at t is priced
    the same whenever it is asked for. A refill also prices a local aggregation
    in every subnet at every slot of the block, (slots, 2, N), member rates on a
    contiguous last axis as in a one-subnet call, so the prices are its bits.
    """

    def __init__(self, radio: RadioConfig, model_dim: int, num_devices: int,
                 subnets, seed: int):
        self.radio = radio
        self.model_bits = int(model_dim) * int(radio.bits_per_parameter)
        self.distances = place_devices(radio, num_devices, seed)
        self._pathloss = np.array([pathloss_gain(radio, d) for d in self.distances.tolist()])
        self._channels = SlotStreams(int(seed), TAG_CHANNEL, num_devices)
        self._uniforms = np.empty((num_devices, CHANNEL_BLOCK))
        self._rates = self._prices = self._unpriced = self._first = None    # tables, first slot
        subnets = [tuple(members) for members in subnets]
        self.num_subnets = len(subnets)
        # (subnet ids, (G, n) member ids) per member count n: row sums equal 1-d sums
        self.groups = []
        for n in sorted({len(members) for members in subnets}):
            ids = [c for c, members in enumerate(subnets) if len(members) == n]
            self.groups.append((np.array(ids), np.array([subnets[c] for c in ids])))

    def _row(self, t: int) -> int:
        """Slot t's index in the tables, refilled if needed."""
        first = t - t % CHANNEL_BLOCK
        if first != self._first:
            self._channels.fill(range(self.distances.size), first, self._uniforms)
            gains = fading_gains(self._pathloss[:, None], self._uniforms)
            self._rates = shannon_rate(self.radio, gains, self.radio.device_tx_power_w)
            self._prices = np.empty((CHANNEL_BLOCK, 2, self.num_subnets))
            self._unpriced = np.zeros(CHANNEL_BLOCK, dtype=bool)
            for subnets, members in self.groups:
                rates = np.ascontiguousarray(np.moveaxis(self._rates[members], -1, 0))
                self._unpriced |= (rates <= 0).any(axis=(1, 2))    # a one-subnet call refuses
                rates[rates <= 0] = 1.0
                self._prices[:, 0, subnets] = aggregation_energy(
                    self.radio, self.model_bits, rates, self.radio.device_tx_power_w)
                self._prices[:, 1, subnets] = aggregation_delay(self.radio, self.model_bits, rates)
            self._prices.flags.writeable = False    # local_event hands out its rows
            self._first = first
        return t - first

    def device_rates(self, t: int, members) -> np.ndarray:
        """Uplink rates at slot t of the devices ``members`` (any index shape)."""
        row = self._row(t)
        return self._rates[np.asarray(members), row]

    def local_event(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(N,) energy and (N,) delay of one local aggregation in every subnet at slot t."""
        row = self._row(t)
        if self._unpriced[row]:
            raise CostModelError("aggregation energy needs positive rates")
        return tuple(self._prices[row])

    def global_event(self, t: int) -> tuple[float, float]:
        return global_aggregation_cost(self.radio, self.model_bits, self.num_subnets)


@dataclass(frozen=True)
class CostSnapshot:
    """Per-event costs frozen at a decision instant."""

    global_energy: float
    global_delay: float
    local_energy: np.ndarray
    local_delay: np.ndarray
