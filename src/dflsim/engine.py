"""Discrete-time protocol engine: local SGD, aperiodic intra-subnet
aggregation, delayed global aggregation and combiner-based synchronization.

Clock discipline per interval k of length tau with round-trip delay D:
slots t_k+1 .. t_{k+1} each run one SGD step per device; the global
snapshot is captured from tentative models at t_{k+1} - D (devices keep
training during the delay); the cloud aggregate is formed at
t_{k+1} - D_down and applied at t_{k+1} through the convex combiner
(1-alpha)*stale global + alpha*fresh local. Hierarchical FedAvg is alpha 0,
and FedAvg is alpha 0 on one flat subnet that never aggregates locally.

All randomness is drawn from one stream per (seed, tag, device),
addressed by the slot: device i's minibatch keys at slot t are draws
[(t-1)*n_i, t*n_i) of stream (seed, TAG_SGD, i), so two runs with equal
seeds produce bit-identical logs and the sampling stream of a device does
not depend on the topology around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analysis import error_terms, noise_free_step, noise_free_sync
from .errors import BatchSizeError, DivergenceError, ScheduleError, SnapshotError
from .fleet import FleetTopology
from .losses import CHUNK_ELEMENTS, DeviceStack, LossModel, _dots, smallest_draws
from .netcost import TAG_SGD, RadioCostModel, SlotStreams

METRIC_COLUMNS = ("t", "k", "loss", "gap", "e1", "e2", "e3", "cum_energy", "cum_delay")
EVENT_COLUMNS = ("t", "kind", "subnet", "energy_j", "delay_s")


@dataclass(frozen=True)
class IntervalPlan:
    """Control parameters of one local training interval."""

    tau: int
    alpha: float
    eta: float
    delay: int = 0
    up_delay: int | None = None
    local_agg_offsets: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.tau < 1:
            raise ScheduleError(f"tau must be >= 1, got {self.tau}")
        if not 0 <= self.delay <= self.tau - 1:
            raise ScheduleError(f"delay must lie in [0, tau-1], got delay={self.delay}, tau={self.tau}")
        up = self.delay if self.up_delay is None else self.up_delay
        if not 0 <= up <= self.delay:
            raise ScheduleError(
                f"up_delay must lie in [0, delay], got delay split {up}+{self.delay - up}")
        object.__setattr__(self, "up_delay", up)
        if not 0.0 <= self.alpha <= 1.0:
            raise ScheduleError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 < self.eta < np.inf:
            raise ScheduleError(f"eta must be positive and finite, got {self.eta}")
        for c, offsets in enumerate(self.local_agg_offsets):
            for off in offsets:
                if not 1 <= off <= self.tau:
                    raise ScheduleError(
                        f"subnet {c}: aggregation offset {off} outside [1, {self.tau}]"
                    )

    @property
    def down_delay(self) -> int:
        """Slots from the cloud aggregate to synchronization."""
        return self.delay - self.up_delay

    def indicators(self, num_subnets: int) -> np.ndarray:
        """Scheduled aggregations as a (tau+1, num_subnets) table indexed by offset;
        the offsets hold one entry per subnet, or none (never aggregate)."""
        if self.local_agg_offsets and len(self.local_agg_offsets) != num_subnets:
            raise ScheduleError(f"local_agg_offsets has {len(self.local_agg_offsets)} "
                                f"entries for {num_subnets} subnets")
        table = np.zeros((self.tau + 1, num_subnets), dtype=bool)
        for c, offsets in enumerate(self.local_agg_offsets):
            table[list(offsets), c] = True
        return table


def noise_free_interval(companions: np.ndarray, topology: FleetTopology,
                        model: LossModel, plan: IntervalPlan):
    """The (N, M) noise-free companions after each slot 1..tau of ``plan``.

    Every slot takes one full-batch step; the snapshot is their global
    model at slot tau - delay, mixed back in by the combiner at slot tau.
    """
    for step in range(1, plan.tau + 1):
        companions = noise_free_step(companions, topology, model, plan.eta)
        if step == plan.tau - plan.delay:
            snapshot = topology.global_sums(companions)
        if step == plan.tau:
            companions = noise_free_sync(companions, plan.alpha, snapshot)
        yield companions


def periodic_offsets(tau: int, period: int | None, num_subnets: int):
    """Every-``period`` aggregation offsets, identical across subnets; None never aggregates."""
    if period is None:
        return tuple(() for _ in range(num_subnets))
    if period < 1:
        raise ScheduleError(f"local_agg_period must be >= 1, got {period}")
    offs = tuple(range(period, tau + 1, period))
    return tuple(offs for _ in range(num_subnets))


@dataclass(frozen=True)
class TrainingSchedule:
    intervals: tuple[IntervalPlan, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ScheduleError("num_intervals must be >= 1")

    @staticmethod
    def uniform(num_intervals: int, tau: int, alpha: float, eta: float,
                delay: int = 0, up_delay: int | None = None,
                local_agg_period: int | None = None, *,
                num_subnets: int) -> "TrainingSchedule":
        plan = IntervalPlan(
            tau=tau, alpha=alpha, eta=eta, delay=delay, up_delay=up_delay,
            local_agg_offsets=periodic_offsets(tau, local_agg_period, num_subnets),
        )
        return TrainingSchedule(tuple(plan for _ in range(num_intervals)))


@dataclass(frozen=True)
class CostEvent:
    t: int
    kind: str           # "local" or "global"
    subnet: int         # -1 for global events
    energy_j: float
    delay_s: float


@dataclass
class IntervalOutcome:
    """What the cloud sees at one global aggregation."""

    capture_t: int
    snapshot: np.ndarray
    stale_models: np.ndarray
    stale_gradients: np.ndarray
    theta_counts: np.ndarray
    # (2, N) energy and delay rows charged for the uplinks at capture; None unpriced
    capture_prices: np.ndarray | None


@dataclass
class RunResult:
    metrics: dict
    event_columns: dict     # EVENT_COLUMNS -> (E,) array, one row per cost event in log order
    sync_times: np.ndarray
    final_models: np.ndarray
    decisions: list = field(default_factory=list)

    @property
    def events(self) -> list[CostEvent]:
        """The cost log as one ``CostEvent`` per row, built at each read."""
        columns = (self.event_columns[name].tolist() for name in EVENT_COLUMNS)
        return [CostEvent(*row) for row in zip(*columns)]

    def column(self, name: str) -> np.ndarray:
        return self.metrics[name]

    def at_sync(self, name: str) -> np.ndarray:
        """Metric values at the synchronization instants t_1..t_K."""
        t = self.metrics["t"]
        idx = np.searchsorted(t, self.sync_times)
        present = (idx < t.size) & (t[np.minimum(idx, t.size - 1)] == self.sync_times)
        if not present.all():
            raise ValueError("sync instants missing from the metric log; "
                             "run with metrics_every=1")
        return self.metrics[name][idx]


ThetaPolicy = Callable[[int, np.ndarray, np.ndarray], np.ndarray]

# most slots of minibatch keys drawn at once
SLOT_BLOCK = 64


class Minibatches:
    """Every device's minibatch, slot by slot, as rows of the ``DeviceStack`` data.

    Device i's keys at slot t are draws [(t-1)*n_i, t*n_i) of stream
    (seed, TAG_SGD, i), and its minibatch is the b smallest of them
    (``losses.smallest_draws``); a device whose data is one batch uses all of
    it and draws nothing. The raw draws of an aligned block of S slots are
    read at once, one ``random_raw`` per device, into one reused uint64
    buffer, and each group of equal-n devices takes one ``smallest_draws``
    call: one in-place sort of every (device, slot) row of integer keys
    (a stable argsort for rows of more than 2**11 points), made data rows by one
    add of the devices' ``offsets`` per block. The draws take at most CHUNK_ELEMENTS
    elements (groups are cut into pieces that do), unless one device's draws of
    one slot do not: S is as large as that allows, at most SLOT_BLOCK and at least 1.
    """

    def __init__(self, seed: int, stack: DeviceStack, batch_size: int):
        self.batch_size = batch_size
        drawn = int(stack.counts[stack.counts > batch_size].sum())
        self.slots = max(1, min(SLOT_BLOCK, CHUNK_ELEMENTS // max(drawn, 1)))
        self._streams = SlotStreams(seed, TAG_SGD, stack.num_devices)
        self._batches = np.empty((self.slots, stack.num_devices, batch_size), dtype=np.int64)
        self._offsets = stack.offsets[:, None, None]     # each device's first data row
        self._pieces = []           # (device ids, the same as a list, points per device)
        for devices, _, n in stack.groups:
            if n == batch_size:
                self._batches[:, devices] = self._offsets[devices, 0] + np.arange(n)
                continue
            step = max(1, CHUNK_ELEMENTS // (self.slots * n))
            self._pieces += [(devices[s:s + step], devices[s:s + step].tolist(), n)
                             for s in range(0, devices.size, step)]
        self._draws = np.empty(max((d.size * self.slots * n for d, _, n in self._pieces),
                                   default=0), dtype=np.uint64)
        self._first = None          # first slot of the block in ``_batches``

    def at(self, t: int) -> np.ndarray:
        """(D, b) data rows of every device's minibatch at slot t >= 1."""
        first = t - (t - 1) % self.slots
        if first != self._first:
            for devices, rows, n in self._pieces:
                draws = self._draws[:devices.size * self.slots * n].reshape(devices.size, -1)
                self._streams.fill(rows, (first - 1) * n, draws)
                batch = smallest_draws(draws.reshape(devices.size, self.slots, n),
                                       self.batch_size)
                self._batches[:, devices] = (batch + self._offsets[devices]).swapaxes(0, 1)
            self._first = first
        return self._batches[t - first]


class Protocol:
    """Mutable protocol state advanced one interval at a time. Checked here, once: the
    model vectors, data and batch size (the topology checks its weights); slots only compute:
    the SGD step hands the data rows of ``Minibatches`` to ``DeviceStack.row_gradients``.

    A slot that logs only records its state: its models are copied into the next
    row of one (piece, D, M) buffer, and ``(t, k, noise_free, events charged)``
    is kept, the companions by reference, since every slot binds a new
    ``noise_free`` array and nothing writes into it. A slot that
    charges records one chunk per charge, ``(t, subnet ids, (2, .) prices)``;
    ``result`` turns the chunks into the event columns, and cum_energy and
    cum_delay into running sums over them, left to right in log order. ``_log_row``
    computes the rows of every recorded slot at once, over a leading row axis: at
    construction (the t=0 row), whenever the pending rows fill a piece of
    ``max(1, CHUNK_ELEMENTS // (D*M))`` rows, across interval ends, and in
    ``result``; beside the buffer it holds at most one (rows, D, M) temporary at a
    time. An interval that a ``theta_policy`` drives also computes its rows
    at its end, before its outcome is returned, so that a controller never reads
    an interval that diverged. A slot row equals the one computed alone, bit for
    bit, and a diverging run stops at the flush holding its first non-finite row,
    naming that row's slot, interval and device.
    """

    def __init__(self, topology: FleetTopology, model: LossModel, seed: int,
                 batch_size: int, w_init: np.ndarray | None = None,
                 cost_model: RadioCostModel | None = None,
                 w_star: np.ndarray | None = None,
                 track_noise_free: bool = True,
                 metrics_every: int = 1):
        self.topology = topology
        self.model = model
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        self.cost_model = cost_model
        if metrics_every < 1:
            raise ScheduleError(f"metrics_every must be >= 1, got {metrics_every}")
        self.metrics_every = int(metrics_every)

        w_init = np.zeros(model.model_dim) if w_init is None else model.check_vector(w_init)
        # the global optimum; None leaves gap and the companion errors NaN
        self.w_star = None if w_star is None else model.check_vector(w_star)
        self.track_noise_free = track_noise_free and w_star is not None

        topology.stack.layout(model)       # checks the data against the model once
        smallest = int(topology.stack.counts.min())
        if not 1 <= self.batch_size <= smallest:
            raise BatchSizeError(f"batch_size {self.batch_size} outside [1, {smallest}]")
        self._minibatches = Minibatches(self.seed, topology.stack, self.batch_size)
        self.w = np.tile(w_init, (topology.num_devices, 1))
        self.noise_free = np.tile(w_init, (topology.num_subnets, 1))
        self.t = 0
        self.k = 0
        self._sync_times: list[int] = []     # the last slot of each interval run
        # an empty chunk keeps the concatenations of ``result`` defined
        self._charges = [(0, np.empty(0, dtype=np.int64), np.empty((2, 0)))]
        self._charged = 0       # events in the chunks
        self._rows: dict[str, list] = {name: [] for name in METRIC_COLUMNS[:-2] + ("charged",)}
        # rows per flush: their (rows, D, M) models fill one CHUNK_ELEMENTS buffer
        self._piece = max(1, CHUNK_ELEMENTS // (topology.num_devices * model.model_dim))
        self._models = np.empty((self._piece, topology.num_devices, model.model_dim))
        self._pending = []      # the rest of each recorded slot whose row is not computed
        self._pending.append(self._state())
        self._pending_snapshot: np.ndarray | None = None
        self._indicators: dict = {}     # (tau, local_agg_offsets) -> its read-only table
        self._log_row()

    # -- state helpers ------------------------------------------------

    def subnet_aggregate(self, values: np.ndarray, c: int) -> np.ndarray:
        return self.topology.subnet_sums(values)[c]

    def _charge(self, t: int, subnets: np.ndarray, prices: np.ndarray) -> None:
        """Charge one event at slot t per id in ``subnets``, in order, at that column
        of ``prices``, (2, .) energy and delay rows; id -1 is the global event."""
        self._charges.append((t, subnets, prices))
        self._charged += subnets.size

    def _scheduled(self, plan: IntervalPlan) -> tuple:
        """``plan``'s read-only indicator table, how many subnets each of its rows
        fires and its (N,) int64 column sums over rows 1..tau, the interval's
        aggregation counts; built once per (tau, offsets) of a run, since the plans
        of a schedule often differ in eta or alpha only."""
        key = (plan.tau, plan.local_agg_offsets)
        if key not in self._indicators:
            table = plan.indicators(self.topology.num_subnets)
            table.flags.writeable = False
            self._indicators[key] = (table, np.count_nonzero(table, axis=1).tolist(),
                                     table[1:].sum(axis=0, dtype=np.int64))
        return self._indicators[key]

    def _state(self) -> tuple:
        """Copy a logged slot's models into the next row of ``_models``, and return
        the rest of what its row is computed from, in the order of ``_log_row``."""
        self._models[len(self._pending)] = self.w
        return self.t, self.k, self.noise_free, self._charged

    @staticmethod
    def _diverged(t: int, k: int, device: int, what: str) -> DivergenceError:
        return DivergenceError(f"t={t}, k={k}: device {device} {what}; the run diverged")

    # a model whose squared norm or loss overflows is reported by the checks below
    @np.errstate(over="ignore", invalid="ignore")
    def _log_row(self):
        """Compute and append the rows of the pending slots, all at once.

        Rows are checked in slot order, each its squared norms before its loss:
        the rows before the first bad one are appended, then it raises.
        """
        t, k, companions, charged = zip(*self._pending)
        self._pending = []
        W = self._models[:len(t)]
        sq_norms = _dots(W)
        finite = np.isfinite(sq_norms)
        bad = ~finite.all(axis=1)
        rows = int(np.argmax(bad)) if bad.any() else len(t)
        W = W[:rows]        # the rows computed: those before the first non-finite norm
        w_bar = self.topology.global_sums(self.topology.subnet_sums(W))
        loss = self.topology.global_loss(self.model, w_bar)
        nan = np.full(rows, np.nan)
        gap = nan if self.w_star is None else _dots(w_bar - self.w_star)
        errors = error_terms(W, self.topology, np.stack(companions)[:rows], self.w_star) \
            if self.track_noise_free else (nan, nan, nan)
        lossy = ~np.isfinite(loss)
        good = int(np.argmax(lossy)) if lossy.any() else rows
        columns = (t, k, loss, gap, *errors, charged)
        for name, values in zip(self._rows, columns):
            self._rows[name].extend(np.asarray(values)[:good].tolist())
        if good < rows:
            raise self._diverged(t[good], k[good], int(np.argmax(sq_norms[good])),
                                 "has the largest model and the loss is not finite")
        if rows < len(t):
            raise self._diverged(t[rows], k[rows], int(np.argmin(finite[rows])),
                                 "has a non-finite squared norm")

    # -- the protocol -------------------------------------------------

    # a diverging model runs on to the flush that reports it: its overflow in the
    # slot arithmetic is not news, and the flush checks every row it computes
    @np.errstate(over="ignore", invalid="ignore")
    def run_interval(self, plan: IntervalPlan,
                     theta_policy: ThetaPolicy | None = None) -> IntervalOutcome:
        """Run the tau slots of ``plan`` and return what the cloud saw at capture.

        A ``theta_policy`` reads the subnet sums of every slot's tentative models
        and returns its (N,) indicators. Without one, the indicators and their
        counts come from ``plan``'s cached table, and the subnet sums are computed
        only in the slots that read them: those where a subnet aggregates, and
        the capture slot, whose snapshot is their global sum.
        """
        topo = self.topology
        n_sub = topo.num_subnets
        t0 = self.t
        t_end = t0 + plan.tau
        capture_t = t_end - plan.delay
        global_t = None if self.cost_model is None else t_end - plan.down_delay
        snapshot = None
        stale_models = stale_grads = capture_prices = None
        if theta_policy is None:
            table, fired_rows, counts = self._scheduled(plan)
            theta_counts = counts.copy()
        else:
            theta_counts = np.zeros(n_sub, dtype=np.int64)
        companions = noise_free_interval(self.noise_free, topo, self.model, plan) \
            if self.track_noise_free else None

        for step in range(1, plan.tau + 1):
            t = t0 + step
            grads = topo.stack.row_gradients(self.model, self.w, self._minibatches.at(t))
            tentative = self.w - plan.eta * grads
            if theta_policy is not None:
                aggregates = topo.subnet_sums(tentative)
                theta = np.asarray(theta_policy(t, tentative, aggregates), dtype=bool)
                fired = np.count_nonzero(theta)     # subnets that aggregate in this slot
                theta_counts += theta
            else:
                theta, fired = table[step], fired_rows[step]
                # read only by an aggregating subnet and by the snapshot
                aggregates = topo.subnet_sums(tentative) if fired or t == capture_t else None

            if t == capture_t:
                if snapshot is not None or self._pending_snapshot is not None:
                    raise SnapshotError(f"duplicate snapshot capture at t={t}")
                snapshot = topo.global_sums(aggregates)
                self._pending_snapshot = snapshot
                stale_models = self.w.copy()       # models the estimates pair with
                stale_grads = grads.copy()
                # uplink: one device-to-edge aggregation per subnet at capture
                if self.cost_model is not None:
                    capture_prices = self.cost_model.local_event(t)
                    self._charge(t, np.arange(n_sub), capture_prices)

            if t == global_t:
                # the cloud builds and broadcasts the global model here, one
                # downlink delay before synchronization
                self._charge(t, np.array([-1]), np.array(self.cost_model.global_event(t))[:, None])

            sync = t == t_end
            if sync and snapshot is None:
                raise SnapshotError("synchronization without a captured snapshot")
            if fired == n_sub:
                local = aggregates[topo.subnet_of]
            elif fired:
                local = np.where(theta[topo.subnet_of][:, None],
                                 aggregates[topo.subnet_of], tentative)
            else:
                local = tentative
            # the combiner applies at synchronization only
            self.w = (1.0 - plan.alpha) * snapshot + plan.alpha * local if sync else local
            # a triggered aggregation in the capture slot rides the uplink
            if self.cost_model is not None and t != capture_t and fired:
                self._charge(t, np.flatnonzero(theta), self.cost_model.local_event(t))
            if companions is not None:
                self.noise_free = next(companions)
            if sync:
                self._pending_snapshot = None

            self.t = t
            if t == t_end or t == capture_t or t % self.metrics_every == 0:
                self._pending.append(self._state())
                if len(self._pending) == self._piece:
                    self._log_row()

        if theta_policy is not None and self._pending:
            self._log_row()

        self.k += 1
        self._sync_times.append(t_end)
        return IntervalOutcome(
            capture_t=capture_t, snapshot=snapshot, stale_models=stale_models,
            stale_gradients=stale_grads, theta_counts=theta_counts,
            capture_prices=capture_prices,
        )

    def result(self, decisions=None) -> RunResult:
        if self._pending:
            self._log_row()
        t, subnets, prices = zip(*self._charges)
        subnet = np.concatenate(subnets)
        costs = np.concatenate([p[:, ids] for ids, p in zip(subnets, prices)], axis=1)
        events = dict(zip(EVENT_COLUMNS, (
            np.repeat(t, [ids.size for ids in subnets]),
            np.where(subnet < 0, "global", "local"), subnet, *costs)))
        # cumulative[:, n]: energy and delay summed over the first n events, in order
        cumulative = np.add.accumulate(np.hstack((np.zeros((2, 1)), costs)), axis=1)
        rows = {name: np.asarray(vals) for name, vals in self._rows.items()}
        rows["cum_energy"], rows["cum_delay"] = cumulative[:, rows.pop("charged")]
        return RunResult(
            metrics={name: rows[name] for name in METRIC_COLUMNS},
            event_columns=events,
            sync_times=np.array(self._sync_times, dtype=np.int64),
            final_models=self.w.copy(),
            decisions=list(decisions) if decisions else [],
        )


def run_training(topology: FleetTopology, model: LossModel,
                 schedule: TrainingSchedule, seed: int, batch_size: int,
                 **kwargs) -> RunResult:
    """Execute a fixed schedule end to end."""
    proto = Protocol(topology, model, seed, batch_size, **kwargs)
    for plan in schedule.intervals:
        proto.run_interval(plan)
    return proto.result()
