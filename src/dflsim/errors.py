"""Typed errors raised across the simulator."""


class DFLError(Exception):
    """Base class for all simulator errors."""


class DimensionMismatchError(DFLError):
    """Feature/model dimensions do not agree."""


class EmptyDatasetError(DFLError):
    """An operation received a dataset with no points."""


class BatchSizeError(DFLError):
    """Minibatch size outside [1, dataset size]."""


class ConvergenceError(DFLError):
    """Iterative solver exhausted its budget; carries the final gradient norm."""


class PartitionError(DFLError):
    """Data partition request cannot be satisfied."""


class TopologyError(DFLError):
    """Subnet sizes / device assignments are inconsistent."""


class ScheduleError(DFLError):
    """Training schedule violates its invariants."""


class SnapshotError(DFLError):
    """Global snapshot captured twice, or synchronization without a snapshot."""


class DivergenceError(DFLError):
    """A device model left the finite floats; message names t, k and the device."""


class InfeasibleError(DFLError):
    """Parameter set violates a feasibility inequality; message names it."""


class EstimationError(DFLError):
    """Online estimator received degenerate inputs (e.g. coincident probes)."""


class CostModelError(DFLError):
    """Radio cost model received a non-positive rate."""


class ConfigError(DFLError):
    """Experiment config failed schema validation; message names the field."""
