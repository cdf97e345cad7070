"""Sweeps of residual infidelity vs. error strength, exact or sampled over
a placement's patterns; component proliferation; amplitude sensitivity.

An occupancy of the placement is injected into the encoded state; its
entry is the support right after injection and the infidelity 1 - F
that recovery leaves, as its exact expectation over syndrome outcomes.
For a code with one logical qubit, measuring the stabilizers projects
onto a syndrome space s spanned by R_s|0_L> and R_s|1_L>, where R_s is
the table's correction, and recovery applies R_s; so each outcome's
weight and the infidelity it leaves are read off the overlaps
<R_s v_L|psi> (``_leaves``; ``qeclab correct`` prints the leaf of the
outcome it draws).  An entry carries its variance over syndrome
outcomes: a row's ``std_coded`` is the population std of one occupancy's
infidelity, by the law of total variance.  ``_kernel`` evaluates
occupancies as one block, on the register ``codes._layout`` picks (each
row only on the kets its flips can reach, or the dense one), at the
(row, outcome) pairs of weight > 0 alone; a block's rows round exactly as
each row alone does.  Each side is encoded once per sweep, and one
injector holds every grid point's operator for both sides.  The uncoded
baseline is the kernel on the bare qubit, a code with no stabilizer,
under the placement's projection onto it (``_bare_qubit_placement``).

A placement takes C patterns, each with probability 1/C; ``errors``
counts, enumerates and draws them, and C alone picks a side's path.  A
side with one pattern (the bare qubit, a fixed or all-qubit placement,
fermi:N) is one block, a row per grid point under its own operator.
Any other side is one reducer's weighted mean over occupancies: where C
<= ``trials`` each pattern weighs 1 (``every_pattern``), and the rows
depend on neither seed nor trial count; where C > ``trials`` the sweep
draws its trials once, in order (``drawn_patterns``), from
``default_rng(seed)``, and each distinct occupancy weighs the trials
that drew it.  Every grid point averages the same occupancies, and the
trial budget bounds the kernel rows of each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import LogicalQubit, _layout, _overlaps, get_code
from .errors import (
    ALL_QUBITS,
    ERROR_KINDS,
    DecayModel,
    ErrorModel,
    GeneralErrorParams,
    Placement,
    RotationErrorParams,
    ROTATION_AXES,
    _injector,
    apply_error_model,
    check_placement,
    drawn_patterns,
    every_pattern,
    pattern_count,
)
from .statevec import StateVector, _scatter, support_mask, support_size

SUPPORT_THRESHOLD = 1e-12
# Infidelities this small are rounding residue, not physics; they are
# floored to zero in trials and excluded from power-law fits.
NUMERICAL_FLOOR = 1e-13
# A cap on the bytes of one block of injected rows: a grid point with
# thousands of distinct occupancies is evaluated a slice of rows at a time.
_BLOCK_BYTES = 1 << 20


class ConfigError(ValueError):
    """A config the contract refuses; ``field`` names the ExperimentConfig
    field whose value was refused, or is None when no one field is."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _tagged(field: str, check, *args):
    """Return ``check(*args)``, reporting its ValueError as a refusal of ``field``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), field) from None


# Each kind-specific field, the one error kind that reads it, and how a
# refusal names it.  Under any other kind the field keeps its default,
# which emit_config then omits.
KIND_FIELDS = {
    "axis": ("rotation", "axis only applies"),
    "general": ("general_unitary", "e1/e2 only apply"),
    "decay_rate": ("decay", "decay_rate only applies"),
}


def _refuse_kind_fields(kind: str, names) -> None:
    """Refuse the first of the KIND_FIELDS ``names`` that ``kind`` does not read."""
    for name in names:
        reader, label = KIND_FIELDS[name]
        if kind != reader:
            raise ConfigError(f"{label} to {reader} errors, not {kind}", name)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a code, an error channel, a theta grid, and a trial budget.

    The constructor holds every rule of the config contract and refuses a
    value with a ConfigError that names its field.
    """

    code: str
    error_kind: str
    placement: Placement = ALL_QUBITS
    theta_grid: tuple[float, ...] = (0.0,)
    trials: int = 10000
    seed: int = 0
    logical: LogicalQubit = LogicalQubit(1.0, 0.0)
    axis: str = "y"
    general: GeneralErrorParams | None = None
    decay_rate: float = 0.5

    def __post_init__(self) -> None:
        code = _tagged("code", get_code, self.code)
        kind = self.error_kind
        if kind not in ERROR_KINDS:
            raise ConfigError(
                f"unknown error kind {kind!r}; expected one of {', '.join(ERROR_KINDS)}",
                "error_kind",
            )
        if self.axis not in ROTATION_AXES:
            raise ConfigError(f"unknown rotation axis {self.axis!r}", "axis")
        changed = [f for f in KIND_FIELDS if getattr(self, f) != getattr(ExperimentConfig, f)]
        _refuse_kind_fields(kind, changed)
        if kind == KIND_FIELDS["general"][0] and self.general is None:
            raise ConfigError("general_unitary sweeps need e1/e2 parameters", "general")
        _tagged("decay_rate", DecayModel, self.decay_rate, 0.0)  # rate in (0, 1]
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}", "trials")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")
        grid = tuple(float(t) for t in self.theta_grid)
        if not grid:
            raise ConfigError("theta grid must not be empty", "theta_grid")
        if any(not math.isfinite(t) or t < 0.0 for t in grid):
            raise ConfigError("theta grid values must be finite and >= 0", "theta_grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("theta grid must be strictly increasing", "theta_grid")
        _tagged("placement", check_placement, self.placement, code.n_physical, kind, self.code)
        draw = self.placement.n_errors + code.n_physical  # bytes a trial's Floyd slots take
        if draw > _BLOCK_BYTES:
            raise ConfigError(f"placement needs {draw} bytes to draw a trial, over {_BLOCK_BYTES}",
                              "placement")
        object.__setattr__(self, "theta_grid", grid)


@dataclass(frozen=True)
class SweepRow:
    theta: float
    mean_infid_coded: float
    std_coded: float
    mean_infid_uncoded: float
    std_uncoded: float
    mean_support: float

    def __post_init__(self) -> None:
        for value in (self.mean_infid_coded, self.mean_infid_uncoded):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"infidelity {value!r} outside [0, 1]")
        if self.std_coded < 0.0 or self.std_uncoded < 0.0:
            raise ValueError("standard deviations must be >= 0")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope_coded: float
    slope_uncoded: float


def model_for(config: ExperimentConfig, theta: float) -> ErrorModel:
    """The error model one trial applies at grid value ``theta``.

    Rotation sweeps read theta as the angle; decay sweeps read it as the
    elapsed time.  Flip and general-unitary channels ignore it.
    """
    kind = config.error_kind
    if kind == "rotation":
        return ErrorModel(kind, RotationErrorParams(config.axis, theta), config.placement)
    if kind == "decay":
        return ErrorModel(kind, DecayModel(config.decay_rate, theta), config.placement)
    if kind == "general_unitary":
        return ErrorModel(kind, config.general, config.placement)
    return ErrorModel(kind, None, config.placement)


_DRAW_TRIALS = 2048  # trials drawn, or patterns enumerated, at a time: arrays near 1 MB


def _leaves(overlaps: np.ndarray, weight: np.ndarray, logical: LogicalQubit):
    """The floored infidelity |b_s|^2 / p_s recovery leaves on each of the
    ``_overlaps`` pairs, (a_0, a_1) in ``overlaps`` and p_s in ``weight``;
    b_s = alpha a_1 - beta a_0 is the overlap with R_s of ``logical``'s
    complement."""
    b = logical.alpha * overlaps[:, 1] - logical.beta * overlaps[:, 0]
    leaf = (b.real**2 + b.imag**2) / weight
    leaf[leaf < NUMERICAL_FLOOR] = 0.0
    return leaf


def _moments(
    block: np.ndarray, table, logical: LogicalQubit, reached=None
) -> tuple[list, list]:
    """Exact mean and variance over syndrome outcomes of each row's ``_leaves``.

    Outcomes of weight 0 are never measured, and ``_overlaps`` returns
    none: each row's sums are dots over its reached outcomes alone, which
    round as they do for the row on its own.  The variance is summed around
    the mean: a difference of raw moments would leave ~1e-8 of rounding
    where every outcome leaves the same infidelity.  ``reached`` is passed
    to ``_overlaps``: each row's reached outcomes, if the block is laid out
    compact (``codes._layout``).
    """
    counts, _, overlaps, weight = _overlaps(block, table, reached)
    leaf = _leaves(overlaps, weight, logical)  # every row's reached outcomes, row after row
    means, variances, lo = [], [], 0
    for hi in counts.cumsum().tolist():
        row_weight, row_leaf = weight[lo:hi], leaf[lo:hi]
        mean = min(float(row_weight @ row_leaf), 1.0)  # clipped against rounding, as fidelity is
        row_leaf -= mean
        means.append(mean)
        variances.append(float(row_weight @ (row_leaf * row_leaf)))
        lo = hi
    return means, variances


def _kernel(
    inject, encoded: StateVector, table, logical: LogicalQubit, occupancies: np.ndarray,
    which=0,
) -> tuple[list, list, list]:
    """The trial entries of one side, one per row of the (k, N)
    ``occupancies``: the ``_moments`` means and variances, over the
    syndrome ``table``, of ``encoded`` injected by ``inject`` under the
    grid points ``which`` names (one for every row, or one per row), and
    their supports right after injection.  Rows are injected and summed in
    blocks of at most ``_BLOCK_BYTES`` of dense amplitudes; a block rounds
    as its rows alone do.  ``encoded`` is a state of the table's code, so
    ``codes._layout`` may lay a block out compact, each row on the kets
    ``table.kets`` moved by flips inside its occupied qubits alone, and
    such a block reads only the outcomes those flips reach.
    """
    step = max(1, _BLOCK_BYTES // encoded.amps.nbytes)
    means, variances, supports = [], [], []
    for lo in range(0, len(occupancies), step):
        rows = slice(lo, lo + step)
        register, slots, reached = _layout(table, occupancies[rows])
        block = inject(encoded, register, which if isinstance(which, int) else which[rows], slots)
        # Supports on the compact rows: their dropped slots hold zeros.
        supports += support_mask(block, SUPPORT_THRESHOLD).sum(axis=1).tolist()
        block = _scatter(block, slots, encoded.amps.size)
        block_means, block_variances = _moments(block, table, logical, reached)
        means += block_means
        variances += block_variances
    return means, variances, supports


def _bare_qubit_placement(placement: Placement) -> Placement:
    """Project a placement onto one qubit: every error it places lands on
    qubit 0 (fermi keeps at most one), so the projection draws nothing."""
    n = {"all_qubits": 1, "fixed": len(placement.qubits), "fermi": min(placement.n_errors, 1)}
    n = n.get(placement.rule, placement.n_errors)
    return Placement.fixed((0,) * n) if n else Placement.fermi(0)


def sweep_theta(config: ExperimentConfig) -> SweepResult:
    """Sweep over the theta grid, coded against uncoded baseline.

    A placement with one pattern is one block; any other is a weighted
    mean over its occupancies under every grid point's operator: each of
    its C patterns weighs 1 where the trial budget covers them, else each
    distinct occupancy of ``trials`` draws from the sweep's one generator
    weighs its draws.  The uncoded side runs the identical channel on a
    bare qubit, so under ``all_qubits`` placement the comparison is
    per-physical-qubit fair: the baseline sees the error exactly once.
    """
    # The bare qubit is a register of its own, so its projected placement
    # must fit it too: decay refuses the errors the projection stacks.
    bare_placement = _bare_qubit_placement(config.placement)
    _tagged("placement", check_placement, bare_placement, 1, config.error_kind, "uncoded")
    code, uncoded, logical = get_code(config.code), get_code("uncoded"), config.logical
    # Each side's encoded state, syndrome table and logical state, as _kernel reads them.
    coded_side = (code.encoder(logical), code._syndromes, logical)
    bare_side = (uncoded.encoder(logical), uncoded._syndromes, logical)
    n, placement = code.n_physical, config.placement
    count = pattern_count(placement, n)
    # Huge Floyd slot pools take fewer trials at a time (ExperimentConfig keeps it >= 1).
    step = min(_DRAW_TRIALS, _BLOCK_BYTES // (n + placement.n_errors))
    if count > config.trials:
        # Allocated up front, so a trial budget too large to hold fails at once.
        inverse = np.empty(config.trials, dtype=np.intp)
    inject = _injector(*(model_for(config, theta) for theta in config.theta_grid))
    grid = np.arange(len(config.theta_grid))

    def drawless(side, placement: Placement, n_qubits: int) -> tuple[list, list, list]:
        """One side's entries under a one-pattern placement: a row per grid point."""
        occupancy = next(every_pattern(placement, n_qubits, 1))
        return _kernel(inject, *side, np.repeat(occupancy, len(grid), axis=0), grid)

    if count == 1:
        coded = zip(*drawless(coded_side, placement, n))
    else:
        chunk, total = max(1, step // len(grid)), min(count, config.trials)
        if count <= config.trials:
            blocks = ((patterns, 1.0) for patterns in every_pattern(placement, n, chunk))
        else:
            # Each trial's occupancy, as the index of the distinct one it is.
            rng, distinct = np.random.default_rng(config.seed), {}
            for lo in range(0, config.trials, step):
                drawn = drawn_patterns(placement, n, rng, min(step, config.trials - lo))
                raw, width = drawn.tobytes(), 8 * n
                inverse[lo:lo + step] = [
                    distinct.setdefault(raw[i:i + width], len(distinct))
                    for i in range(0, len(raw), width)
                ]
            occupancies = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(-1, n)
            weights = np.bincount(inverse)
            blocks = ((occupancies[lo:lo + chunk], weights[lo:lo + chunk])
                      for lo in range(0, len(occupancies), chunk))
        # A chunk of occupancies under every grid point's operator at a time;
        # each grid point's weighted sums run around its first chunk's mean,
        # so no per-occupancy entry is kept.
        sums = np.zeros((4, len(grid)))
        for i, (patterns, weight) in enumerate(blocks):
            which = np.repeat(grid, len(patterns)) if len(grid) > 1 else 0  # one GEMM a step
            entries = _kernel(inject, *coded_side, np.tile(patterns, (len(grid), 1)), which)
            means, variances, supports = np.reshape(entries, (3, len(grid), len(patterns)))
            shift = shift if i else means.mean(axis=1, keepdims=True)
            spread = means - shift
            sums += (weight * np.array([spread, spread * spread, variances, supports])).sum(2)
        drift, square, within, support = sums / total
        # The law of total variance: within occupancies, then across them.
        across = np.maximum(square - drift * drift, 0.0)  # >= 0 but for rounding
        coded = zip((shift[:, 0] + drift).tolist(), (within + across).tolist(), support.tolist())
    # The bare qubit's projected placement draws nothing: one entry per grid point.
    bare, _, _ = drawless(bare_side, bare_placement, 1)
    rows = [
        SweepRow(theta, mean, math.sqrt(variance), bare_mean, 0.0, float(support))
        for theta, (mean, variance, support), bare_mean in zip(config.theta_grid, coded, bare)
    ]
    return SweepResult(
        rows=tuple(rows),
        slope_coded=_slope([(r.theta, r.mean_infid_coded) for r in rows]),
        slope_uncoded=_slope([(r.theta, r.mean_infid_uncoded) for r in rows]),
    )


def _slope(points: list[tuple[float, float]]) -> float:
    usable = [(t, y) for t, y in points if t > 0.0 and y >= NUMERICAL_FLOOR]
    if len(usable) < 2:
        return math.nan
    return fit_power_law(usable)


def proliferation_experiment(code_name: str, theta: float) -> tuple[int, int]:
    """Support of the encoded |0> before and after rotating every qubit."""
    code = get_code(code_name)
    state = code.encoder(LogicalQubit(1.0, 0.0))
    before = support_size(state, SUPPORT_THRESHOLD)
    state = apply_error_model(state, ErrorModel("rotation", RotationErrorParams("y", theta)), None)
    return before, support_size(state, SUPPORT_THRESHOLD)


def sensitivity_experiment(n_qubits: int, target_prob: float, theta: float) -> float:
    """Relative damage (p - p')/p to a target amplitude under global rotation.

    Prepares sqrt(p)|0...0> plus a uniform tail over the other basis states,
    rotates every qubit by theta, and reports how much of the target's
    probability was lost.  Swept over p this exhibits how concentrated
    amplitudes become disproportionately fragile.  Damage inside the
    numerical floor is reported as exactly zero.
    """
    if not 2 <= n_qubits <= 10:
        raise ValueError(f"n_qubits must be in [2, 10], got {n_qubits}")
    if not 0.0 < target_prob < 1.0:
        raise ValueError(f"target probability must be in (0, 1), got {target_prob!r}")
    dim = 1 << n_qubits
    tail = math.sqrt((1.0 - target_prob) / (dim - 1))
    amps = np.full(dim, tail, dtype=np.complex128)
    amps[0] = math.sqrt(target_prob)
    state = StateVector(n_qubits, amps)
    state = apply_error_model(state, ErrorModel("rotation", RotationErrorParams("y", theta)), None)
    damaged = float(np.abs(state.amps[0]) ** 2)
    damage = (target_prob - damaged) / target_prob
    if abs(damage) < NUMERICAL_FLOOR:
        damage = 0.0
    return damage


def fit_power_law(points) -> float:
    """Least-squares exponent of infidelity vs. theta on log-log axes.

    Exact on noiseless power-law input.  Values below the 1e-13 numerical
    floor are excluded from the fit; nonpositive values are rejected
    outright because their logarithm is undefined.
    """
    pts = [(float(t), float(y)) for t, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(pts)}")
    if any(t <= 0.0 or y <= 0.0 for t, y in pts):
        raise ValueError("power-law fit needs strictly positive values")
    kept = [(t, y) for t, y in pts if y >= NUMERICAL_FLOOR]
    if len(kept) < 2:
        raise ValueError(
            f"fewer than 2 points above the {NUMERICAL_FLOOR:g} numerical floor"
        )
    log_t = np.log([t for t, _ in kept])
    log_y = np.log([y for _, y in kept])
    return float(np.polyfit(log_t, log_y, 1)[0])
