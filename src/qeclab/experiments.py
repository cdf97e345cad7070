"""Monte Carlo harness: residual infidelity vs. error strength, component
proliferation, and amplitude-sensitivity measurements.

A trial samples a placement occupancy, injects the error into the
encoded state, and reports the support right after injection and the
infidelity 1 - F that recovery leaves, as its exact expectation over
syndrome outcomes.  For a code with one logical qubit, measuring the
stabilizers projects onto a syndrome space s spanned by R_s|0_L> and
R_s|1_L>, where R_s is the table's correction, and recovery applies R_s;
so each outcome's weight and the infidelity it leaves are read off the
overlaps <R_s v_L|psi> (``_leaves``; ``qeclab correct`` prints the leaf
of the outcome it draws).  A trial thus depends on its occupancy alone.
At each grid point ``sweep_theta`` draws every trial's occupancy, then
evaluates the distinct ones as one block (``_kernel``): the block is
injected one qubit step at a time, each step one matrix product over
the rows it touches.  An error on the qubits Q moves the codewords' kets
only by flips inside Q, so a row can be injected on those kets alone: a
register of the values of its occupied qubits over the patterns of the
codewords' kets off them.  ``codes._layout`` alone picks each block's
register, this one or, where it is no smaller, the dense one, and the
injector works on the register it is given.  Supports are counted
there, and the rows are scattered (``statevec._scatter``) into the dense
block that ``_overlaps`` reads; each amplitude is the one a dense
injection computes, by the same products.  ``_overlaps`` then finds,
once, the (row, outcome) pairs of weight > 0, row after row, and the
leaves and moments read those pairs alone: of a compact block only the
pairs its rows' flips reach, of a dense block every pair, by the same
sums of products.  A block's rows round exactly as each row alone does.
Each entry carries its variance over syndrome outcomes: a row's
``std_coded`` is the population std of one trial's infidelity, by the law
of total variance.  A placement with no error count draws nothing; its
row is its one entry, whatever the seed and trial count.  Each side is
encoded once per sweep, and the sweep builds one injector, holding every
grid point's operator, which both sides share.  The uncoded baseline is
the kernel on the bare qubit, a code with no stabilizer, under the
placement's projection onto that qubit (``_bare_qubit_placement``),
which draws nothing: one entry per grid point, reported with std 0.
The rows that draw nothing, the bare side's and a drawless coded side's,
are one block per side with a row per grid point, each row injected
under its own grid point's operator; a placement that draws keeps one
block per grid point, so its per-trial buffers stay one grid point long.

Trial t of grid point g of a placement that draws takes its occupancy
from ``default_rng(SeedSequence(entropy=seed, spawn_key=(g, t, 0)))``
(``_trial_rng``), so results do not depend on how trials are scheduled
and any one trial can be rebuilt alone.  A sweep draws those streams as
arrays, ``_DRAW_TRIALS`` trials at a time (``_trial_occupancies``): the
SeedSequence words, PCG64 and the Lemire draws of Floyd's algorithm,
integer for integer as numpy computes them, so every row is the one its
trial's stream draws.  A trial whose draw numpy would reject and redraw
is rebuilt alone from ``_trial_rng``.
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
    resolve_occupancy,
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


def _trial_rng(seed: int, grid_index: int, trial: int) -> np.random.Generator:
    """The stream of one trial, rebuilt on its own in any order."""
    # The fixed trailing 0 keeps each stream, and so every published row, bit for bit.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(grid_index, trial, 0))
    )


# The constants of numpy's SeedSequence hash (a pool of four 32-bit words)
# and of its default generator, PCG64 (O'Neill, HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Trials whose occupancies are drawn as one set of arrays.  Each holds a
# few hundred bytes (stream state, draws, occupancy and its key), so a
# chunk's arrays stay near 1 MB.
_DRAW_TRIALS = 2048


def _hash(value, before, after):
    """SeedSequence's hashmix of ``value`` under the hash constant ``before``
    and the one it advances to, ``after``, mod 2**32."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of the pool word ``x`` with the hashed ``y``, mod 2**32."""
    x = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return x ^ x >> 16


def _constants(const: int, count: int, mult: int) -> np.ndarray:
    """The hash constant ``const`` and the ``count`` it advances to next,
    as a (count + 1, 1) uint32 array."""
    return np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(count + 1)],
                    np.uint32)[:, None]


def _seed_words(seed: int, grid_index: int, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(grid_index, t, 0)).generate_state(4,
    np.uint64)`` as row t of a (T, 4) array, for the uint32 ``trials``.

    The words of ``seed`` and ``grid_index`` leave the pool of
    ``SeedSequence(seed, spawn_key=(grid_index,))``, alike for every t,
    and four hashmixes per entropy word (the seed's padded to the pool's
    four) advance the hash constant.  From there t's word and the trailing
    0 each mix into the four pool words as one (4, T) array operation.
    """
    def n_words(value: int) -> int:
        return max(1, (value.bit_length() + 31) // 32)

    entropy = max(4, n_words(seed)) + n_words(grid_index)
    pool = np.random.SeedSequence(seed, spawn_key=(grid_index,)).pool[:, None]
    chain = _constants(_HASH_INIT_A * pow(_HASH_MULT_A, 4 * entropy, 1 << 32), 8, _HASH_MULT_A)
    for lo, word in ((0, trials), (4, 0)):
        pool = _mix(pool, _hash(word, chain[lo:lo + 4], chain[lo + 1:lo + 5]))
    chain = _constants(_HASH_INIT_B, 8, _HASH_MULT_B)
    state = _hash(np.concatenate([pool, pool]), chain[:-1], chain[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of PCG64's 128-bit LCG, state * multiplier + inc, on
    (hi, lo) uint64 halves; the high half of lo times the multiplier's
    low half is summed from 32-bit limbs."""
    lo0, lo1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    cross0, cross1 = lo0 * m1, lo1 * m0
    mid = (lo0 * m0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carry = lo1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    hi = carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _lemire(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw of an integer in [0, bound] from each 32-bit word
    (arXiv:1805.10941), as numpy's ``integers(0, bound + 1)`` makes it
    for 0 < bound < 2**32 - 1, and where the word falls in the rejection
    zone, after which numpy would draw another word."""
    scaled = words * (bound + 1)
    return scaled >> 32, (scaled & _MASK32) < (_MASK32 - bound) % (bound + 1)


def _trial_occupancies(
    placement: Placement, n: int, seed: int, grid_index: int, trials: range
) -> np.ndarray:
    """The (T, n) occupancies the bose_einstein or fermi ``placement``
    draws on ``n`` qubits for the trials ``trials`` of ``grid_index``:
    row i is ``resolve_occupancy(placement, n, _trial_rng(seed,
    grid_index, trials[i]))`` byte for byte.

    Every trial's stream is computed at once: its SeedSequence words
    (``_seed_words``), then PCG64 seeded from them and stepped on every
    trial together, whose XSL-RR outputs hand out their low 32 bits, then
    their high ones, to Floyd's draws (``_lemire``; a bound of 0 takes no
    word).  A trial whose draw is rejected, and every trial of a range
    past 2**32, is rebuilt from ``_trial_rng``, so that stream remains the
    one definition of a trial.
    """
    k = placement.n_errors
    pool = n + k - 1 if placement.rule == "bose_einstein" else n
    count = len(trials)
    if trials.stop > _MASK32 + 1:
        rebuild = np.ones(count, dtype=bool)
        occupancies = np.empty((count, n), dtype=np.int64)
    else:
        t = np.arange(trials.start, trials.stop, dtype=np.uint32)
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seed, grid_index, t).T
        # pcg64_set_seed: inc = initseq << 1 | 1, a step from state 0, add the seed, step.
        inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        lo = inc_lo + seed_lo
        hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
        rebuild = np.zeros(count, dtype=bool)
        # Floyd's picks so far, and each trial's row of slots they have taken.
        chosen, taken = [], np.zeros(count * pool, dtype=bool)
        rows, used = np.arange(0, count * pool, pool), 0  # used: the 32-bit words drawn
        for j in range(pool - k, pool):
            if not j:
                draw = np.zeros(count, dtype=np.intp)  # a bound of 0 takes no word
            else:
                if used % 2 == 0:
                    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
                    mixed, turn = hi ^ lo, hi >> 58
                    output = mixed >> turn | mixed << (64 - turn & 63)
                    word = output & _MASK32
                else:
                    word = output >> 32
                used += 1
                draw, missed = _lemire(word, j)
                draw = draw.astype(np.intp)
                rebuild |= missed
            # A draw already chosen gives way to j.
            pick = np.where(taken.take(rows + draw), j, draw)
            taken.put(rows + pick, True)
            chosen.append(pick)
        cells = np.sort(np.array(chosen, dtype=np.intp).reshape(k, count).T, axis=1)
        if placement.rule == "bose_einstein":
            cells -= np.arange(k)  # stars and bars: star i in slot p sits in cell p - i
        cells += np.arange(count)[:, None] * n
        occupancies = np.bincount(cells.ravel(), minlength=count * n).astype(np.int64, copy=False)
        occupancies = occupancies.reshape(count, n)
    for i in np.flatnonzero(rebuild).tolist():
        rng = _trial_rng(seed, grid_index, trials[i])
        occupancies[i] = resolve_occupancy(placement, n, rng)
    return occupancies


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
    """Monte Carlo sweep over the theta grid, coded against uncoded baseline.

    The uncoded side runs the identical channel on a bare qubit, so under
    ``all_qubits`` placement the comparison is per-physical-qubit fair:
    the baseline sees the error exactly once.
    """
    # The bare qubit is a register of its own, so its projected placement
    # must fit it too: decay refuses the errors the projection stacks.
    bare_placement = _bare_qubit_placement(config.placement)
    _tagged("placement", check_placement, bare_placement, 1, config.error_kind, "uncoded")
    code, uncoded, logical = get_code(config.code), get_code("uncoded"), config.logical
    # Each side's encoded state, syndrome table and logical state, as _kernel reads them.
    coded_side = (code.encoder(logical), code._syndromes, logical)
    bare_side = (uncoded.encoder(logical), uncoded._syndromes, logical)
    n = code.n_physical
    sampled = config.placement.n_errors > 0
    # Allocated up front, so a trial budget too large to hold fails at once.
    if sampled:
        inverse = np.empty(config.trials, dtype=np.intp)
        moments = np.empty((3, config.trials))
        # Trials drawn at a time; each takes a byte per Floyd slot, of which
        # a bose_einstein placement has n + n_errors - 1, so a huge count
        # draws fewer at a time (ExperimentConfig keeps that at least one).
        step = min(_DRAW_TRIALS, _BLOCK_BYTES // (n + config.placement.n_errors))
    inject = _injector(*(model_for(config, theta) for theta in config.theta_grid))
    grid = np.arange(len(config.theta_grid))

    def drawless(side, placement: Placement, n_qubits: int) -> tuple[list, list, list]:
        """One side's entry at every grid point under a placement that draws
        nothing: one block, a row per grid point under its own operator."""
        occupancy = resolve_occupancy(placement, n_qubits, None)
        return _kernel(inject, *side, np.repeat(occupancy[None], len(grid), axis=0), grid)

    if sampled:
        coded = []
        for grid_index in grid.tolist():
            # Each trial's occupancy, as the index of the distinct one it is.
            distinct: dict[bytes, int] = {}
            for lo in range(0, config.trials, step):
                trials = range(config.trials)[lo:lo + step]
                drawn = _trial_occupancies(config.placement, n, config.seed, grid_index, trials)
                raw, width = drawn.tobytes(), drawn.itemsize * n
                inverse[lo:lo + step] = [
                    distinct.setdefault(raw[i:i + width], len(distinct))
                    for i in range(0, len(raw), width)
                ]
            occupancies = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(-1, n)
            entries = np.array(_kernel(inject, *coded_side, occupancies, grid_index))
            np.take(entries, inverse, axis=1, out=moments)
            mean, variance, support = moments.mean(axis=1).tolist()
            # The law of total variance: within occupancies, then across them.
            coded.append((mean, variance + float(moments[0].var()), support))
    else:
        coded = zip(*drawless(coded_side, config.placement, n))
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
