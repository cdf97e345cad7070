"""Monte Carlo harness: residual infidelity vs. error strength, component
proliferation, and amplitude-sensitivity measurements.

A trial samples a placement occupancy, then one Born outcome per
stabilizer, and reports the support right after injection and the
infidelity 1 - F of the recovered state against the ideal encoding.
Everything a trial computes is a function of its branch: the occupancy
and the syndrome bits drawn so far.  ``sweep_theta`` therefore keeps, for
each side of each grid point, one node trie of the plain trial per
occupancy (see ``_BranchCache``).  A trial makes every random draw the
plain trial makes, in the same order and from the same stream, and its
first missing node runs the plain trial's own walk,
``codes._syndrome_walk``, so rows are bit-identical to pushing each trial
through encode, inject, measure and recover on its own.  Each
``CodeSpec`` holds its stabilizer gathers, and a side's encoding does not
depend on theta, so ``sweep_theta`` encodes each side once and every grid
point's kernel takes that encoding in.  The uncoded baseline is that
kernel on the bare qubit, a code with no stabilizer, under a placement
that draws nothing: it has one leaf, computed once per grid point and
reported exactly, with std 0.

Trial t of grid point g draws from the stream of
``default_rng(SeedSequence(entropy=seed, spawn_key=(g, t, 0)))``, bit for
bit, so results do not depend on how trials are scheduled and
``_trial_rng`` rebuilds any one trial alone (side 1 names streams that no
sweep derives).  ``sweep_theta`` derives all of a sweep's streams in one
vectorized pass, grid point by grid point, in blocks of
``_STREAM_BLOCK``: numpy mixes the run entropy once, and the spawn-key
words and output hash of ``SeedSequence`` run on all keys at once.  Each
trial draws its placement and then its m syndrome uniforms in one
``rng.random(m)`` call, which reads the same values as m scalar draws.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .codes import LogicalQubit, SyndromeResult, _syndrome_walk, get_code, recover
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
    resolve_occupancy,
    rotation_unitary,
)
from .statevec import StateVector, apply_product, fidelity, support_size

SUPPORT_THRESHOLD = 1e-12
# Infidelities this small are rounding residue, not physics; they are
# floored to zero in trials and excluded from power-law fits.
NUMERICAL_FLOOR = 1e-13


def _stacks_errors(placement: Placement) -> bool:
    """Whether ``placement`` can land two errors on one qubit."""
    if placement.rule == "fixed":
        return len(set(placement.qubits)) < len(placement.qubits)
    return placement.rule == "bose_einstein" and placement.n_errors >= 2


def _check_placement(placement: Placement, code: str, error_kind: str) -> None:
    """Raise ValueError unless ``placement`` fits the register of ``code``
    under ``error_kind``: fixed qubits lie in [0, N), fermi places n <= N
    errors, and a decay placement never stacks errors on one qubit."""
    n = get_code(code).n_physical
    outside = [q for q in placement.qubits if not 0 <= q < n]
    if outside:
        raise ValueError(f"fixed placement qubit {outside[0]} out of range for {n} qubits")
    if placement.rule == "fermi" and placement.n_errors > n:
        raise ValueError(f"fermi placement n={placement.n_errors} exceeds register size N={n}")
    if error_kind == "decay" and _stacks_errors(placement):
        raise ValueError(
            f"decay placement must not stack errors on one qubit of the {code} register"
        )


class ConfigError(ValueError):
    """A config the contract refuses; ``field`` names the ExperimentConfig
    field whose value was refused, or is None when no one field is."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def _tagged(field: str, check, *args) -> None:
    """Run ``check(*args)``, reporting its ValueError as a refusal of ``field``."""
    try:
        check(*args)
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
        _tagged("code", get_code, self.code)
        kind = self.error_kind
        if kind not in ERROR_KINDS:
            raise ConfigError(
                f"unknown error kind {kind!r}; expected one of {', '.join(ERROR_KINDS)}",
                "error_kind",
            )
        if self.axis not in ROTATION_AXES:
            raise ConfigError(f"unknown rotation axis {self.axis!r}", "axis")
        for name, (reader, label) in KIND_FIELDS.items():
            if kind != reader and getattr(self, name) != getattr(ExperimentConfig, name):
                raise ConfigError(f"{label} to {reader} errors, not {kind}", name)
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
        _tagged("placement", _check_placement, self.placement, self.code, kind)
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


# numpy's SeedSequence constants: the pool-mixing hash, the
# generate_state output hash and the mixing function.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 1 << 32
_POOL_SIZE = 4
# generate_state(4, uint64) draws 8 words: the pool cycled twice.
_OUTPUT_HASH = np.array(
    [_INIT_B * pow(_MULT_B, i, _WORD) % _WORD for i in range(2 * _POOL_SIZE + 1)],
    dtype=np.uint32,
)[:, None]
# Streams are derived this many keys at a time, so memory does not grow
# with the trial count.
_STREAM_BLOCK = 1024


def _stream_seeds(seed: int, keys) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(entropy=seed, spawn_key=key)``.

    ``keys`` is an (n, k) array-like of spawn keys whose words are each
    below 2**32.  Returns the (n, 4) uint64 array that each key's
    ``generate_state(4, np.uint64)`` gives.  numpy mixes the run entropy
    into the pool once; the spawn-key words of all keys are then mixed in
    as (4, n) uint32 lanes, and the output hash runs on all lanes at once.
    """
    keys = np.asarray(keys)
    # A wider word would take several pool words in numpy: another stream.
    if keys.min() < 0 or keys.max() >= _WORD:
        raise ValueError("spawn-key words must lie in [0, 2**32)")
    pool = np.random.SeedSequence(entropy=seed).pool
    # The pool-mixing hash constant advances once per (word, pool lane):
    # 16 steps for the first pool-size run-entropy words and their
    # cross-mix, 4 more for every further run-entropy word.
    run_words = max(1, -(-operator.index(seed).bit_length() // 32))
    steps = 16 + _POOL_SIZE * max(0, run_words - _POOL_SIZE)
    h = _INIT_A * pow(_MULT_A, steps, _WORD) % _WORD
    hashes = [h]
    for _ in range(_POOL_SIZE * keys.shape[1]):
        h = h * _MULT_A % _WORD
        hashes.append(h)
    hashes = np.array(hashes, dtype=np.uint32)
    lane_shape = (keys.shape[1], _POOL_SIZE, 1)
    mixed = keys.T.astype(np.uint32)[:, None, :] ^ hashes[:-1].reshape(lane_shape)
    mixed *= hashes[1:].reshape(lane_shape)
    mixed ^= mixed >> _XSHIFT
    mixed *= np.uint32(_MIX_MULT_R)
    lanes = np.repeat(pool[:, None], len(keys), axis=1)
    for word in mixed:
        lanes *= np.uint32(_MIX_MULT_L)
        lanes -= word
        lanes ^= lanes >> _XSHIFT
    out = (np.tile(lanes, (2, 1)) ^ _OUTPUT_HASH[:-1]) * _OUTPUT_HASH[1:]
    out ^= out >> _XSHIFT
    # As numpy does: consecutive little-endian word pairs form each uint64.
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """Hands one key's precomputed seed words to ``np.random.PCG64``.

    numpy's ``ISeedSequence`` is the public interface a bit generator
    seeds itself from; PCG64 asks it for ``generate_state(4, np.uint64)``
    and nothing else, which are exactly the words ``_stream_seeds`` gives.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trial_streams(seed: int, keys) -> Iterator[np.random.Generator]:
    """One generator per spawn key, each bit-identical to
    ``default_rng(SeedSequence(entropy=seed, spawn_key=key))``.

    ``keys`` may be any iterable of key tuples; it is consumed
    ``_STREAM_BLOCK`` keys at a time.
    """
    # Registered here, not at import, so that importing qeclab does not
    # import numpy.random; registering again is a no-op.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    keys = iter(keys)
    while block := list(itertools.islice(keys, _STREAM_BLOCK)):
        for words in _stream_seeds(seed, block):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _trial_rng(seed: int, grid_index: int, trial: int, side: int) -> np.random.Generator:
    """The stream of one trial, rebuilt on its own in any order."""
    return next(_trial_streams(seed, [(grid_index, trial, side)]))


class _BranchCache:
    """The trial kernel of one side at one grid point: a memo of the plain trial.

    ``injected`` maps occupancy bytes to [injected state, support, trie
    root].  A trie node is [value, child0, child1]: the +1 probability of
    its level at an internal node, the floored infidelity at a leaf, and
    below it the node of syndrome bit 0 and of bit 1, or None until some
    trial reached it.  So from a trial's first missing node down
    everything is new: the trial then reruns the syndrome walk from the
    injected state on its own uniforms and adds every node and the leaf it
    passes.  Hits are lookups only.  A placement with no error count
    draws nothing, so its one occupancy is injected here.
    """

    def __init__(self, config: ExperimentConfig, encoded: StateVector, theta: float) -> None:
        self.code = get_code(config.code)
        self.encoded = encoded
        self.model = model_for(config, theta)
        self.inject = _injector(self.model)
        self.injected: dict[bytes, list] = {}
        self.hoisted = None if self.model.placement.n_errors else self._entry(None)

    def _entry(self, rng: np.random.Generator | None) -> list:
        occupancy = resolve_occupancy(self.model.placement, self.code.n_physical, rng)
        key = occupancy.tobytes()
        entry = self.injected.get(key)
        if entry is None:
            state = self.inject(self.encoded, occupancy)
            entry = self.injected[key] = [state, support_size(state, SUPPORT_THRESHOLD), None]
        return entry

    def trial(self, rng: np.random.Generator) -> tuple[float, int]:
        entry = self.hoisted or self._entry(rng)
        uniforms = rng.random(len(self.code.gathers)).tolist()
        node = entry[2]
        for u in uniforms:
            if node is None:
                break
            node = node[1] if u < node[0] else node[2]
        return (node[0] if node else self._record(entry, uniforms)), entry[1]

    def _record(self, entry: list, uniforms: list[float]) -> float:
        bits, p_pluses, post = _syndrome_walk(entry[0], self.code.gathers, uniforms)
        corrected = recover(SyndromeResult(bits, post), self.code)
        infid = 1.0 - fidelity(corrected, self.encoded)
        if infid < NUMERICAL_FLOOR:
            infid = 0.0
        # The entry's slot 2 holds the root as a node's slots 1 and 2 hold
        # its children; nodes on the cached prefix already hold their value.
        parent, slot = entry, 2
        for value, bit in zip((*p_pluses, infid), (*bits, 0)):
            if parent[slot] is None:
                parent[slot] = [value, None, None]
            parent, slot = parent[slot], 1 + bit
        return infid


def run_trial(
    config: ExperimentConfig, theta: float, rng: np.random.Generator
) -> tuple[float, int]:
    """Encode, inject, measure syndrome, recover; return (infidelity, support).

    Support is counted right after error injection at the 1e-12 threshold,
    before any measurement collapses the proliferated components.  This is
    one trial of ``sweep_theta``'s kernel on an empty cache.
    """
    encoded = get_code(config.code).encoder(config.logical)
    return _BranchCache(config, encoded, theta).trial(rng)


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
    placement = _bare_qubit_placement(config.placement)
    bare_config = replace(config, code="uncoded", placement=placement)
    coded_encoded = get_code(config.code).encoder(config.logical)
    bare_encoded = get_code("uncoded").encoder(config.logical)
    # One stream pass for the whole sweep, grid point by grid point.
    streams = _trial_streams(
        config.seed,
        ((g, t, 0) for g in range(len(config.theta_grid)) for t in range(config.trials)),
    )
    rows = []
    for theta in config.theta_grid:
        kernel = _BranchCache(config, coded_encoded, theta)
        coded = np.empty(config.trials)
        supports = np.empty(config.trials)
        for trial, rng in enumerate(itertools.islice(streams, config.trials)):
            coded[trial], supports[trial] = kernel.trial(rng)
        # The bare qubit draws and measures nothing: one leaf, on no uniforms.
        bare = _BranchCache(bare_config, bare_encoded, theta)
        rows.append(
            SweepRow(
                theta=theta,
                mean_infid_coded=float(coded.mean()),
                std_coded=float(coded.std()),
                mean_infid_uncoded=bare._record(bare.hoisted, []),
                std_uncoded=0.0,
                mean_support=float(supports.mean()),
            )
        )
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


def proliferation_experiment(
    code_name: str, theta: float, threshold: float = SUPPORT_THRESHOLD
) -> tuple[int, int]:
    """Support of the encoded |0> before and after rotating every qubit."""
    code = get_code(code_name)
    state = code.encoder(LogicalQubit(1.0, 0.0))
    before = support_size(state, threshold)
    rotation = rotation_unitary(RotationErrorParams("y", theta))
    state = apply_product(state, rotation, range(code.n_physical))
    return before, support_size(state, threshold)


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
    rotation = rotation_unitary(RotationErrorParams("y", theta))
    state = apply_product(state, rotation, range(n_qubits))
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
