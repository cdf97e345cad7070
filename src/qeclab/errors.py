"""Error channels: flips, general single-qubit unitaries, axis rotations,
amplitude decay over time, and correlated placement statistics.

The placement rules treat errors as indistinguishable particles dropped
into register cells: ``bose_einstein`` draws a uniform multiset (several
errors may pile onto one qubit), ``fermi`` a uniform subset (at most one
per qubit), either as n of Floyd's slots (``_pool``).  This module alone
knows a placement's patterns: it counts them (``pattern_count``; exact
rationals for the probabilities), enumerates them (``every_pattern``) and
draws them, one trial (``sample_placement``) or a chunk of trials
(``drawn_patterns``) at a time, both through one Floyd draw (``_floyd``).

``check_placement`` alone decides whether a placement fits a register:
``ExperimentConfig`` refuses through it and ``apply_error_model`` calls
it before it draws, so occupancy and injection take a fit as given.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .statevec import StateVector, _norm_sq, _product, _scatter

FLIP_KINDS = ("bit_flip", "phase_flip", "bit_and_phase_flip")
ERROR_KINDS = FLIP_KINDS + ("general_unitary", "rotation", "decay")
PLACEMENT_RULES = ("fixed", "all_qubits", "bose_einstein", "fermi")
ROTATION_AXES = ("x", "y", "z")

_STATE_NORM_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralErrorParams:
    """Complex pair (e1, e2) selecting one member of the unitary error family.

    The weight |e1|^2 + |e2|^2 must be a finite normal float: a subnormal
    weight has lost the bits ``build_general_unitary`` normalizes by, so
    this refusal is what makes every operator it builds unitary to about
    1e-15, and no later step checks it again.
    """

    e1: complex
    e2: complex

    def __post_init__(self) -> None:
        weight = _norm_sq(self.e1, self.e2)
        if not (math.isfinite(weight) and weight >= sys.float_info.min):
            raise ValueError(
                f"e1 and e2 must be finite, with |e1|^2 + |e2|^2 at least "
                f"{sys.float_info.min!r} to normalize, got {weight!r}"
            )


@dataclass(frozen=True)
class RotationErrorParams:
    """Axis rotation by ``theta`` radians (half-angle convention)."""

    axis: str = "y"
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.axis not in ROTATION_AXES:
            raise ValueError(f"axis must be one of {ROTATION_AXES}, got {self.axis!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class DecayModel:
    """Amplitude-decay channel with rate ``lam`` in (0, 1] after time ``t``."""

    lam: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and 0.0 < self.lam <= 1.0):
            raise ValueError(f"decay rate must lie in (0, 1], got {self.lam!r}")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"elapsed time must be >= 0, got {self.t!r}")


@dataclass(frozen=True)
class Placement:
    """Where errors land: a fixed qubit list, every qubit, or a sampled pattern."""

    rule: str
    qubits: tuple[int, ...] = ()
    n_errors: int = 0

    def __post_init__(self) -> None:
        if self.rule not in PLACEMENT_RULES:
            raise ValueError(f"unknown placement rule {self.rule!r}")
        if self.n_errors < 0:
            raise ValueError(f"error count must be >= 0, got {self.n_errors}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.qubits and self.rule != "fixed":
            raise ValueError(f"{self.rule} placement takes no qubit list")
        if self.n_errors and self.rule in ("fixed", "all_qubits"):
            raise ValueError(f"{self.rule} placement takes no error count")
        if self.rule == "fixed" and not self.qubits:
            raise ValueError(
                "fixed placement needs at least one qubit; use fermi:0 for no errors"
            )

    @classmethod
    def fixed(cls, qubits) -> "Placement":
        return cls("fixed", qubits=tuple(qubits))

    @classmethod
    def bose_einstein(cls, n_errors: int) -> "Placement":
        return cls("bose_einstein", n_errors=n_errors)

    @classmethod
    def fermi(cls, n_errors: int) -> "Placement":
        return cls("fermi", n_errors=n_errors)


ALL_QUBITS = Placement("all_qubits")

_PARAM_TYPES = {
    "general_unitary": GeneralErrorParams,
    "rotation": RotationErrorParams,
    "decay": DecayModel,
}


@dataclass(frozen=True)
class ErrorModel:
    """A channel kind plus the placement rule that scatters it over a register."""

    kind: str
    params: GeneralErrorParams | RotationErrorParams | DecayModel | None = None
    placement: Placement = ALL_QUBITS

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}")
        expected = _PARAM_TYPES.get(self.kind)
        if expected is None:
            if self.params is not None:
                raise ValueError(f"error kind {self.kind!r} takes no parameters")
        elif not isinstance(self.params, expected):
            raise ValueError(
                f"error kind {self.kind!r} needs {expected.__name__} parameters"
            )


# ---------------------------------------------------------------------------
# Single-qubit operators
# ---------------------------------------------------------------------------

def build_general_unitary(p: GeneralErrorParams) -> np.ndarray:
    """Normalized [[e1*, e2*], [e2, -e1]] — the full continuum of unitary errors.

    Special cases: (1, 0) is a phase flip, (0, 1) a bit flip, (1, 1) a
    Hadamard, so the discrete flip set sits inside this family.
    """
    scale = 1.0 / math.sqrt(abs(p.e1) ** 2 + abs(p.e2) ** 2)
    e1, e2 = complex(p.e1), complex(p.e2)
    return scale * np.array(
        [[e1.conjugate(), e2.conjugate()], [e2, -e1]], dtype=np.complex128
    )


def rotation_unitary(p: RotationErrorParams) -> np.ndarray:
    """Axis rotation by theta, half-angle convention (R(0) = I)."""
    c, s = math.cos(p.theta / 2.0), math.sin(p.theta / 2.0)
    if p.axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if p.axis == "y":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array(
        [[complex(c, -s), 0.0], [0.0, complex(c, s)]], dtype=np.complex128
    )


_FLIP_MATRICES = {
    # bit flip sends amplitudes (a, b) to (b, a)
    "bit_flip": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    # phase flip sends (a, b) to (a, -b)
    "phase_flip": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    # combined flip sends (a, b) to (-b, a)
    "bit_and_phase_flip": np.array([[0, -1], [1, 0]], dtype=np.complex128),
}
for _m in _FLIP_MATRICES.values():
    _m.flags.writeable = False


def pauli_unitary(kind: str) -> np.ndarray:
    """The discrete flip operators: X, Z, and the combined (a,b) -> (-b,a) flip."""
    try:
        return _FLIP_MATRICES[kind]
    except KeyError:
        raise ValueError(f"unknown flip kind {kind!r}") from None


def decoherence_prob(m: DecayModel) -> float:
    """Decay probability 1 - lam * exp(-lam * t).

    Monotone nondecreasing in t with limit 1; note the model gives a
    nonzero value 1 - lam already at t = 0 whenever lam < 1.
    """
    return 1.0 - m.lam * math.exp(-m.lam * m.t)


# ---------------------------------------------------------------------------
# Occupancy statistics
# ---------------------------------------------------------------------------

def _pool(n_cells: int, n_errors: int, statistics: str) -> int:
    """The slots Floyd's algorithm picks n of: the N cells under fermi, the
    N + n - 1 stars-and-bars slots under bose_einstein.  Refuses unknown
    statistics, N < 1 cells, n < 0 errors, and under fermi n > N."""
    if statistics not in ("bose_einstein", "fermi"):
        raise ValueError(f"unknown statistics {statistics!r}")
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    if statistics == "fermi" and not 0 <= n_errors <= n_cells:
        raise ValueError(f"fermi placement needs 0 <= n <= N, got n={n_errors}, N={n_cells}")
    if n_errors < 0:
        raise ValueError(f"error count must be >= 0, got {n_errors}")
    return n_cells + n_errors - 1 if statistics == "bose_einstein" else n_cells


def _patterns(n_cells: int, n_errors: int, statistics: str) -> int:
    """C, the patterns of n errors on N cells, refused unworked if C has
    more digits than an int prints (4,300)."""
    pool, k = _pool(n_cells, n_errors, statistics), n_errors
    digits = (math.lgamma(pool + 1) - math.lgamma(k + 1) - math.lgamma(pool - k + 1)) / math.log(10)
    if digits >= 4300:
        raise ValueError(f"the pattern count for N={n_cells}, n={n_errors} has over 4300 digits")
    return math.comb(pool, k)


def bose_einstein_pattern_prob(n_cells: int, n_errors: int) -> Fraction:
    """Probability of each multiset pattern: 1 / C(N + n - 1, n), exact."""
    return Fraction(1, _patterns(n_cells, n_errors, "bose_einstein"))


def fermi_pattern_prob(n_cells: int, n_errors: int) -> Fraction:
    """Probability of each subset pattern: 1 / C(N, n), exact."""
    return Fraction(1, _patterns(n_cells, n_errors, "fermi"))


def pattern_count(placement: Placement, n: int) -> int:
    """C, the occupancy patterns a fitting ``placement`` takes on n qubits,
    each with probability 1/C: 1 for a rule that draws nothing."""
    return _patterns(n, placement.n_errors, placement.rule) if placement.n_errors else 1


def every_pattern(placement: Placement, n: int, step: int):
    """Each occupancy a fitting ``placement`` takes on n qubits, once, as (m, n)
    arrays of m <= ``step`` rows, in lexicographic order of Floyd's slots."""
    if placement.rule not in ("bose_einstein", "fermi"):
        yield resolve_occupancy(placement, n, None)[None]
        return
    k = placement.n_errors
    subsets = itertools.combinations(range(_pool(n, k, placement.rule)), k)
    while chunk := list(itertools.islice(subsets, step)):
        yield _occupancies(np.array(chunk, dtype=np.intp), n, placement.rule)


def drawn_patterns(placement: Placement, n: int, rng: np.random.Generator, count: int):
    """The (count, n) occupancies ``count`` successive ``resolve_occupancy`` calls draw."""
    return _floyd(n, placement.n_errors, placement.rule, rng, count)


def sample_placement(
    n_cells: int, n_errors: int, statistics: str, rng: np.random.Generator
) -> np.ndarray:
    """Draw one occupancy vector of length N, summing to n: uniform over all
    multisets of size n under ``bose_einstein`` (cells may hold more than
    one error), over all n-subsets under ``fermi``."""
    return _floyd(n_cells, n_errors, statistics, rng, 1)[0]


def _floyd(n: int, k: int, statistics: str, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, n) occupancies of ``count`` trials of Floyd's k-subset of
    ``_pool``'s slots (Bentley & Floyd, CACM 30(9), 1987): slot j = pool - k,
    ..., pool - 1 draws t in [0, j] and takes t, or j if t is taken.  One
    ``integers`` call draws every bound of every trial in that order (a
    bound of 0 takes no word); k = 0 leaves ``rng`` untouched."""
    pool = _pool(n, k, statistics)
    if not k:
        return np.zeros((count, n), dtype=np.int64)
    slots = rng.integers(0, np.arange(pool - k, pool) + 1, size=(count, k))
    # Each trial's row of slots its picks so far have taken.
    taken, rows = np.zeros(count * pool, dtype=bool), np.arange(0, count * pool, pool)
    for i, j in enumerate(range(pool - k, pool)):
        draw = slots[:, i]
        slots[:, i] = np.where(taken.take(rows + draw), j, draw)  # a draw taken gives way to j
        taken.put(rows + slots[:, i], True)
    return _occupancies(np.sort(slots, axis=1), n, statistics)


def _occupancies(slots: np.ndarray, n: int, statistics: str) -> np.ndarray:
    """The (T, n) errors per cell of (T, k) sorted slots on n cells."""
    count, k = slots.shape
    if statistics == "bose_einstein":
        slots = slots - np.arange(k)  # stars and bars: star i in slot p sits in cell p - i
    cells = slots + np.arange(0, count * n, n)[:, None]
    return np.bincount(cells.ravel(), minlength=count * n).astype(np.int64).reshape(count, n)


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def check_placement(placement: Placement, n_qubits: int, error_kind: str, register: str) -> None:
    """Raise ValueError unless ``placement`` fits a register of ``n_qubits``
    under ``error_kind``: fixed qubits lie in [0, N), fermi places n <= N
    errors, and decay stacks no two errors on one qubit (as a repeated
    fixed qubit or bose_einstein:n, n >= 2, would), naming the ``register``."""
    qubits, n_errors = placement.qubits, placement.n_errors
    outside = [q for q in qubits if not 0 <= q < n_qubits]
    if outside:
        raise ValueError(f"fixed placement qubit {outside[0]} out of range for {n_qubits} qubits")
    if placement.rule == "fermi" and n_errors > n_qubits:
        raise ValueError(f"fermi placement n={n_errors} exceeds register size N={n_qubits}")
    stacks = len(set(qubits)) < len(qubits) or (placement.rule == "bose_einstein" and n_errors >= 2)
    if error_kind == "decay" and stacks:
        raise ValueError(
            f"decay placement must not stack errors on one qubit of the {register} register"
        )


def resolve_occupancy(
    placement: Placement, n_qubits: int, rng: np.random.Generator
) -> np.ndarray:
    """Errors per qubit under a ``placement`` that fits: fixed rules draw
    nothing from ``rng``, sampled rules draw one pattern."""
    if placement.rule == "all_qubits":
        return np.ones(n_qubits, dtype=np.int64)
    if placement.rule == "fixed":
        return np.bincount(placement.qubits, minlength=n_qubits)
    return sample_placement(n_qubits, placement.n_errors, placement.rule, rng)


def _operator_for(model: ErrorModel) -> np.ndarray:
    if model.kind in FLIP_KINDS:
        return pauli_unitary(model.kind)
    if model.kind == "general_unitary":
        return build_general_unitary(model.params)
    return rotation_unitary(model.params)


def _injector(*models: ErrorModel):
    """The channel of ``models``, all of one kind (a sweep's grid points), as
    ``inject(state, occupancies, which=0, slots=None)``, each operator built
    once by ``_operator_for``.  That build is where unitarity is
    guaranteed: the flips are exact, ``RotationErrorParams`` refuses a
    non-finite angle and ``GeneralErrorParams`` a pair it cannot
    normalize, so ``_product`` applies the operators unchecked.

    ``occupancies`` is a (k, M) array of errors per register qubit, and
    ``which`` names the model each row is injected under: one index for
    every row, or a (k,) array of indices, one per row.  ``slots`` names
    the register: None for the dense one, whose M qubits are ``state``'s,
    or the ket of each slot of each row of a compact one, as
    ``codes._layout`` lays a block out.  Every kind's ``inject`` returns the
    rows of ``state`` injected under each row, on that register.  Every
    block is injected on one schedule over its register's qubits: in
    ascending order, a qubit's repeats back to back, each step on the rows
    it touches, so every row sees the sequence of operations it would see
    alone, on the same amplitudes.

    Unitary kinds are applied once per unit of occupancy, so two bosonic
    bit flips landing on the same qubit cancel.  The decay kind instead
    scales the |1> amplitude of each occupied qubit by sqrt(1 - p_t), one
    scale per model, and renormalizes each row — a post-selected surrogate
    that keeps decay inside pure-state simulation (the unconditioned
    channel would need density matrices); ``check_placement`` has refused
    occupancy above 1.  Each norm is taken on a ``_scatter`` copy of the
    rows, so it sums the dense row in the dense row's order.
    """
    def layers(state: StateVector, occupancies: np.ndarray, slots):
        """The block of ``state`` on its register, repeated once per row, and
        its steps as (q, the rows the step touches or None for every row):
        a repeat r of register qubit q touches the rows with more than r
        errors on q."""
        lows, highs = occupancies.min(axis=0).tolist(), occupancies.max(axis=0).tolist()
        steps = []
        for q, (least, most) in enumerate(zip(lows, highs)):
            steps += [(q, None)] * least
            for r in range(least, most):
                steps.append((q, occupancies[:, q] > r))
        if slots is None:
            return np.repeat(state.amps[None], len(occupancies), axis=0), steps
        return np.append(state.amps, 0.0)[slots], steps

    if models[0].kind != "decay":
        product = _product(*(_operator_for(model) for model in models))

        def unitary(state: StateVector, occupancies: np.ndarray, which=0, slots=None):
            return product(*layers(state, occupancies, slots), which)

        return unitary
    scales = [math.sqrt(1.0 - decoherence_prob(model.params)) for model in models]

    def decay(state: StateVector, occupancies: np.ndarray, which=0, slots=None):
        block, steps = layers(state, occupancies, slots)
        per_row = not isinstance(which, int)
        scale = np.array(scales)[which, None, None] if per_row else scales[which]
        for q, rows in steps:
            # The amplitudes whose register qubit q reads 1, as a view of each row.
            ones = block.reshape(len(block), 1 << q, 2, -1)[:, :, 1]
            if rows is None:
                ones *= scale
            else:
                ones[rows] *= scale[rows] if per_row else scale
        for amps, row in zip(_scatter(block, slots, 1 << state.n_qubits), block):
            norm = float(np.linalg.norm(amps))
            if norm < _STATE_NORM_FLOOR:
                raise ValueError("decay annihilated the state (norm underflow)")
            row /= norm
        return block

    return decay


def apply_error_model(
    state: StateVector, model: ErrorModel, rng: np.random.Generator
) -> StateVector:
    """Check and sample a placement; apply the channel to each occupied qubit."""
    n = state.n_qubits
    check_placement(model.placement, n, model.kind, f"{n}-qubit")
    occupancy = resolve_occupancy(model.placement, n, rng)
    block = _injector(model)(state, occupancy[None])
    return StateVector(n, block.reshape(-1))
