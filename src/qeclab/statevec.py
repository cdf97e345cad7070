"""Dense complex state-vector register for small qubit systems.

Conventions
-----------
Qubit 0 is the leftmost symbol of a ket string and the most significant
bit of an amplitude index, so ``basis_state(2, "10")`` puts amplitude 1
at index 2.  Capacity is capped at 14 qubits (16384 amplitudes): every
experiment in this lab needs at most 9, and the cap keeps mistakes loud
instead of slow.

All operations are pure.  A ``StateVector`` is immutable once built;
operations return fresh values and never touch their inputs.  Anything
randomized takes an explicit ``numpy.random.Generator`` so concurrent
callers can hold disjoint streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 14

# Malformed unitary *inputs* are rejected at 1e-8, looser than the 1e-10
# drift that accumulated rounding may leave on invariants.
UNITARY_INPUT_TOL = 1e-8

_BRANCH_NORM_FLOOR = 1e-14

_PAULI_LABELS = frozenset("IXYZ")


@dataclass(frozen=True)
class StateVector:
    """An n-qubit register: 2**n complex amplitudes with unit norm."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, qubit 0 being the leftmost bit."""
    if len(bits) != n_qubits:
        raise ValueError(
            f"bit string length {len(bits)} does not match n_qubits={n_qubits}"
        )
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bit string must be over 0/1, got {bits!r}")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(n_qubits, amps)


def _require_unitary2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    defect = np.max(np.abs(u @ u.conj().T - np.eye(2)))
    if defect > UNITARY_INPUT_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _require_target(state: StateVector, target: int) -> None:
    if not 0 <= target < state.n_qubits:
        raise ValueError(
            f"target qubit {target} out of range for {state.n_qubits} qubits"
        )


def apply_1q(state: StateVector, u: np.ndarray, target: int) -> StateVector:
    """Apply a single-qubit unitary to ``target``."""
    _require_target(state, target)
    u = _require_unitary2(u)
    n = state.n_qubits
    tensor = state.amps.reshape((2,) * n)
    moved = np.moveaxis(tensor, target, -1)
    out = moved @ u.T  # new[..., i] = sum_j u[i, j] * old[..., j]
    return StateVector(n, np.moveaxis(out, -1, target).reshape(-1))


@lru_cache(maxsize=256)
def _pauli_action(n_qubits: int, ops: str) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and phases realizing a Pauli string as a gather.

    For P = prod_i P_i the action on amplitudes is
    ``(P psi)[k] = phase[k] * psi[src[k]]`` where ``src = k XOR xmask``
    and the phase collects i per Y plus (-1) per set bit under Z/Y.
    """
    xmask = zmask = 0
    y_count = 0
    for i, op in enumerate(ops):
        bit = 1 << (n_qubits - 1 - i)  # qubit 0 is the most significant bit
        if op == "X":
            xmask |= bit
        elif op == "Z":
            zmask |= bit
        elif op == "Y":
            xmask |= bit
            zmask |= bit
            y_count += 1
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    src = idx ^ np.uint64(xmask)
    parity = np.bitwise_count(src & np.uint64(zmask)) & 1
    phases = np.where(parity, -1.0 + 0j, 1.0 + 0j) * (1j**y_count)
    src = src.astype(np.intp)
    src.flags.writeable = False
    phases.flags.writeable = False
    return src, phases


def _check_pauli_string(state: StateVector, ops: str) -> None:
    if len(ops) != state.n_qubits:
        raise ValueError(
            f"Pauli string length {len(ops)} does not match {state.n_qubits} qubits"
        )
    if set(ops) - _PAULI_LABELS:
        raise ValueError(f"Pauli string must be over I/X/Y/Z, got {ops!r}")


def apply_pauli_string(state: StateVector, ops: str) -> StateVector:
    """Apply a tensor product of Paulis, e.g. ``"ZZIIIIIII"``."""
    _check_pauli_string(state, ops)
    if set(ops) == {"I"}:
        return state
    src, phases = _pauli_action(state.n_qubits, ops)
    return StateVector(state.n_qubits, phases * state.amps[src])


def _measured_image(state: StateVector, ops: str) -> np.ndarray:
    _check_pauli_string(state, ops)
    if set(ops) == {"I"}:
        raise ValueError("Pauli string must contain at least one non-identity")
    src, phases = _pauli_action(state.n_qubits, ops)
    return phases * state.amps[src]


def pauli_plus_probability(state: StateVector, ops: str) -> float:
    """Born probability of the +1 outcome of measuring a Pauli string.

    That is the squared norm of (I + P)/2 psi, computed as (1 + <P>)/2 and
    clipped into [0, 1] against rounding.
    """
    expectation = float(np.real(np.vdot(state.amps, _measured_image(state, ops))))
    return min(max((1.0 + expectation) / 2.0, 0.0), 1.0)


def project_pauli_string(state: StateVector, ops: str, sign: int) -> StateVector:
    """Renormalized projection (I + sign * P)/2 psi onto one outcome.

    Raises RuntimeError when the branch has vanishing norm, i.e. when the
    outcome ``sign`` has (numerically) zero probability.
    """
    branch = (state.amps + sign * _measured_image(state, ops)) / 2.0
    norm = float(np.linalg.norm(branch))
    if norm < _BRANCH_NORM_FLOOR:
        raise RuntimeError(
            f"sampled projective branch has vanishing norm {norm:.3e}"
        )
    return StateVector(state.n_qubits, branch / norm)


def measure_pauli_string(
    state: StateVector, ops: str, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of a Pauli string observable.

    Samples the +1/-1 outcome from the Born rule on the projectors
    (I +/- P)/2 with one ``rng.random()`` draw and returns (sign,
    renormalized projection).  Measuring the same string again returns
    the same sign and leaves the state unchanged.
    """
    sign = 1 if rng.random() < pauli_plus_probability(state, ops) else -1
    return sign, project_pauli_string(state, ops, sign)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, clipped into [0, 1] against rounding."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return min(float(np.abs(np.vdot(a.amps, b.amps)) ** 2), 1.0)


def support_size(state: StateVector, threshold: float) -> int:
    """Number of basis indices with |amplitude| strictly above threshold."""
    return int(np.count_nonzero(np.abs(state.amps) > threshold))
