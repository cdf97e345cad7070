"""Dense complex state-vector register for small qubit systems.

Conventions
-----------
Qubit 0 is the leftmost symbol of a ket string and the most significant
bit of an amplitude index, so the amplitude of the two-qubit ket |10>
sits at index 2.  Capacity is capped at 14 qubits (16384 amplitudes):
every experiment in this lab needs at most 9, and the cap keeps mistakes
loud instead of slow.

Public operations are pure.  A ``StateVector`` is immutable once built;
operations return fresh values and never touch their inputs.  Anything
randomized takes an explicit ``numpy.random.Generator`` so concurrent
callers can hold disjoint streams.

The one constructor copies its input and checks its shape and
finiteness; it does not check the norm.  ``_product`` applies 2x2
operators to a block of states, one shared or one per row, along a list
of per-qubit steps, one matrix product per step.  It takes its operators'
unitarity as given: ``errors`` builds every operator a register receives,
and its parameter types refuse what would not build a unitary; a block
held on a compact register is laid out dense by ``_scatter``.  ``_masks``
is the one parser of a Pauli string, into (x, z) bit masks that every
Pauli computation here and in ``codes`` works on; masks act as a gather
on the kets asked for (``_pauli_action``).  Measurement and recovery are
not register operations: ``codes`` reads them off overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 14


@dataclass(frozen=True)
class StateVector:
    """An n-qubit register: 2**n finite complex amplitudes.  The norm is
    not checked; a state is unit-norm where its maker normalized it."""

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
        if not np.isfinite(amps.view(np.float64)).all():
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


def _norm_sq(a: complex, b: complex) -> float:
    """``abs(a) ** 2 + abs(b) ** 2`` as a float, or inf where a part or its
    square overflows a float (an int part may be too large to convert)."""
    try:
        return float(abs(a)) ** 2 + float(abs(b)) ** 2
    except OverflowError:
        return math.inf


def _product(*us: np.ndarray):
    """Return ``apply(block, steps, which=0)``, applying the 2x2 complex
    unitaries ``us`` step by step.  Nothing here checks that they are
    unitary: ``errors._operator_for`` builds them, and the parameter types
    it reads refuse any pair or angle that would not give a unitary.

    ``block`` is a (k, 2**m * c) array of k registers of m qubits, qubit 0
    the most significant, with c amplitudes under each of their 2**m values
    (c = 1 for a state vector), and each of ``steps`` is a pair (q, rows):
    an operator on qubit q of the rows the boolean mask ``rows`` picks,
    updated in place, or of every row for None.  ``which`` names the
    operators: an index into ``us`` gives every row that one, and a (k,)
    array of indices gives each row its own.  Each
    step is one matrix product, new[..., i] = sum_j u[i, j] * old[..., j],
    over a contiguous transpose of the rows that holds each amplitude pair
    side by side: one shared operator is a single (k*M, 2) @ u.T, and
    per-row operators are one (k, M, 2) @ (k, 2, 2), which numpy takes one
    row's (M, 2) slice at a time, down the BLAS path the row alone takes.
    So each row rounds as it does alone, except k > 1 rows of one qubit
    sharing an operator: their (k, 2) product is not a lone row's (1, 2)
    vector-matrix product, so a caller that needs lone rounding there names
    each row's operator, as a sweep's bare rows do.
    """
    stack = np.stack(us)
    shared = [u.T for u in us]  # each operator for every row, as BLAS reads it

    def apply(block: np.ndarray, steps, which=0) -> np.ndarray:
        k, size = block.shape
        per_row = not isinstance(which, int)
        ops = stack[which].swapaxes(1, 2) if per_row else shared[which]  # each u.T as a view
        for q, rows in steps:
            # (k, 2**q, rest, 2): qubit q indexes the last axis.
            pairs = block.reshape(k, 1 << q, 2, -1).swapaxes(2, 3)
            chosen = pairs if rows is None else pairs[rows]
            if not per_row:
                new = chosen.reshape(-1, 2) @ ops
            else:  # the operators of the rows the step touches
                some = ops if rows is None else stack[which[rows]].swapaxes(1, 2)
                new = chosen.reshape(len(chosen), -1, 2) @ some
            if rows is None:
                block = new.reshape(pairs.shape).swapaxes(2, 3).reshape(k, size)
            else:
                pairs[rows] = new.reshape(chosen.shape)
        return block

    return apply


def _scatter(rows: np.ndarray, slots, size: int) -> np.ndarray:
    """The (k, size) dense block of ``rows`` whose slots hold the kets
    ``slots`` (``codes._layout``): each slot written to its ket, those at
    ket ``size`` dropped, every other ket 0; ``rows`` itself, already dense,
    for ``slots`` None."""
    if slots is None:
        return rows
    k = len(rows)
    dense = np.zeros(k * size + 1, dtype=rows.dtype)  # the last entry takes the dropped slots
    dense[np.where(slots < size, slots + np.arange(0, k * size, size)[:, None], k * size)] = rows
    return dense[:-1].reshape(k, size)


def _masks(ops: str) -> tuple[int, int]:
    """The (x, z) bit masks of the Pauli string ``ops``, qubit 0 the top
    bit: X sets a qubit's x bit, Z its z bit, and Y both."""
    x = z = 0
    for letter in ops:
        if letter not in ("I", "X", "Y", "Z"):
            raise ValueError(f"Pauli string must be over I/X/Y/Z, got {ops!r}")
        x, z = 2 * x + (letter in "XY"), 2 * z + (letter in "YZ")
    return x, z


def _pauli_action(x: int, z: int, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and phases of the Pauli P of masks (x, z) as a gather
    on the indices ``kets``: P = i^|x & z| X^x Z^z, so ``(P psi)[k] =
    phase * psi[src]`` with ``src = k XOR x``, phase i^|x & z| (-1)^|src & z|."""
    src = kets ^ x
    parity = np.bitwise_count(src & z) & 1
    phases = np.where(parity, -1.0 + 0j, 1.0 + 0j) * (1j ** (x & z).bit_count())
    return src, phases


def apply_pauli_string(state: StateVector, ops: str) -> StateVector:
    """Apply a tensor product of Paulis, e.g. ``"ZZIIIIIII"``."""
    if len(ops) != state.n_qubits:
        raise ValueError(
            f"Pauli string length {len(ops)} does not match {state.n_qubits} qubits"
        )
    x, z = _masks(ops)
    if not x | z:
        return state
    src, phases = _pauli_action(x, z, np.arange(1 << state.n_qubits))
    image = state.amps[src]
    image *= phases
    return StateVector(state.n_qubits, image)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, clipped to at most 1 against rounding;
    a fidelity only for unit-norm states, whose norm nothing checks."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return min(float(np.abs(np.vdot(a.amps, b.amps)) ** 2), 1.0)


def support_mask(amps: np.ndarray, threshold: float) -> np.ndarray:
    """Which of ``amps``, of any shape (one register or a block of rows),
    have modulus strictly above threshold.

    The modulus is ``np.hypot`` of the parts, which rounds as ``abs()`` of a
    complex scalar does; ``np.abs`` of a complex array can differ in the
    last bit and move an amplitude across the threshold.
    """
    return np.hypot(amps.real, amps.imag) > threshold


def support_size(state: StateVector, threshold: float) -> int:
    """Number of basis indices with |amplitude| strictly above threshold."""
    return int(np.count_nonzero(support_mask(state.amps, threshold)))
