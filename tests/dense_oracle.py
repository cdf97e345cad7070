"""A dense oracle for syndrome outcomes, shared by the test modules.

Each outcome is projected by dense (I +- S)/2 factors, Kronecker products
with qubit 0 the leftmost factor, corrected by its recovery-table entry
letter by letter and scored by 1 - F against the encoding.  It shares
nothing with the package's syndrome table, overlaps or leaves.

``dense_overlaps`` is the one exception, and no oracle: it lays the
package's reached (row, outcome) pairs out as (k, 2^m) arrays, for tests
that read an outcome by its row of the table, and ``reached_rows`` looks
up the package's reach of each row for them.  ``apply_product`` is no
oracle either: it runs the package's ``_product`` on one register, for
tests that place a unitary on qubits of their choosing.  ``dense_inject``
is the reference for the injector's register layout, not for its
arithmetic: it runs the package's operators on every row's whole
register, as the injector did before it held each row only on the kets
the row can reach.
"""

import functools
import math

import numpy as np

from qeclab.codes import CODE_NAMES, CodeSpec, _overlaps, _reach, get_code
from qeclab.errors import _operator_for, decoherence_prob
from qeclab.experiments import NUMERICAL_FLOOR
from qeclab.statevec import StateVector, _product

DENSE_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(ops: str) -> np.ndarray:
    """The 2^n x 2^n matrix of a Pauli string; qubit 0 is the leftmost factor."""
    return functools.reduce(np.kron, [DENSE_PAULIS[op] for op in ops])


@functools.lru_cache(maxsize=2)
def dense_stabilizers(name):
    """Each stabilizer of ``name`` as a dense matrix."""
    return tuple(dense_pauli(stabilizer) for stabilizer in get_code(name).stabilizers)


def apply_letters(ops, amps):
    """The Pauli string ``ops`` applied letter by letter to the qubit axes
    of ``amps``."""
    tensor = amps.reshape((2,) * len(ops))
    for qubit, op in enumerate(ops):
        tensor = np.moveaxis(np.tensordot(DENSE_PAULIS[op], tensor, axes=(1, qubit)), 0, qubit)
    return tensor.reshape(-1)


def dense_branches(amps, name, logical):
    """``{bits: (weight, floored infidelity)}`` over every syndrome outcome
    of ``amps`` that has nonzero weight, bits as a string, stabilizer 0
    first.  A branch that is exactly zero is dropped as soon as it is: its
    later projections stay zero."""
    code = get_code(name)
    encoded = code.encoder(logical).amps
    branches = {"": amps}
    for stabilizer in dense_stabilizers(name):
        branches = {
            bits + bit: branch
            for bits, psi in branches.items()
            for bit, sign in (("0", 1), ("1", -1))
            if (branch := (psi + sign * (stabilizer @ psi)) / 2).any()
        }
    outcomes = {}
    for bits, psi in branches.items():
        weight = float(np.vdot(psi, psi).real)
        if weight == 0.0:
            continue
        corrected = apply_letters(code.recovery_table[bits], psi)
        leaf = 1.0 - abs(np.vdot(encoded, corrected)) ** 2 / weight
        outcomes[bits] = weight, (0.0 if leaf < NUMERICAL_FLOOR else leaf)
    return outcomes


def dense_outcomes(amps, name, logical):
    """The weights and floored infidelities of ``dense_branches``, as two
    arrays."""
    weights, leaves = zip(*dense_branches(amps, name, logical).values())
    return np.array(weights), np.array(leaves)


def dense_overlaps(block, table, reached=None):
    """``_overlaps(block, table, reached)`` scattered back into (k, 2^m)
    arrays a_0, a_1 and p_s, with 0 at every outcome a row does not reach."""
    counts, outcome, overlaps, weight = _overlaps(block, table, reached)
    cells = np.repeat(np.arange(len(block)), counts), outcome
    dense = np.zeros((len(block), len(table.index), 2), dtype=overlaps.dtype)
    dense[cells] = overlaps
    weights = np.zeros(dense.shape[:2])
    weights[cells] = weight
    return dense[..., 0], dense[..., 1], weights


def reached_rows(table, occupancies):
    """Each row's reached outcomes of ``table`` (``codes._reach``), by its
    mask of occupied qubits, whatever register ``_layout`` gives the block."""
    n = occupancies.shape[1]
    masks = (occupancies > 0) @ (1 << np.arange(n)[::-1])
    return [_reach(table, mask, n)[2] for mask in masks.tolist()]


@functools.lru_cache(maxsize=None)
def code_spec(name):
    """A registered code, or the n-qubit repetition code ``bitflip<n>``
    (checks Z_iZ_{i+1}) or ``phaseflip<n>`` (checks X_iX_{i+1}), n < 10,
    with Z-bar = Z^n and X-bar = X^n."""
    if name in CODE_NAMES:
        return get_code(name)
    n, check = int(name[-1]), "Z" if name.startswith("bit") else "X"
    checks = tuple("I" * i + check * 2 + "I" * (n - 2 - i) for i in range(n - 1))
    return CodeSpec(name, checks, "Z" * n, "X" * n)


def apply_product(state, u, targets):
    """The single-qubit unitary ``u`` applied to each of ``targets`` in turn."""
    steps = [(q, None) for q in targets]
    return StateVector(state.n_qubits, _product(u)(state.amps[None], steps).reshape(-1))


def dense_inject(models, state, occupancies, which=0):
    """The (k, 2^N) block of ``state`` injected under each row of the
    (k, N) ``occupancies``, each row on its whole register: qubits in
    ascending order, a qubit's repeats back to back, a repeat r of qubit q
    one step on the rows with more than r errors on q (every row, as one
    product, while every row has).  ``which`` names each row's model, as
    the injector reads it.  Decay scales each step's |1> amplitudes by
    sqrt(1 - p_t) and then normalizes each row."""
    k, n = occupancies.shape
    steps = []
    for q in range(n):
        least, most = int(occupancies[:, q].min()), int(occupancies[:, q].max())
        steps += [(q, None)] * least + [(q, occupancies[:, q] > r) for r in range(least, most)]
    block = np.repeat(state.amps[None], k, axis=0)
    if models[0].kind != "decay":
        return _product(*(_operator_for(model) for model in models))(block, steps, which)
    scales = [math.sqrt(1.0 - decoherence_prob(model.params)) for model in models]
    scale = np.array(scales)[np.broadcast_to(which, (k,))]
    for q, rows in steps:
        chosen = np.ones(k, dtype=bool) if rows is None else rows
        ones = block.reshape(k, 1 << q, 2, -1)[:, :, 1]
        ones[chosen] *= scale[chosen, None, None]
    for amps in block:
        amps /= float(np.linalg.norm(amps))
    return block
