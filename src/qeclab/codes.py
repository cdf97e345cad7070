"""Encoders, stabilizer syndromes, and recovery for the Shor 9-qubit and
Steane 7-qubit codes, plus an uncoded single-qubit baseline.

A code is its definition: its stabilizers and its logical Z and X,
written down once in ``_CODE_DEFINITIONS``.  ``CodeSpec`` checks a
definition and derives the rest, from each string's (x, z) bit masks
(``statevec._masks``), when it is built.  The codewords project |0...0>
onto the code space instead of running gate circuits, and their
amplitudes are set exactly (1/sqrt 8 on 8 kets per logical basis state
for either code), so they are bit-exact and circuit bugs are out of the
blast radius.

A code has one logical qubit, so measuring its stabilizers projects onto
a syndrome space s spanned by R_s|0_L> and R_s|1_L>, where R_s is the
recovery table's correction.  Each ``CodeSpec`` owns one table of the
bras <R_s v_L|, built on first use.  ``_overlaps`` finds, once, the
outcomes a block of states reaches: the (row, outcome) pairs of weight
p_s > 0, with their overlaps <R_s v_L|psi>.  An error on the qubits Q
moves the codewords' kets only by flips inside Q: the table keeps, once
per mask Q, their patterns off Q and the outcomes they reach (``_reach``),
from which ``_layout`` lays a block out on the kets its rows reach and
names the outcomes ``_overlaps`` reads of it.  ``_draw_syndrome``
measures one outcome from the weights.

Recovery tables are built at construction time by sweeping error masks
in order of increasing weight, separately for the X sector (flagged by
Z-type stabilizers, whose x mask is 0) and the Z sector (flagged by
X-type stabilizers, whose z mask is 0); a stabilizer's bit is the parity
of the error mask on its mask.  That makes every table total over the
full syndrome space and minimum weight within each sector, and it agrees
with a plain single-Pauli sweep wherever one applies.  Degenerate
syndromes resolve to the first (lowest weight) representative;
correctness is judged by logical fidelity, not by matching a particular
Pauli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .statevec import MAX_QUBITS, StateVector, _masks, _norm_sq, _pauli_action

_NORM_INPUT_TOL = 1e-8
_NORM_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class LogicalQubit:
    """Logical amplitudes (alpha, beta) with |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        alpha, beta = complex(self.alpha), complex(self.beta)
        norm_sq = _norm_sq(alpha, beta)
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > _NORM_INPUT_TOL:
            raise ValueError(
                f"logical amplitudes must be normalized, |a|^2+|b|^2 = {norm_sq!r}"
            )
        # Renormalize only genuinely off inputs; bit-exact ones pass through
        # untouched so configs round-trip byte for byte.
        if abs(norm_sq - 1.0) > _NORM_EXACT_TOL:
            scale = 1.0 / math.sqrt(norm_sq)
            alpha, beta = alpha * scale, beta * scale
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class _SyndromeTable(NamedTuple):
    """The bras <R_s v_L| of a code as a sparse gather: the support of each
    R_s v_L (``index``) and its conjugated amplitudes there (``bras``), both
    of shape (2^m, 2, support size), rows in recovery-table order.
    ``rows[s]`` is the row of the syndrome whose bits, stabilizer 0 first,
    spell s in binary.  ``kets`` is the union of the codewords' kets, and
    ``reach`` each qubit mask's entry once found (``_reach``): the patterns
    of ``kets`` off it, their count, and the rows it reaches."""

    rows: np.ndarray
    index: np.ndarray
    bras: np.ndarray
    kets: np.ndarray
    reach: dict[int, tuple[np.ndarray, int, np.ndarray]]


@dataclass(frozen=True)
class CodeSpec:
    """A code with one logical qubit, defined by its stabilizers (Z-type
    first, then X-type) and its logical Z and X, each a string of n letters
    over IXYZ.  The constructor refuses a definition that is not one, and
    derives the rest, from the strings' (x, z) masks: the qubit count n,
    the read-only codewords (|0_L>, |1_L>), the total recovery table, and,
    on first use, the syndrome table, which gathers each correction on the
    codewords' kets alone.

    |0_L> is |0...0> projected onto the +1 eigenspace of ``logical_z`` and
    of every stabilizer.  A stabilizer state's amplitudes share one modulus,
    so it is set to exactly 1/sqrt(support size) there, times the phase
    the projection left.  |1_L> is ``logical_x`` |0_L>.
    """

    name: str
    stabilizers: tuple[str, ...]
    logical_z: str
    logical_x: str
    n_physical: int = field(init=False, repr=False, compare=False)
    codewords: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    recovery_table: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name, stabilizers, n = self.name, self.stabilizers, len(self.logical_z)
        *checks, z_bar, x_bar = (
            _code_masks(name, n, ops) for ops in (*stabilizers, self.logical_z, self.logical_x)
        )
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"{name}: a code needs 1 to {MAX_QUBITS} qubits, got {n}")
        # Every pair of the strings commutes but logical Z and X, taken first.
        named = [("logical Z", self.logical_z, z_bar), ("logical X", self.logical_x, x_bar)]
        named += [("stabilizer", ops, masks) for ops, masks in zip(stabilizers, checks)]
        for (label, a, p), (other, b, q) in list(combinations(named, 2))[1:]:
            if not _commute(p, q):
                raise ValueError(f"{name}: {label} {a} anticommutes with {other} {b}")
        if _commute(z_bar, x_bar):
            raise ValueError(
                f"{name}: logical Z {self.logical_z} commutes with logical X {self.logical_x}"
            )
        # One logical qubit, so that the syndrome table spans the register.
        if len(stabilizers) != n - 1:
            raise ValueError(
                f"{name}: {n} qubits need {n - 1} stabilizers to leave one logical "
                f"qubit, got {len(stabilizers)}"
            )
        kets = np.arange(1 << n)
        projected = np.zeros(1 << n)
        projected[0] = 1.0
        for x, z in (z_bar, *checks):  # each (I + P) is exact on integers
            src, phases = _pauli_action(x, z, kets)
            projected = projected + phases * projected[src]
        support = projected != 0
        if not support.any():
            raise ValueError(f"{name}: |{'0' * n}> has no component in the code space")
        v0 = np.zeros(1 << n, dtype=np.complex128)
        phase = projected[support] / np.abs(projected[support])
        v0[support] = phase * (1.0 / math.sqrt(np.count_nonzero(support)))
        src, phases = _pauli_action(*x_bar, kets)
        v1 = phases * v0[src] + 0.0  # + 0.0 turns the -0.0 of a -1 phase into 0.0
        v0.flags.writeable = v1.flags.writeable = False
        object.__setattr__(self, "n_physical", n)
        object.__setattr__(self, "codewords", (v0, v1))
        object.__setattr__(self, "recovery_table", _build_recovery_table(n, checks))

    def encoder(self, logical: LogicalQubit) -> StateVector:
        """alpha |0_L> + beta |1_L>."""
        v0, v1 = self.codewords
        return StateVector(self.n_physical, logical.alpha * v0 + logical.beta * v1)

    @cached_property
    def _syndromes(self) -> _SyndromeTable:
        """The code's one syndrome table, built on first use and kept."""
        supports = [np.flatnonzero(v) for v in self.codewords]
        index, bras = [], []
        for correction in self.recovery_table.values():
            x, z = _masks(correction)
            for v, support in zip(self.codewords, supports):
                kets = np.sort(support ^ x)  # the support of R_s v
                src, phases = _pauli_action(x, z, kets)
                index.append(kets)
                bras.append((phases * v[src]).conj())
        rows = np.argsort([int("0" + key, 2) for key in self.recovery_table])
        shape = (len(self.recovery_table), 2, -1)
        index, bras = np.reshape(index, shape), np.reshape(bras, shape)
        kets = np.union1d(*supports)
        for array in (rows, index, bras, kets):
            array.flags.writeable = False
        return _SyndromeTable(rows, index, bras, kets, {})


# ---------------------------------------------------------------------------
# Pauli-string bookkeeping
# ---------------------------------------------------------------------------

def _commute(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Symplectic test: (x, z) masks commute iff they clash on an even count."""
    return ((p[0] & q[1]) ^ (p[1] & q[0])).bit_count() % 2 == 0


def _code_masks(name: str, n: int, ops: str) -> tuple[int, int]:
    """The masks of one of a code's n-letter strings, or its refusal."""
    try:
        if len(ops) == n:
            return _masks(ops)
    except ValueError:
        pass
    raise ValueError(f"{name}: {ops!r} is not {n} letters over IXYZ")


def _min_weight_patterns(n: int, detectors: list[int]) -> dict[tuple[int, ...], int]:
    """Lowest-weight error mask for every syndrome of one CSS sector, by
    weight and then from qubit 0 on (down from the largest mask)."""
    want = 1 << len(detectors)
    found: dict[tuple[int, ...], int] = {}
    for error in sorted(range(1 << n), key=lambda e: (e.bit_count(), -e)):
        found.setdefault(tuple((error & d).bit_count() & 1 for d in detectors), error)
        if len(found) == want:
            return found
    raise ValueError("stabilizers are not independent: they do not span their syndrome space")


def _build_recovery_table(n: int, stabilizers: list[tuple[int, int]]) -> Mapping[str, str]:
    z_type = [(x, z) for x, z in stabilizers if not x]
    x_type = [(x, z) for x, z in stabilizers if not z]
    if stabilizers != z_type + x_type:
        raise ValueError("stabilizers must be CSS: Z-type (I/Z) ones first, then X-type (I/X)")
    # Z-type stabilizers flag X errors and vice versa.
    x_patterns = _min_weight_patterns(n, [z for _, z in z_type])
    z_patterns = _min_weight_patterns(n, [x for x, _ in x_type])
    table: dict[str, str] = {}
    for syn_z, x in x_patterns.items():
        for syn_x, z in z_patterns.items():
            key = "".join(map(str, syn_z + syn_x))
            # X on the x bits, Z on the z bits, Y on both; qubit 0 is the top bit.
            table[key] = "".join("IZXY"[2 * (x >> q & 1) + (z >> q & 1)] for q in range(n)[::-1])
    return MappingProxyType(table)


# ---------------------------------------------------------------------------
# The codes
# ---------------------------------------------------------------------------

# Each code's definition: its stabilizers, logical Z and logical X.
_CODE_DEFINITIONS = {
    # The [[9,1,3]] block-repetition code.
    "shor9": (
        ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
         "XXXXXXIII", "IIIXXXXXX"),
        "XXXXXXXXX",
        "ZZZZZZZZZ",
    ),
    # The [[7,1,3]] CSS code over the parity checks of the [7,4,3] Hamming
    # code, as Z and then as X; column j (0-indexed) read top-to-bottom is
    # the binary expansion of j + 1.
    "steane7": (
        ("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX"),
        "ZZZZZZZ",
        "XXXXXXX",
    ),
    # The bare qubit: no stabilizer, so its recovery table is {"": "I"}.
    "uncoded": ((), "Z", "X"),
}
CODE_NAMES = tuple(_CODE_DEFINITIONS)


@lru_cache(maxsize=None)
def get_code(name: str) -> CodeSpec:
    """Shared immutable CodeSpec for one of the stable names."""
    if name not in _CODE_DEFINITIONS:
        raise ValueError(f"unknown code {name!r}; expected one of {', '.join(CODE_NAMES)}")
    return CodeSpec(name, *_CODE_DEFINITIONS[name])


# ---------------------------------------------------------------------------
# Syndrome outcomes
# ---------------------------------------------------------------------------

def _reach(table: _SyndromeTable, mask: int, n: int):
    """``table.reach[mask]``, filled here once: the distinct patterns of
    ``kets`` off the qubits of ``mask`` (qubit 0 the top of n bits),
    ascending and padded to ``len(kets)`` with ket 2**n, their count, and
    the rows an error on those qubits can reach, those with a ket that
    agrees with one of the patterns off them."""
    if mask not in table.reach:
        off = np.zeros(1 << n, dtype=bool)  # which kets are a pattern off the mask
        off[table.kets & ~mask] = True
        patterns = np.flatnonzero(off)
        rows = np.flatnonzero(off[table.index & ~mask].any(axis=(1, 2)))
        padded = np.append(patterns, np.full(len(table.kets) - len(patterns), 1 << n))
        table.reach[mask] = padded, len(patterns), rows
    return table.reach[mask]


def _layout(table: _SyndromeTable, occupancies: np.ndarray):
    """The register the rows of the (k, n) ``occupancies`` are injected on,
    for a state of ``table``'s code, as (each row's errors per register
    qubit, the ket of each slot of each row, each row's reached rows of
    ``table``), the last two None for the dense register: every qubit a
    register qubit, every ket its own slot.

    An error on the qubits Q moves ``table.kets`` only by flips inside Q, so
    a row is exactly 0 off ``kets`` XOR span(Q): L * 2**w kets, w = |Q| and
    L the count of distinct patterns of ``kets`` off Q (``_reach``).  The
    compact register gives each row a (2**W, L) array, W and L the block's
    largest w and L: its 2**W axis holds the values of the row's occupied
    qubits, ascending, in its top bits, and its L axis the row's distinct
    patterns.  A phantom bit (a register qubit past the row's w) and a
    column past the row's own L point at ket 2**n, a zero, so every ket the
    row can reach has exactly one slot.  The dense register is taken where
    L * 2**W is not below 2**n, and where it is below 4, so that no step
    holds a lone amplitude pair per row: numpy multiplies a lone pair down
    its vector-matrix path, which rounds unlike the matrix products of the
    dense register's steps.  A compact block is read only on its rows'
    reached outcomes (``_overlaps``).
    """
    k, n = occupancies.shape
    occupied = occupancies > 0
    width = int(occupied.sum(axis=1).max())
    if width == n:  # W = n: a row on every qubit, so L * 2**W >= 2**n
        return occupancies, None, None
    masks = (occupied @ (1 << np.arange(n)[::-1])).tolist()  # qubit 0 the top bit
    entries = [_reach(table, mask, n) for mask in masks]
    count = max(entry[1] for entry in entries)
    if not 4 <= count << width < 1 << n:
        return occupancies, None, None
    base = np.stack([entry[0] for entry in entries])[:, :count]
    qubits = np.argsort(~occupied, axis=1, kind="stable")[:, :width]  # occupied first, ascending
    compact = np.take_along_axis(occupancies, qubits, axis=1)
    flips = np.where(compact > 0, 1 << (n - 1 - qubits), 1 << n)  # a phantom bit leaves the register
    values = (np.arange(1 << width)[:, None] >> np.arange(width)[::-1]) & 1  # register qubit 0 on top
    slots = (flips @ values.T)[:, :, None] + base[:, None, :]
    return compact, np.minimum(slots, 1 << n).reshape(k, -1), [entry[2] for entry in entries]


# A cap on the bytes of one gather of ``_overlaps``: a larger block is
# read in slices of rows, and a row wider than the cap in slices of its
# outcomes; each slice rounds as the whole block would.
_GATHER_BYTES = 1 << 19


def _overlaps(block: np.ndarray, table: _SyndromeTable, reached=None):
    """The syndrome outcomes each row of the (k, 2**n) ``block`` reaches:
    the (row, outcome s) pairs whose weight p_s = |a_0|^2 + |a_1|^2, the
    probability of measuring s, is > 0, where a_L = <R_s v_L|psi> are the
    row's overlaps with the bras of row s of ``table``.  The weight is a
    sum of squares, with no cancellation however rare the outcome.  The
    pairs run row after row, outcomes ascending, as four arrays: each
    row's count of pairs, their outcomes, their (P, 2) overlaps and their
    P weights.

    ``reached``, if given, holds each row's reached rows of ``table``
    (``_layout``), and only those pairs are read: the row must be a
    codeword state injected on the qubits of one mask alone, as a block
    laid out compact holds it, one slot per codeword ket moved by flips
    inside the mask, each step on a qubit of the mask writing a slot only
    from the slot of the ket that differs from it on that qubit.  Scattered
    into the block, the row is exactly 0 off those kets, so an outcome it
    cannot reach (``_reach``) has a_0 = a_1 = 0 and weight 0.  Each reached
    pair is the same sum of products, in the same order, as without
    ``reached``, so no bit depends on the read.
    """
    k, outcomes = len(block), len(table.index)
    if reached is None:
        hit = np.arange(k * outcomes) % outcomes
        ends = np.arange(outcomes, (k + 1) * outcomes, outcomes)  # each row's end among the pairs
        overlaps = np.empty((k, outcomes, 2), dtype=block.dtype)
        rows = max(1, _GATHER_BYTES // (table.index.size * block.itemsize))
        cols = max(1, _GATHER_BYTES // (table.index[0].size * block.itemsize))
        for lo in range(0, k, rows):
            for s in range(0, outcomes, cols):
                gather = block[lo:lo + rows].take(table.index[s:s + cols], axis=1)
                np.einsum("slj,kslj->ksl", table.bras[s:s + cols], gather,
                          out=overlaps[lo:lo + rows, s:s + cols])
        overlaps = overlaps.reshape(-1, 2)
    else:
        counts = [len(hits) for hits in reached]
        hit, ends = np.concatenate(reached), np.cumsum(counts)
        start = np.repeat(np.arange(0, block.size, block.shape[1]), counts)[:, None, None]
        overlaps = np.empty((len(hit), 2), dtype=block.dtype)
        # A pair's gather holds its kets' indices twice (bare, then offset to
        # its row), its bras and its amplitudes.
        per_pair = table.index[0].size * 2 * (table.index.itemsize + block.itemsize)
        pairs = max(1, _GATHER_BYTES // per_pair)
        amps = block.reshape(-1)
        for lo in range(0, len(hit), pairs):
            s = hit[lo:lo + pairs]
            gather = amps.take(table.index[s] + start[lo:lo + pairs])
            np.einsum("plj,plj->pl", table.bras[s], gather, out=overlaps[lo:lo + pairs])
    weight = _weight(overlaps)
    (kept,) = (weight > 0.0).nonzero()
    counts = kept.searchsorted(ends)  # each row's end among the kept pairs, then its count
    counts[1:] -= counts[:-1]
    return counts, hit.take(kept), overlaps.take(kept, axis=0), weight.take(kept)


def _weight(overlaps: np.ndarray) -> np.ndarray:
    """|a_0|^2 + |a_1|^2 of each (a_0, a_1) on the last axis of ``overlaps``."""
    parts = overlaps.view(np.float64) ** 2  # the parts of a_0, then of a_1
    return parts[..., 0] + parts[..., 1] + parts[..., 2] + parts[..., 3]


def _draw_syndrome(weight: np.ndarray, table: _SyndromeTable, rng: np.random.Generator):
    """The stabilizers' bits (0 for +1) measured in order, and their row: on
    one ``rng.random(m)``, bit k is 0 iff its uniform is below P(bit k = 0 |
    earlier bits), a ratio of sums of ``weight``, so no weight-0 row is drawn."""
    weights = weight[table.rows].tolist()  # binary order: each bit halves the range
    bits, syndrome = [], 0
    for u in rng.random(len(weights).bit_length() - 1).tolist():
        half = len(weights) // 2
        low = math.fsum(weights[:half])
        bits.append(0 if u < low / (low + math.fsum(weights[half:])) else 1)
        weights = weights[half:] if bits[-1] else weights[:half]
        syndrome = 2 * syndrome + bits[-1]
    return tuple(bits), table.rows[syndrome]
