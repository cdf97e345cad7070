"""Encoders, stabilizer syndromes, and recovery for the Shor 9-qubit and
Steane 7-qubit codes, plus an uncoded single-qubit baseline.

Each code is written down once, as its stabilizers and its logical Z and
X; the rest is derived when the code is built.  The codewords project
|0...0> onto the code space instead of running gate circuits, and their
amplitudes are set exactly (1/sqrt 8 on 8 kets per logical basis state
for either code), so they are bit-exact and circuit bugs are out of the
blast radius.  Syndrome extraction is direct projective measurement of
each stabilizer through the gathers its ``CodeSpec`` holds; the
post-measurement state is identical to what ancilla circuits would
produce without ever growing the register.  That walk, ``_syndrome_walk``,
serves ``extract_syndrome``, which ``qeclab correct`` runs.

Recovery tables are built at construction time by sweeping error patterns
in order of increasing weight, separately for the X sector (flagged by
Z-type stabilizers) and the Z sector (flagged by X-type stabilizers).
That makes every table total over the full syndrome space and minimum
weight within each sector, and it agrees with a plain single-Pauli sweep
wherever one applies.  Degenerate syndromes resolve to the first (lowest
weight) representative; correctness is judged by logical fidelity, not by
matching a particular Pauli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .statevec import (
    StateVector,
    _adopt,
    _norm_sq,
    _pauli_action,
    apply_pauli_string,
    fidelity,
    pauli_gather,
    pauli_image,
    plus_probability,
    project_image,
)

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


@dataclass(frozen=True)
class SyndromeResult:
    """Measured stabilizer bits (0 for +1, 1 for -1) and the projected state."""

    bits: tuple[int, ...]
    post_state: StateVector


@dataclass(frozen=True)
class CodeSpec:
    """A code: physical size, stabilizer list, total recovery table, encoder,
    and the (src, phases) gather of each stabilizer, built with the spec."""

    name: str
    n_physical: int
    stabilizers: tuple[str, ...]
    recovery_table: Mapping[str, str]
    encoder: Callable[[LogicalQubit], StateVector]
    gathers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gathers = tuple(pauli_gather(self.n_physical, s) for s in self.stabilizers)
        object.__setattr__(self, "gathers", gathers)


# ---------------------------------------------------------------------------
# Pauli-string bookkeeping
# ---------------------------------------------------------------------------

def pauli_strings_commute(a: str, b: str) -> bool:
    """Symplectic test: strings commute iff they clash on an even count."""
    clashes = sum(
        1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 0


def _support(pauli: str) -> frozenset[int]:
    return frozenset(i for i, op in enumerate(pauli) if op != "I")


def _min_weight_patterns(
    n: int, detector_supports: list[frozenset[int]]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Lowest-weight error pattern for every syndrome of one CSS sector."""
    want = 1 << len(detector_supports)
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    for weight in range(n + 1):
        for subset in combinations(range(n), weight):
            cells = set(subset)
            syndrome = tuple(len(cells & sup) & 1 for sup in detector_supports)
            found.setdefault(syndrome, subset)
        if len(found) == want:
            return found
    raise RuntimeError("stabilizers do not span their syndrome space")


def _build_recovery_table(n: int, stabilizers: tuple[str, ...]) -> Mapping[str, str]:
    z_type = [s for s in stabilizers if set(s) <= {"I", "Z"}]
    x_type = [s for s in stabilizers if set(s) <= {"I", "X"}]
    if list(stabilizers) != z_type + x_type:
        raise ValueError("stabilizers must be ordered Z-type first, then X-type")
    for a, b in combinations(stabilizers, 2):
        if not pauli_strings_commute(a, b):
            raise ValueError(f"stabilizers {a} and {b} do not commute")
    # Z-type stabilizers flag X errors and vice versa.
    x_patterns = _min_weight_patterns(n, [_support(s) for s in z_type])
    z_patterns = _min_weight_patterns(n, [_support(s) for s in x_type])
    table: dict[str, str] = {}
    for syn_z, x_cells in x_patterns.items():
        for syn_x, z_cells in z_patterns.items():
            key = "".join(map(str, syn_z + syn_x))
            xs, zs = set(x_cells), set(z_cells)
            letters = []
            for q in range(n):
                if q in xs and q in zs:
                    letters.append("Y")
                elif q in xs:
                    letters.append("X")
                elif q in zs:
                    letters.append("Z")
                else:
                    letters.append("I")
            table[key] = "".join(letters)
    return MappingProxyType(table)


def _code(name: str, stabilizers: tuple[str, ...], logical_z: str, logical_x: str) -> CodeSpec:
    """The CodeSpec of a CSS code.  |0_L> is |0...0> projected onto the +1
    eigenspace of ``logical_z`` and of every stabilizer; a CSS codeword is
    uniform over its support, so it is exactly 1/sqrt(support size) there.
    |1_L> is ``logical_x`` |0_L>.  The projections take statevec's private
    gathers, not the module names that tracers and tests patch."""
    n = len(logical_z)
    projected = np.zeros(1 << n)
    projected[0] = 1.0
    for ops in (logical_z, *stabilizers):  # each (I + P) is exact on integers
        src, phases = _pauli_action(n, ops)
        projected = projected + phases * projected[src]
    support = projected != 0
    v0 = np.zeros(1 << n, dtype=np.complex128)
    v0[support] = 1.0 / math.sqrt(np.count_nonzero(support))
    src, phases = _pauli_action(n, logical_x)
    v1 = phases * v0[src] + 0.0  # + 0.0 turns the -0.0 of a -1 phase into 0.0
    v0.flags.writeable = v1.flags.writeable = False

    def encode(logical: LogicalQubit) -> StateVector:
        return _adopt(n, logical.alpha * v0 + logical.beta * v1)

    return CodeSpec(name, n, stabilizers, _build_recovery_table(n, stabilizers), encode)


# ---------------------------------------------------------------------------
# The codes
# ---------------------------------------------------------------------------

def shor_code() -> CodeSpec:
    """The [[9,1,3]] block-repetition code."""
    return _code(
        "shor9",
        ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
         "XXXXXXIII", "IIIXXXXXX"),
        "XXXXXXXXX",
        "ZZZZZZZZZ",
    )


def steane_code() -> CodeSpec:
    """The [[7,1,3]] CSS code over the Hamming parity checks."""
    # Parity checks of the [7,4,3] Hamming code, as Z and then as X; column
    # j (0-indexed) read top-to-bottom is the binary expansion of j + 1.
    return _code(
        "steane7",
        ("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX"),
        "ZZZZZZZ",
        "XXXXXXX",
    )


def uncoded() -> CodeSpec:
    """Bare single qubit: identity encoder, empty syndrome, identity recovery."""
    return _code("uncoded", (), "Z", "X")


_CODE_BUILDERS = {"shor9": shor_code, "steane7": steane_code, "uncoded": uncoded}
CODE_NAMES = tuple(_CODE_BUILDERS)


@lru_cache(maxsize=None)
def get_code(name: str) -> CodeSpec:
    """Shared immutable CodeSpec for one of the stable names."""
    try:
        return _CODE_BUILDERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; expected one of {', '.join(CODE_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# Syndrome extraction and recovery
# ---------------------------------------------------------------------------

def _syndrome_walk(
    state: StateVector, gathers, uniforms
) -> tuple[tuple[int, ...], tuple[float, ...], StateVector]:
    """Measure the stabilizers with (src, phases) ``gathers`` in order.  Each
    level takes one image P psi, gives bit 0 iff its uniform is below the
    Born +1 probability read off it, and projects in place into that image.
    Returns the bits, each level's +1 probability and the final state."""
    bits, p_pluses = [], []
    amps = state.amps
    for gather, u in zip(gathers, uniforms):
        image = pauli_image(amps, gather)
        p_pluses.append(plus_probability(amps, image))
        bits.append(0 if u < p_pluses[-1] else 1)
        amps = project_image(amps, image, 1 - 2 * bits[-1])
    return tuple(bits), tuple(p_pluses), _adopt(state.n_qubits, amps)


def extract_syndrome(
    state: StateVector, code: CodeSpec, rng: np.random.Generator
) -> SyndromeResult:
    """Run the stabilizer walk on m uniforms from one ``rng.random(m)`` call
    (the values of m scalar draws) and return bits plus the projection.

    On an undisturbed codeword all bits come out 0 and the state is
    unchanged; on a disturbed one the measurement collapses whatever
    continuous error was present into a definite Pauli coset.
    """
    if state.n_qubits != code.n_physical:
        raise ValueError(
            f"state has {state.n_qubits} qubits but {code.name} needs "
            f"{code.n_physical}"
        )
    uniforms = rng.random(len(code.gathers)).tolist()
    bits, _, post = _syndrome_walk(state, code.gathers, uniforms)
    return SyndromeResult(bits, post)


def recover(result: SyndromeResult, code: CodeSpec) -> StateVector:
    """Apply the table's Pauli correction for the measured syndrome."""
    if len(result.bits) != len(code.stabilizers):
        raise ValueError(
            f"syndrome has {len(result.bits)} bits but {code.name} has "
            f"{len(code.stabilizers)} stabilizers"
        )
    key = "".join(map(str, result.bits))
    try:
        correction = code.recovery_table[key]
    except KeyError:
        raise LookupError(
            f"recovery table for {code.name} is missing syndrome {key!r}; "
            "the table construction is broken"
        ) from None
    return apply_pauli_string(result.post_state, correction)


def logical_fidelity(
    state: StateVector, code: CodeSpec, reference: LogicalQubit
) -> float:
    """Fidelity against the ideal encoding of ``reference``; 1 iff corrected."""
    return fidelity(state, code.encoder(reference))
