"""Tests for encoders, stabilizer syndromes, and recovery tables."""

import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest

import qeclab.codes
from qeclab.codes import (
    CODE_NAMES,
    CodeSpec,
    LogicalQubit,
    _CODE_DEFINITIONS,
    _commute,
    _draw_syndrome,
    _overlaps,
    _reach,
    get_code,
)
from qeclab.errors import GeneralErrorParams, RotationErrorParams, build_general_unitary, rotation_unitary
from qeclab.experiments import _leaves
from qeclab.statevec import (
    StateVector,
    _masks,
    _product,
    apply_pauli_string,
    fidelity,
    support_size,
)

from dense_oracle import apply_letters, apply_product, code_spec, dense_overlaps, dense_pauli


def commute_strings(a: str, b: str) -> bool:
    """Whether two Pauli strings of one length commute, on their masks."""
    return _commute(_masks(a), _masks(b))


# The codeword structures, restated independently of the module under test.
STEANE_ZERO_KETS = {
    "0000000", "0001111", "0110011", "0111100",
    "1010101", "1011010", "1100110", "1101001",
}
STEANE_ONE_KETS = {
    "1111111", "1110000", "1001100", "1000011",
    "0101010", "0100101", "0011001", "0010110",
}

# Each code's hand-written codewords as (ket, sign) pairs, amplitude
# sign / sqrt(8) (1 for the bare qubit), and its logical Z and X.
SHOR_KETS = [
    ("".join(blocks), (-1) ** blocks.count("111"))
    for blocks in product(("000", "111"), repeat=3)
]
CODEWORD_KETS = {
    "shor9": ([(ket, 1) for ket, _ in SHOR_KETS], SHOR_KETS),
    "steane7": (
        [(ket, 1) for ket in sorted(STEANE_ZERO_KETS)],
        [(ket, 1) for ket in sorted(STEANE_ONE_KETS)],
    ),
    "uncoded": ([("0", 1)], [("1", 1)]),
}
LOGICAL_OPERATORS = {
    "shor9": ("XXXXXXXXX", "ZZZZZZZZZ"),
    "steane7": ("ZZZZZZZ", "XXXXXXX"),
    "uncoded": ("Z", "X"),
}

GENERIC_LOGICAL = LogicalQubit(0.6, complex(0.48, 0.64))  # exact unit norm

# Each registered code's sha256 of its recovery table's items in order,
# and of the bytes of its syndrome table's rows, index and bras: a sweep's
# bytes depend on the rows' order and on every bit of the bras.
TABLE_SHA256 = {
    "shor9": (
        "c47299bf9db54bb10fc2735b23d12f61e426fa76b91e796975cecdd8fa2244f0",
        "955863b87079d1f0c8d640141b8d24dd5eefbc2d49d503e08ab8ac5d6969c774",
    ),
    "steane7": (
        "f70b70323cd78faffa11dfa1baf654f516e07cad4adf176156c55b66ee8e176c",
        "b47956767dd1dd9bc554aed143040de8453712c0b8f5f7a030384aa147a501fc",
    ),
    "uncoded": (
        "d0bc24d7383721f5fb1487af50abb2e39e57e84a4a94187852db1af99512b64d",
        "9d2a8d834fb7c790c3a5c82cba6e56025d8fb217d02a474486197f84400c1b76",
    ),
}


def ket_codeword(n: int, kets) -> np.ndarray:
    """sign / sqrt(len(kets)) on each (ket, sign), +0.0 everywhere else."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    for ket, sign in kets:
        amps[int(ket, 2)] = sign / math.sqrt(len(kets))
    return amps


def single_pauli(n: int, qubit: int, letter: str) -> str:
    return "".join(letter if i == qubit else "I" for i in range(n))


def measure(state, code, rng, logical=GENERIC_LOGICAL):
    """One measured syndrome of ``state``, as ``qeclab correct`` draws it:
    its bits, and the floored infidelity its recovery leaves against
    ``logical``."""
    table = code._syndromes
    _, outcome, overlaps, weight = _overlaps(state.amps[None], table)
    by_outcome = np.zeros(len(table.index))
    by_outcome[outcome] = weight
    bits, row = _draw_syndrome(by_outcome, table, rng)
    return bits, float(_leaves(overlaps, weight, logical)[outcome.searchsorted(row)])


class TestLogicalQubit:
    def test_exact_inputs_pass_through(self):
        logical = LogicalQubit(0.8, 0.6)
        assert logical.alpha == 0.8 and logical.beta == 0.6

    def test_slightly_off_inputs_are_renormalized(self):
        logical = LogicalQubit(1.0 + 4e-9, 0.0)
        assert abs(logical.alpha) ** 2 + abs(logical.beta) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            LogicalQubit(0.8, 0.7)


class TestShorEncoder:
    def test_zero_codeword_structure(self):
        """8 kets, all amplitudes +1/(2 sqrt 2), blocks from {000, 111}^3."""
        state = get_code("shor9").encoder(LogicalQubit(1.0, 0.0))
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-12)
        assert len(nonzero) == 8
        expected_indices = sorted(
            int(f"{b0 * 7:03b}"[-3:] + f"{b1 * 7:03b}"[-3:] + f"{b2 * 7:03b}"[-3:], 2)
            for b0, b1, b2 in product((0, 1), repeat=3)
        )
        assert nonzero.tolist() == expected_indices
        scale = 1.0 / (2.0 * math.sqrt(2.0))
        np.testing.assert_allclose(state.amps[nonzero], scale, atol=1e-12)

    def test_one_codeword_signs(self):
        """Sign of each component is the parity of the number of 111 blocks."""
        state = get_code("shor9").encoder(LogicalQubit(0.0, 1.0))
        scale = 1.0 / (2.0 * math.sqrt(2.0))
        for b0, b1, b2 in product((0, 1), repeat=3):
            index = int(("111" if b0 else "000") + ("111" if b1 else "000")
                        + ("111" if b2 else "000"), 2)
            expected = scale * (-1.0) ** (b0 + b1 + b2)
            assert state.amps[index] == pytest.approx(expected, abs=1e-12)

    def test_superposition_by_linearity(self):
        s = 1.0 / math.sqrt(2.0)
        state = get_code("shor9").encoder(LogicalQubit(s, s))
        assert np.sum(np.abs(state.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        zero = get_code("shor9").encoder(LogicalQubit(1.0, 0.0))
        one = get_code("shor9").encoder(LogicalQubit(0.0, 1.0))
        np.testing.assert_allclose(state.amps, s * zero.amps + s * one.amps, atol=1e-12)


class TestSteaneEncoder:
    def test_zero_codeword_matches_ket_list(self):
        state = get_code("steane7").encoder(LogicalQubit(1.0, 0.0))
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-12)
        kets = {f"{i:07b}" for i in nonzero}
        assert kets == STEANE_ZERO_KETS
        np.testing.assert_allclose(
            state.amps[nonzero], 1.0 / math.sqrt(8.0), atol=1e-12
        )

    def test_one_codeword_matches_complement_list(self):
        state = get_code("steane7").encoder(LogicalQubit(0.0, 1.0))
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-12)
        kets = {f"{i:07b}" for i in nonzero}
        assert kets == STEANE_ONE_KETS
        np.testing.assert_allclose(
            state.amps[nonzero], 1.0 / math.sqrt(8.0), atol=1e-12
        )

    def test_parity_split(self):
        """Every zero-codeword ket has even weight, every one-codeword ket odd."""
        assert all(ket.count("1") % 2 == 0 for ket in STEANE_ZERO_KETS)
        assert all(ket.count("1") % 2 == 1 for ket in STEANE_ONE_KETS)
        assert STEANE_ONE_KETS == {
            "".join("1" if c == "0" else "0" for c in ket) for ket in STEANE_ZERO_KETS
        }


class TestDerivedCodewords:
    """The codewords are derived from each code's stabilizers and logical
    operators; they must equal the hand-written ket lists bit for bit."""

    @pytest.mark.parametrize("name", ["shor9", "steane7", "uncoded"])
    def test_codewords_match_the_ket_lists_bit_for_bit(self, name):
        code = get_code(name)
        v0, v1 = (ket_codeword(code.n_physical, kets) for kets in CODEWORD_KETS[name])
        # A negative real alpha keeps the sign of v1's zeros visible.
        for logical in (
            LogicalQubit(1.0, 0.0), LogicalQubit(0.0, 1.0),
            LogicalQubit(-0.6, 0.8), GENERIC_LOGICAL,
        ):
            expected = logical.alpha * v0 + logical.beta * v1
            assert code.encoder(logical).amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["shor9", "steane7", "uncoded"])
    def test_logical_operators_act_on_the_codewords(self, name):
        code = get_code(name)
        logical_z, logical_x = LOGICAL_OPERATORS[name]
        assert (code.logical_z, code.logical_x) == (logical_z, logical_x)
        for stabilizer in code.stabilizers:
            assert commute_strings(logical_z, stabilizer)
            assert commute_strings(logical_x, stabilizer)
        assert not commute_strings(logical_z, logical_x)
        zero = code.encoder(LogicalQubit(1.0, 0.0))
        one = code.encoder(LogicalQubit(0.0, 1.0))
        assert np.array_equal(apply_pauli_string(zero, logical_z).amps, zero.amps)
        assert np.array_equal(apply_pauli_string(one, logical_z).amps, -one.amps)
        assert np.array_equal(apply_pauli_string(zero, logical_x).amps, one.amps)


class TestCodeSpecInvariants:
    @pytest.mark.parametrize("name", ["shor9", "steane7", "uncoded"])
    def test_stabilizers_pairwise_commute(self, name):
        code = get_code(name)
        for a, b in combinations(code.stabilizers, 2):
            assert commute_strings(a, b)

    @pytest.mark.parametrize("name", ["shor9", "steane7"])
    def test_codewords_are_orthogonal(self, name):
        code = get_code(name)
        zero = code.encoder(LogicalQubit(1.0, 0.0))
        one = code.encoder(LogicalQubit(0.0, 1.0))
        assert abs(np.vdot(zero.amps, one.amps)) < 1e-12

    @pytest.mark.parametrize("name", ["shor9", "steane7"])
    def test_codewords_are_plus_one_eigenstates(self, name):
        code = get_code(name)
        for logical in (LogicalQubit(1.0, 0.0), LogicalQubit(0.0, 1.0)):
            state = code.encoder(logical)
            for stabilizer in code.stabilizers:
                fixed = apply_pauli_string(state, stabilizer)
                np.testing.assert_allclose(fixed.amps, state.amps, atol=1e-10)

    @pytest.mark.parametrize("name,bits", [("shor9", 8), ("steane7", 6)])
    def test_recovery_table_is_total(self, name, bits):
        code = get_code(name)
        assert len(code.recovery_table) == 1 << bits
        assert set(code.recovery_table) == {
            "".join(map(str, pattern)) for pattern in product((0, 1), repeat=bits)
        }

    @pytest.mark.parametrize("name", ["shor9", "steane7", "uncoded"])
    def test_zero_syndrome_maps_to_identity(self, name):
        code = get_code(name)
        key = "0" * len(code.stabilizers)
        assert set(code.recovery_table[key]) <= {"I"}

    def test_expected_stabilizer_sets(self):
        assert get_code("shor9").stabilizers == (
            "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
            "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX",
        )
        assert get_code("steane7").stabilizers == (
            "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX",
        )

    def test_get_code_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown code"):
            get_code("shor8")

    def test_registry_specs_are_their_definitions(self):
        assert CODE_NAMES == tuple(_CODE_DEFINITIONS) == ("shor9", "steane7", "uncoded")
        for name, definition in _CODE_DEFINITIONS.items():
            code = get_code(name)
            assert code == CodeSpec(name, *definition)
            assert (code.stabilizers, code.logical_z, code.logical_x) == definition

    def test_refuses_stabilizers_that_leave_more_than_one_logical_qubit(self):
        """One stabilizer on three qubits leaves two logical qubits, whose
        2^m x 2 syndrome table would not span the register."""
        with pytest.raises(ValueError, match="3 qubits need 2 stabilizers.*got 1"):
            CodeSpec("bad", ("ZZI",), "ZZZ", "XXX")

    @pytest.mark.parametrize(
        "definition,match",
        [
            ((("ZZI", "IZ"), "ZZZ", "XXX"), "'IZ' is not 3 letters over IXYZ"),
            ((("ZZI", "IZA"), "ZZZ", "XXX"), "'IZA' is not 3 letters over IXYZ"),
            ((("ZZI", "IZZ"), "ZZZ", "XXx"), "'XXx' is not 3 letters over IXYZ"),
            (((), "", ""), "needs 1 to 14 qubits, got 0"),
            ((("ZZI", "IZZ"), "XXX", "XXX"), "logical Z XXX commutes with logical X XXX"),
            ((("ZZI", "IZZ"), "XII", "ZZZ"), "logical Z XII anticommutes with stabilizer ZZI"),
            ((("ZZI", "IZZ"), "ZZZ", "XXI"), "logical X XXI anticommutes with stabilizer IZZ"),
            ((("ZZI", "IXX"), "ZZZ", "XXX"), "stabilizer ZZI anticommutes with stabilizer IXX"),
            ((("ZZI", "ZZI"), "ZZZ", "XXX"), "not independent"),
        ],
    )
    def test_refuses_what_is_not_a_code(self, definition, match):
        with pytest.raises(ValueError, match=match):
            CodeSpec("bad", *definition)

    @pytest.mark.parametrize(
        "definition,match",
        [
            # [[2,1]]: |0_L> (XX = YY = +1) has ZZ = -1, so projecting |00> leaves 0.
            ((("XX",), "YY", "XI"), "no component in the code space"),
            # Non-CSS: the recovery table is built per CSS sector.
            ((("YYI", "IYY"), "ZZZ", "XXX"), "must be CSS"),
        ],
    )
    def test_refuses_valid_codes_it_cannot_build_yet(self, definition, match):
        """Both definitions are codes: independent commuting stabilizers,
        and logical operators that commute with them and anticommute with
        each other.  The constructor builds neither yet."""
        with pytest.raises(ValueError, match=match):
            CodeSpec("code", *definition)

    @pytest.mark.parametrize("definition", [((), "Y", "X"), ((), "Y", "Z"), (("ZZ",), "YY", "YX")])
    def test_a_logical_z_with_y_keeps_its_phases(self, definition):
        """A stabilizer state's amplitudes share one modulus but not one
        phase: |0_L> of Z = Y is (|0> + i|1>)/sqrt 2."""
        code = CodeSpec("y", *definition)
        zero, one = (code.encoder(LogicalQubit(*ab)) for ab in ((1.0, 0.0), (0.0, 1.0)))
        for ops in (code.logical_z, *code.stabilizers):
            np.testing.assert_allclose(apply_pauli_string(zero, ops).amps, zero.amps, atol=1e-15)
        np.testing.assert_allclose(apply_pauli_string(one, code.logical_z).amps, -one.amps, atol=1e-15)
        assert abs(np.vdot(zero.amps, one.amps)) < 1e-15

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_tables_keep_their_bytes(self, name):
        code = get_code(name)
        table = repr(list(code.recovery_table.items())).encode()
        syndromes = code._syndromes
        arrays = b"".join(a.tobytes() for a in (syndromes.rows, syndromes.index, syndromes.bras))
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (table, arrays))
        assert digests == TABLE_SHA256[name]


class TestPauliStringsCommute:
    @pytest.mark.parametrize(
        "a,b,commute",
        [("XZ", "ZX", True), ("XI", "ZI", False), ("XY", "YX", True), ("XYZ", "YZX", False)],
    )
    def test_counts_clashes(self, a, b, commute):
        assert commute_strings(a, b) is commute


def _weight_le_one_paulis(n: int) -> list[str]:
    return ["I" * n] + [single_pauli(n, q, letter) for q in range(n) for letter in "XYZ"]


def _sector_syndrome(cells, detectors) -> tuple[int, ...]:
    """Parities of one CSS sector: each detector's overlap with ``cells``."""
    return tuple(len(cells & det) % 2 for det in detectors)


class TestKnillLaflamme:
    @pytest.mark.parametrize("name", ["steane7", "shor9"])
    def test_weight_one_errors_satisfy_the_conditions(self, name):
        """<i_L|E_a^dag E_b|j_L> = C_ab delta_ij for every pair of weight <= 1
        Paulis (Hermitian, so E_a^dag = E_a)."""
        code = get_code(name)
        words = [code.encoder(LogicalQubit(1.0, 0.0)), code.encoder(LogicalQubit(0.0, 1.0))]
        paulis = _weight_le_one_paulis(code.n_physical)
        images = np.array(
            [[apply_pauli_string(w, p).amps for w in words] for p in paulis]
        )  # (pauli, logical, amplitude)
        # gram[a, i, b, j] = <E_a i_L | E_b j_L>
        gram = np.einsum("aik,bjk->aibj", images.conj(), images)
        assert len(paulis) ** 2 == {"steane7": 484, "shor9": 784}[name]
        np.testing.assert_allclose(gram[:, 0, :, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(gram[:, 1, :, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(gram[:, 0, :, 0], gram[:, 1, :, 1], rtol=0, atol=1e-12)


class TestRecoveryTableWeight:
    @pytest.mark.parametrize("name", ["steane7", "shor9"])
    def test_each_entry_has_minimum_weight_in_its_css_sector(self, name):
        """The X part of an entry has the least weight of any X pattern with
        its Z-type syndrome, and likewise the Z part with the X-type one."""
        code = get_code(name)
        n = code.n_physical
        z_checks = [frozenset(i for i, c in enumerate(s) if c == "Z")
                    for s in code.stabilizers if set(s) <= {"I", "Z"}]
        x_checks = [frozenset(i for i, c in enumerate(s) if c == "X")
                    for s in code.stabilizers if set(s) <= {"I", "X"}]
        least = [{}, {}]  # per sector: syndrome -> least weight
        for bits in product((0, 1), repeat=n):
            cells = frozenset(q for q in range(n) if bits[q])
            for sector, checks in enumerate((z_checks, x_checks)):
                syndrome = _sector_syndrome(cells, checks)
                least[sector][syndrome] = min(least[sector].get(syndrome, n), len(cells))
        for key, entry in code.recovery_table.items():
            x_part = frozenset(q for q, c in enumerate(entry) if c in "XY")
            z_part = frozenset(q for q, c in enumerate(entry) if c in "ZY")
            syn_z = tuple(int(b) for b in key[:len(z_checks)])
            syn_x = tuple(int(b) for b in key[len(z_checks):])
            assert _sector_syndrome(x_part, z_checks) == syn_z
            assert _sector_syndrome(z_part, x_checks) == syn_x
            assert len(x_part) == least[0][syn_z]
            assert len(z_part) == least[1][syn_x]


class TestExtractSyndrome:
    def test_clean_codeword_gives_zero_syndrome(self):
        rng = np.random.default_rng(0)
        for name in ("shor9", "steane7"):
            code = get_code(name)
            state = code.encoder(GENERIC_LOGICAL)
            assert measure(state, code, rng) == ((0,) * len(code.stabilizers), 0.0)

    def test_steane_bit_flip_syndrome_spells_hamming_column(self):
        """X on qubit j raises the three Z-type bits reading binary j+1.

        Oracle: dense simulation over every position, matching the
        classic parity-check arithmetic.
        """
        rng = np.random.default_rng(1)
        code = get_code("steane7")
        clean = code.encoder(LogicalQubit(1.0, 0.0))
        for qubit in range(7):
            state = apply_pauli_string(clean, single_pauli(7, qubit, "X"))
            bits, _ = measure(state, code, rng)
            z_bits = bits[:3]
            assert z_bits[0] * 4 + z_bits[1] * 2 + z_bits[2] * 1 == qubit + 1
            assert bits[3:] == (0, 0, 0)

    def test_rotated_qubit_always_lands_in_correctable_coset(self):
        """100 random (theta, qubit) draws on the Shor code all recover."""
        rng = np.random.default_rng(7)
        code = get_code("shor9")
        clean = code.encoder(GENERIC_LOGICAL)
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            qubit = int(rng.integers(9))
            state = apply_product(clean, rotation_unitary(RotationErrorParams("y", theta)), [qubit])
            assert measure(state, code, rng)[1] < 1e-9

    def test_a_second_spec_builds_its_table_once(self, monkeypatch):
        """The syndrome table is built once per spec, on first use, however
        many measurements follow."""
        code = get_code("steane7")
        spec = CodeSpec("copy", code.stabilizers, code.logical_z, code.logical_x)
        build, builds = CodeSpec._syndromes.func, []

        def counted(self):
            builds.append(self.name)
            return build(self)

        monkeypatch.setattr(CodeSpec._syndromes, "func", counted)
        state = code.encoder(GENERIC_LOGICAL)
        assert builds == []
        for seed in range(3):
            measure(state, spec, np.random.default_rng(seed))
        assert builds == ["copy"]

    def test_a_hand_built_spec_builds_its_own_table(self):
        code = get_code("steane7")
        spec = CodeSpec("copy", code.stabilizers, code.logical_z, code.logical_x)
        table = spec._syndromes
        assert table is not code._syndromes
        for field in ("rows", "index", "bras", "kets"):
            assert np.array_equal(getattr(table, field), getattr(code._syndromes, field))
        assert table.reach is not code._syndromes.reach

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_overlaps_of_a_block_match_each_row_alone(self, name, monkeypatch):
        """Row r of a block's overlaps and weights has the bits of row r read
        alone, whether the block's gather is one slice of rows or several,
        and whether every outcome is read or only the (row, outcome) pairs
        each row's qubit mask reaches."""
        code = get_code(name)
        rng = np.random.default_rng(7)
        n = code.n_physical
        block = rng.standard_normal((20, 1 << n)) + 1j * rng.standard_normal((20, 1 << n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        budgets = (1, qeclab.codes._GATHER_BYTES, 1 << 30)  # 1 row or pair, some, all at once
        masks = rng.integers(0, 1 << n, 20).tolist()
        for reached in (None, [_reach(code._syndromes, mask, n)[2] for mask in masks]):
            alone = [
                dense_overlaps(amps[None], code._syndromes, None if reached is None else reached[r:r + 1])
                for r, amps in enumerate(block)
            ]
            for budget in budgets:
                monkeypatch.setattr(qeclab.codes, "_GATHER_BYTES", budget)
                got = dense_overlaps(block, code._syndromes, reached)
                for r, row in enumerate(alone):
                    for part, want in zip(got, row):
                        assert part[r].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_reach_holds_every_outcome_an_error_reaches(self, name):
        """Inject a random non-diagonal unitary on exactly the qubits of each
        mask into |0_L>, |1_L> and a generic state: every outcome of weight
        > 0 is one the mask reaches, and the overlaps read through the
        reach (the block read with its masks) are those of every outcome
        (the block read without) byte for byte, the unreached written 0.
        Either way the pairs are those of weight > 0, row after row and
        outcomes ascending."""
        code = get_code(name)
        n, table = code.n_physical, code._syndromes
        masks = np.arange(1 << n)
        touches = (masks[:, None] >> np.arange(n)[::-1] & 1).astype(bool)  # qubit 0 is the top bit
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert np.abs(u).min() > 0.1
        product = _product(u)
        hits = [_reach(table, mask, n)[2] for mask in masks.tolist()]
        reached = np.zeros((len(masks), len(table.index)), dtype=bool)
        for row, rows in enumerate(hits):
            reached[row, rows] = True
        for logical in (LogicalQubit(1.0, 0.0), LogicalQubit(0.0, 1.0), GENERIC_LOGICAL):
            block = np.repeat(code.encoder(logical).amps[None], len(masks), axis=0)
            block = product(block, [(q, touches[:, q]) for q in range(n)])
            dense = dense_overlaps(block, table)
            assert not dense[2][~reached].any()
            for got, want in zip(dense_overlaps(block, table, hits), dense):
                assert got.tobytes() == want.tobytes()
            for read in (None, hits):
                counts, outcome, _, weight = _overlaps(block, table, read)
                rows = np.repeat(np.arange(len(masks)), counts)
                assert (weight > 0.0).all()
                assert (np.diff(rows * len(table.index) + outcome) > 0).all()

    @pytest.mark.parametrize(
        "name", [*CODE_NAMES, "bitflip3", "bitflip5", "phaseflip3", "phaseflip5"]
    )
    def test_reach_is_the_flip_rule(self, name):
        """On every mask Q, ``_reach`` holds exactly the outcomes s with a
        flip inside Q: a ket of s XOR a ket of either codeword with no bit
        outside Q; and the distinct patterns of the codewords' kets off Q,
        ascending, padded with ket 2^n to one per ket."""
        spec = code_spec(name)
        n, table = spec.n_physical, spec._syndromes
        kets = np.union1d(*(np.flatnonzero(v) for v in spec.codewords))
        flips = (table.index.reshape(len(table.index), -1, 1) ^ kets).reshape(len(table.index), -1)
        for mask in range(1 << n):
            patterns, count, got = _reach(table, mask, n)
            want = np.flatnonzero(((flips & ~mask) == 0).any(axis=1))
            assert np.array_equal(got, want), mask
            off = sorted({ket & ~mask for ket in kets.tolist()})
            assert patterns.tolist() == off + [1 << n] * (len(kets) - len(off)), mask
            assert count == len(off)

    @pytest.mark.parametrize("name", ["steane7", "shor9"])
    def test_rare_outcome_weight_is_free_of_cancellation(self, name):
        """A y rotation by 1e-6 on qubit 0 puts weight sin^2(theta/2) on
        Y_0's syndrome.  A (1 - <P>)/2 per stabilizer loses about 1e-4 of it
        to cancellation; the overlaps' sum of squares keeps it to rounding."""
        code = get_code(name)
        theta = 1e-6
        y0 = single_pauli(code.n_physical, 0, "Y")
        state = apply_product(
            code.encoder(GENERIC_LOGICAL), rotation_unitary(RotationErrorParams("y", theta)), [0]
        )
        syndrome = sum(
            (not commute_strings(y0, s)) << (len(code.stabilizers) - 1 - k)
            for k, s in enumerate(code.stabilizers)
        )
        _, _, weight = dense_overlaps(state.amps[None], code._syndromes)
        want = math.sin(theta / 2) ** 2
        assert weight[0, code._syndromes.rows[syndrome]] == pytest.approx(want, rel=1e-12)


class TestSyndromeWalk:
    """``_draw_syndrome``'s draw, one stabilizer after another, against
    dense projectors (I +/- S)/2 built from Kronecker products, independent
    of the syndrome table it reads."""

    @pytest.mark.parametrize("name", ["steane7", "shor9"])
    def test_matches_dense_projections(self, name):
        code = get_code(name)
        n = code.n_physical
        dense = [dense_pauli(s) for s in code.stabilizers]
        rng = np.random.default_rng(2024)
        rotated = code.encoder(GENERIC_LOGICAL)
        for qubit in range(n):
            rotated = apply_product(
                rotated, rotation_unitary(RotationErrorParams("y", 0.9)), [qubit]
            )
        states = [rotated]
        for _ in range(6):
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            states.append(StateVector(n, amps / np.linalg.norm(amps)))
        seen_bits = set()
        for seed, state in enumerate(states):
            bits, infidelity = measure(state, code, np.random.default_rng(seed))
            uniforms = np.random.default_rng(seed).random(len(dense))  # the twin stream
            psi = state.amps
            for level, (stabilizer, u) in enumerate(zip(dense, uniforms)):
                plus = (psi + stabilizer @ psi) / 2
                p_plus = float(np.vdot(plus, plus).real)
                assert bits[level] == (0 if u < p_plus else 1)
                branch = (psi + (1 - 2 * bits[level]) * (stabilizer @ psi)) / 2
                psi = branch / np.linalg.norm(branch)
            # The drawn outcome's infidelity is 1 - F of the projected state
            # after its table correction.
            corrected = apply_letters(code.recovery_table["".join(map(str, bits))], psi)
            encoded = code.encoder(GENERIC_LOGICAL).amps
            dense_infidelity = 1.0 - abs(np.vdot(encoded, corrected)) ** 2
            assert infidelity == pytest.approx(dense_infidelity, rel=0, abs=1e-12)
            seen_bits.add(bits)
        assert len(seen_bits) > 3  # the draws reach several syndromes

    @pytest.mark.parametrize("name", ["steane7", "shor9"])
    def test_a_zero_weight_outcome_is_never_drawn(self, name):
        """On an undisturbed codeword every other syndrome has weight 0, so
        uniforms just below 1.0 still give the all-zero syndrome."""

        class AlmostOne:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        code = get_code(name)
        state = code.encoder(GENERIC_LOGICAL)
        assert measure(state, code, AlmostOne()) == ((0,) * len(code.stabilizers), 0.0)


class TestRecover:
    @pytest.mark.parametrize("name", ["shor9", "steane7"])
    def test_exhaustive_single_pauli_correction(self, name):
        """Every position x {X, Y, Z} recovers to fidelity 1 within 1e-9."""
        rng = np.random.default_rng(11)
        code = get_code(name)
        clean = code.encoder(GENERIC_LOGICAL)
        for qubit in range(code.n_physical):
            for letter in "XYZ":
                state = apply_pauli_string(clean, single_pauli(code.n_physical, qubit, letter))
                _, infid = measure(state, code, rng)
                assert infid < 1e-9, (name, qubit, letter, infid)

    def test_degenerate_z_errors_within_a_shor_block(self):
        """Z on any qubit of one block shares a syndrome; recovery still works."""
        rng = np.random.default_rng(5)
        code = get_code("shor9")
        clean = code.encoder(GENERIC_LOGICAL)
        syndromes = set()
        for qubit in (0, 1, 2):
            state = apply_pauli_string(clean, single_pauli(9, qubit, "Z"))
            bits, infid = measure(state, code, rng)
            syndromes.add(bits)
            assert infid < 1e-9
        assert len(syndromes) == 1

    def test_zero_syndrome_leaves_state_alone(self):
        """The zero syndrome's correction is the identity, so a clean
        codeword's overlaps with its row are the logical amplitudes."""
        code = get_code("steane7")
        assert code.recovery_table["000000"] == "IIIIIII"
        a0, a1, weight = dense_overlaps(code.encoder(GENERIC_LOGICAL).amps[None], code._syndromes)
        row = code._syndromes.rows[0]
        assert a0[0, row] == pytest.approx(GENERIC_LOGICAL.alpha, abs=1e-15)
        assert a1[0, row] == pytest.approx(GENERIC_LOGICAL.beta, abs=1e-15)
        assert weight[0, row] == pytest.approx(1.0, abs=1e-15)


class TestSyndromeDiscretization:
    @pytest.mark.parametrize("name", ["shor9", "steane7"])
    def test_continuous_errors_collapse_to_pauli_cosets(self, name):
        """The syndrome spaces R_s C, each a correction applied to the
        codespace, hold all of a state: the weights sum to 1.

        Holds for a continuous rotation on one qubit and for rotations on
        every qubit at once; the correction may still carry a logical
        error, but nothing is left outside the cosets.
        """
        code = get_code(name)
        clean = code.encoder(GENERIC_LOGICAL)
        rotation = rotation_unitary(RotationErrorParams("y", 0.31))
        single = apply_product(clean, rotation, [2])
        everywhere = clean
        for qubit in range(code.n_physical):
            everywhere = apply_product(everywhere, rotation, [qubit])
        for state in (single, everywhere):
            _, _, weight = dense_overlaps(state.amps[None], code._syndromes)
            assert weight.sum() == pytest.approx(1.0, abs=1e-9)

    def test_200_random_unitaries_on_one_qubit_recover(self):
        """Random members of the continuous error family are discretized."""
        rng = np.random.default_rng(41)
        for name in ("shor9", "steane7"):
            code = get_code(name)
            clean = code.encoder(GENERIC_LOGICAL)
            for _ in range(200):
                e = rng.standard_normal(4)
                u = build_general_unitary(
                    GeneralErrorParams(complex(e[0], e[1]), complex(e[2], e[3]))
                )
                qubit = int(rng.integers(code.n_physical))
                state = apply_product(clean, u, [qubit])
                assert measure(state, code, rng)[1] < 1e-9


class TestLogicalFidelity:
    def test_fresh_encoding_scores_one(self):
        code = get_code("steane7")
        state = code.encoder(GENERIC_LOGICAL)
        assert fidelity(state, code.encoder(GENERIC_LOGICAL)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_orthogonal_reference_scores_zero(self):
        code = get_code("shor9")
        state = code.encoder(LogicalQubit(1.0, 0.0))
        assert fidelity(state, code.encoder(LogicalQubit(0.0, 1.0))) < 1e-12

    @pytest.mark.parametrize("name", ["shor9", "steane7"])
    def test_corrected_all_qubit_rotation_is_imperfect(self, name):
        """With every qubit rotated, correction cannot restore fidelity 1.

        The Shor residual shows up as occasional discrete logical flips,
        so the angle and sample count are chosen to see several of them.
        """
        rng = np.random.default_rng(2)
        code = get_code(name)
        state = code.encoder(GENERIC_LOGICAL)
        rotation = rotation_unitary(RotationErrorParams("y", 0.6))
        for qubit in range(code.n_physical):
            state = apply_product(state, rotation, [qubit])
        residuals = [measure(state, code, rng)[1] for _ in range(60)]
        assert max(residuals) > 1e-8


class TestUncoded:
    def test_identity_encoder(self):
        code = get_code("uncoded")
        state = code.encoder(GENERIC_LOGICAL)
        np.testing.assert_allclose(
            state.amps, [GENERIC_LOGICAL.alpha, GENERIC_LOGICAL.beta], atol=1e-15
        )

    def test_empty_syndrome_and_identity_recovery(self):
        rng = np.random.default_rng(0)
        code = get_code("uncoded")
        assert code.recovery_table == {"": "I"}
        state = code.encoder(GENERIC_LOGICAL)
        assert measure(state, code, rng) == ((), 0.0)
        a0, a1, _ = dense_overlaps(state.amps[None], code._syndromes)
        assert (a0[0, 0], a1[0, 0]) == (GENERIC_LOGICAL.alpha, GENERIC_LOGICAL.beta)

    def test_support_of_codewords(self):
        assert support_size(get_code("uncoded").encoder(LogicalQubit(1.0, 0.0)), 1e-12) == 1
        assert support_size(get_code("shor9").encoder(LogicalQubit(1.0, 0.0)), 1e-12) == 8
