"""Unit and property tests for the dense state-vector register."""

import math

import numpy as np
import pytest

from qeclab.codes import CodeSpec, _draw_syndrome
from qeclab.statevec import (
    StateVector,
    _product,
    apply_pauli_string,
    fidelity,
    support_size,
)

from dense_oracle import apply_product, dense_overlaps

SQRT2_INV = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
I2 = np.eye(2, dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def ket(bits: str) -> StateVector:
    """|bits>, qubit 0 the leftmost bit: a register with one amplitude 1."""
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(len(bits), amps)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


# [[2,1]] codes, one per measured string: each measures its one
# stabilizer, and its logical operators act on the other degree of freedom.
PAIR_CODES = {
    "ZZ": CodeSpec("zz", ("ZZ",), "ZI", "XX"),
    "XX": CodeSpec("xx", ("XX",), "ZZ", "XI"),
    "ZI": CodeSpec("z0", ("ZI",), "IZ", "IX"),
    "IZ": CodeSpec("z1", ("IZ",), "ZI", "XI"),
}


def measure(state: StateVector, ops: str, rng: np.random.Generator):
    """Measure one two-qubit Pauli string as the syndrome of its [[2,1]]
    code, drawing one uniform; returns (+1/-1 outcome, the state projected
    onto that outcome by the dense (I + sign P)/2)."""
    table = PAIR_CODES[ops]._syndromes
    (bit,), _ = _draw_syndrome(dense_overlaps(state.amps[None], table)[2][0], table, rng)
    sign = 1 - 2 * bit
    projected = (state.amps + sign * dense_pair(ops) @ state.amps) / 2
    return sign, StateVector(2, projected / np.linalg.norm(projected))


def measure_z(state: StateVector, target: int, rng: np.random.Generator):
    """Measure qubit ``target`` of a pair in the Z basis; returns (bit,
    collapsed state)."""
    sign, post = measure(state, "ZI" if target == 0 else "IZ", rng)
    return (1 - sign) // 2, post


def dense_pair(ops: str) -> np.ndarray:
    """The Kronecker product of the two letters of ``ops``."""
    mats = {"I": I2, "X": X, "Z": Z}
    return np.kron(mats[ops[0]], mats[ops[1]])


def dense_probability(state: StateVector, ops: str, sign: int) -> float:
    """Born probability of outcome ``sign``: |(I + sign P)/2 psi|^2, P the
    Kronecker product of ``ops``."""
    projected = (state.amps + sign * dense_pair(ops) @ state.amps) / 2
    return float(np.vdot(projected, projected).real)


class TestStateVector:
    @pytest.mark.parametrize("n", [0, 15])
    def test_rejects_qubit_count_out_of_range(self, n):
        with pytest.raises(ValueError, match=rf"^n_qubits must be in \[1, 14\], got {n}$"):
            StateVector(n, np.ones(1, dtype=complex))

    def test_rejects_wrong_amp_count(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            StateVector(2, np.ones(3, dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf)])
    def test_rejects_infinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([bad, 0.0], dtype=complex))

    def test_amps_are_immutable(self):
        state = ket("0")
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_input_array_is_copied(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = StateVector(1, amps)
        amps[0] = 5.0
        assert state.amps[0] == 1.0

    def test_computed_states_are_read_only(self):
        state = apply_product(ket("010"), H, [0, 2])
        with pytest.raises(ValueError):
            state.amps[0] = 0.0


def dense_on(u: np.ndarray, target: int, n: int) -> np.ndarray:
    """``u`` on ``target`` as a dense 2**n matrix (qubit 0 leftmost)."""
    factors = [u if q == target else I2 for q in range(n)]
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


def moveaxis_1q(amps: np.ndarray, u: np.ndarray, target: int, n: int) -> np.ndarray:
    """The reference single-qubit kernel: move ``target`` last, matmul, move back."""
    moved = np.moveaxis(amps.reshape((2,) * n), target, -1)
    return np.moveaxis(moved @ u.T, -1, target).reshape(-1)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


class TestApplyProduct:
    @pytest.mark.parametrize("targets", [[0], [2], [0, 1, 2, 3], [3, 3], [1, 0, 1, 3, 1]])
    def test_matches_dense_kronecker_reference(self, targets):
        rng = np.random.default_rng(5)
        n, u = 4, random_unitary(rng)
        state = random_state(n, rng)
        expected = state.amps
        for target in targets:
            expected = dense_on(u, target, n) @ expected
        np.testing.assert_allclose(apply_product(state, u, targets).amps, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 9, 10])
    def test_bit_identical_to_sequential_single_qubit_kernel(self, n):
        """Each target reproduces the moveaxis kernel's rounding bit for bit,
        so swapping kernels leaves sweep rows unchanged."""
        rng = np.random.default_rng(n)
        u = random_unitary(rng)
        state = random_state(n, rng)
        targets = list(range(n)) + [n - 1, 0]
        sequential, expected = state, state.amps
        for target in targets:
            sequential = apply_product(sequential, u, [target])
            expected = moveaxis_1q(expected, u, target, n)
        product = apply_product(state, u, targets)
        assert product.amps.tobytes() == sequential.amps.tobytes() == expected.tobytes()

    def test_no_targets_leaves_amplitudes(self):
        state = random_state(3, np.random.default_rng(2))
        assert apply_product(state, X, []).amps.tobytes() == state.amps.tobytes()

    def test_input_state_untouched(self):
        state = random_state(3, np.random.default_rng(4))
        before = state.amps.tobytes()
        apply_product(state, H, [0, 1, 2])
        assert state.amps.tobytes() == before


def rotation(axis: str, theta: float) -> np.ndarray:
    generator = {"x": X, "y": Y, "z": Z}[axis]
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * generator


def steps(targets, rows=None) -> list:
    """``_product`` steps applying the operator to each of ``targets`` in
    turn, on the rows the mask ``rows`` picks (None for every row)."""
    return [(q, rows) for q in targets]


class TestProductBlock:
    """``_product`` on a block of rows rounds every row as it does alone."""

    def test_block_rows_match_each_row_alone(self):
        rng = np.random.default_rng(20)
        for n in range(2, 11):
            unitaries = [rotation(axis, 0.3 + n) for axis in "xyz"] + [random_unitary(rng)]
            for k in range(1, 41):
                product = _product(unitaries[(n + k) % 4])
                targets = [*rng.integers(0, n, size=3).tolist(), n - 1, n - 1, 0]
                block = np.array([random_state(n, rng).amps for _ in range(k)])
                got = product(block, steps(targets))
                assert got.shape == (k, 1 << n)
                for row, amps in zip(got, block):
                    assert row.tobytes() == product(amps[None], steps(targets)).tobytes()

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_rows_limits_the_product_to_those_rows(self, n):
        rng = np.random.default_rng(n)
        product = _product(random_unitary(rng))
        block = np.array([random_state(n, rng).amps for _ in range(6)])
        rows = np.array([True, False, False, True, True, False])
        targets = [0, n - 1, n // 2, n // 2]
        got = product(block.copy(), steps(targets, rows))
        whole = product(block, steps(targets))
        assert got[rows].tobytes() == whole[rows].tobytes()
        assert got[~rows].tobytes() == block[~rows].tobytes()

    def test_block_leaves_its_input_untouched(self):
        rng = np.random.default_rng(3)
        block = np.array([random_state(4, rng).amps for _ in range(3)])
        before = block.tobytes()
        _product(H)(block, steps([0, 3, 1]))
        assert block.tobytes() == before

    def test_per_row_operators_round_as_each_row_alone(self):
        """Each row under its own operator rounds as it does alone, 1-qubit
        blocks of k > 1 rows included, with or without a row mask."""
        rng = np.random.default_rng(21)
        unitaries = [rotation(axis, 0.7) for axis in "xyz"] + [random_unitary(rng)]
        product = _product(*unitaries)
        for n in range(1, 8):
            for k in (2, 3, 8):
                which = rng.integers(0, len(unitaries), size=k)
                targets = [*rng.integers(0, n, size=2).tolist(), n - 1, 0]
                block = np.array([random_state(n, rng).amps for _ in range(k)])
                rows = np.arange(k) % 2 == 0
                got = product(block, steps(targets), which)
                masked = product(block.copy(), steps(targets, rows), which)
                for i, amps in enumerate(block):
                    alone = _product(unitaries[which[i]])(amps[None], steps(targets))[0]
                    assert got[i].tobytes() == alone.tobytes()
                    assert masked[i].tobytes() == (alone if rows[i] else amps).tobytes()

    def test_one_index_names_one_shared_operator(self):
        rng = np.random.default_rng(22)
        unitaries = [random_unitary(rng) for _ in range(3)]
        block = np.array([random_state(4, rng).amps for _ in range(5)])
        for g, u in enumerate(unitaries):
            got = _product(*unitaries)(block, steps([0, 3, 3]), g)
            assert got.tobytes() == _product(u)(block, steps([0, 3, 3])).tobytes()


class TestApply1q:
    """``apply_product`` on one target."""

    def test_x_flips_basis(self):
        assert np.allclose(apply_product(ket("0"), X, [0]).amps, [0, 1])

    def test_hadamard_on_msb_qubit(self):
        """H on qubit 0 of |00> spreads over indices 0 and 2 (big-endian)."""
        state = apply_product(ket("00"), H, [0])
        np.testing.assert_allclose(state.amps, [SQRT2_INV, 0, SQRT2_INV, 0], atol=1e-15)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(11)
        state = random_state(3, rng)
        np.testing.assert_allclose(apply_product(state, I2, [1]).amps, state.amps, atol=1e-15)


class TestMeasureQubit:
    """One-qubit Z measurements of a pair, the single-qubit case of ``measure``."""

    def test_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bit, post = measure_z(ket("00"), 0, rng)
            assert bit == 0
            np.testing.assert_allclose(post.amps, [1, 0, 0, 0], atol=1e-15)

    def test_born_rule_frequency(self):
        """(|0>+|1>)/sqrt(2) on qubit 0 measures 0 with its dense weight 0.5,
        within 0.02 at 1e4 trials."""
        rng = np.random.default_rng(123)
        plus = StateVector(2, np.array([SQRT2_INV, 0, SQRT2_INV, 0]))
        p_zero = dense_probability(plus, "ZI", +1)
        assert p_zero == pytest.approx(0.5, abs=1e-15)
        zeros = sum(1 - measure_z(plus, 0, rng)[0] for _ in range(10_000))
        assert abs(zeros / 10_000 - p_zero) < 0.02

    def test_bell_correlation(self):
        """Measuring both halves of a Bell pair always gives identical bits."""
        rng = np.random.default_rng(7)
        bell = StateVector(2, np.array([SQRT2_INV, 0, 0, SQRT2_INV]))
        for _ in range(200):
            first, post = measure_z(bell, 0, rng)
            second, _ = measure_z(post, 1, rng)
            assert first == second

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(21)
        state = random_state(2, rng)
        bit, post = measure_z(state, 1, rng)
        for _ in range(5):
            again, post = measure_z(post, 1, rng)
            assert again == bit


class TestMeasurePauliString:
    """Pauli-string measurement as ``_draw_syndrome`` performs it."""

    def test_zz_even_parity(self):
        rng = np.random.default_rng(0)
        sign, post = measure(ket("00"), "ZZ", rng)
        assert sign == 1
        np.testing.assert_allclose(post.amps, ket("00").amps, atol=1e-15)

    def test_zz_odd_parity(self):
        rng = np.random.default_rng(0)
        sign, _ = measure(ket("01"), "ZZ", rng)
        assert sign == -1

    def test_bell_is_xx_stabilized(self):
        rng = np.random.default_rng(0)
        bell = StateVector(2, np.array([SQRT2_INV, 0, 0, SQRT2_INV]))
        sign, post = measure(bell, "XX", rng)
        assert sign == 1
        np.testing.assert_allclose(post.amps, bell.amps, atol=1e-12)

    def test_projective_idempotence(self):
        """Measuring the same string twice repeats the sign, state unchanged."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            state = random_state(2, rng)
            ops = str(rng.choice(list(PAIR_CODES)))
            sign1, post1 = measure(state, ops, rng)
            sign2, post2 = measure(post1, ops, rng)
            assert sign1 == sign2
            np.testing.assert_allclose(post2.amps, post1.amps, atol=1e-10)


class TestApplyPauliString:
    def test_matches_dense_matrices(self):
        """The gather/phase fast path equals explicit kron products."""
        rng = np.random.default_rng(5)
        mats = {"I": I2, "X": X, "Y": Y, "Z": Z}
        for _ in range(30):
            n = int(rng.integers(1, 5))
            ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            state = random_state(n, rng)
            dense = np.eye(1)
            for op in ops:
                dense = np.kron(dense, mats[op])
            np.testing.assert_allclose(
                apply_pauli_string(state, ops).amps, dense @ state.amps, atol=1e-12
            )

    def test_identity_string_is_noop(self):
        state = ket("01")
        assert apply_pauli_string(state, "II") is state

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match 1 qubits"):
            apply_pauli_string(ket("0"), "IIIZ")

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="I/X/Y/Z"):
            apply_pauli_string(ket("00"), "QQ")


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(2)
        state = random_state(3, rng)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(ket("0"), ket("1")) == 0.0

    def test_rotation_overlap_matches_half_angle_formula(self):
        """<0|Ry(theta)|0> has squared modulus cos^2(theta/2).

        Cross-checked two ways: the analytic formula and a direct matrix
        evaluation of the rotated column.
        """
        zero = ket("0")
        for theta in (0.0, 0.1, 0.7, 1.9, math.pi / 2, 3.0):
            rotated = apply_product(zero, ry(theta), [0])
            expected = math.cos(theta / 2) ** 2
            by_matrix = abs((ry(theta) @ np.array([1, 0]))[0]) ** 2
            assert fidelity(zero, rotated) == pytest.approx(expected, abs=1e-12)
            assert fidelity(zero, rotated) == pytest.approx(by_matrix, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_state(3, rng), random_state(3, rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(ket("0"), ket("00"))


class TestSupportSize:
    def test_basis_state(self):
        assert support_size(ket("000"), 1e-12) == 1

    def test_threshold_is_strict(self):
        state = StateVector(1, np.array([1.0, 0.0]))
        assert support_size(state, 1.0) == 0
        assert support_size(state, 0.999) == 1

    def test_steane_codeword_has_eight_components(self):
        from qeclab.codes import LogicalQubit, get_code

        state = get_code("steane7").encoder(LogicalQubit(1.0, 0.0))
        assert support_size(state, 1e-12) == 8

    def test_rotated_steane_codeword_proliferates_to_128(self):
        from qeclab.codes import LogicalQubit, get_code

        state = get_code("steane7").encoder(LogicalQubit(1.0, 0.0))
        for q in range(7):
            state = apply_product(state, ry(0.01), [q])
        assert support_size(state, 1e-12) == 128


class TestInvariants:
    def test_norm_preserved_under_random_circuits(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            state = random_state(n, rng)
            for _ in range(40):
                state = apply_product(state, random_unitary(rng), [int(rng.integers(n))])
            assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-10

    def test_unitary_round_trip(self):
        """Applying U then U-dagger restores every amplitude to 1e-10."""
        rng = np.random.default_rng(17)
        for _ in range(25):
            state = random_state(4, rng)
            u = random_unitary(rng)
            target = int(rng.integers(4))
            back = apply_product(apply_product(state, u, [target]), u.conj().T, [target])
            np.testing.assert_allclose(back.amps, state.amps, atol=1e-10)

    def test_disjoint_qubits_commute(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            state = random_state(4, rng)
            u, v = random_unitary(rng), random_unitary(rng)
            one_way = apply_product(apply_product(state, u, [1]), v, [3])
            other_way = apply_product(apply_product(state, v, [3]), u, [1])
            np.testing.assert_allclose(one_way.amps, other_way.amps, atol=1e-12)

    def test_born_rule_marginals_at_scale(self):
        """1e5 measurements of one qubit of an entangled pair stay within
        3 sigma of the |amplitude|^2 marginal, which the dense weight equals."""
        trials = 100_000
        rng = np.random.default_rng(1234)
        theta = 1.1
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        state = StateVector(2, np.array([c, 0, 0, s]))  # c|00> + s|11>
        state = apply_product(state, ry(0.4), [1])  # does not touch qubit 0's marginal
        p_one = s**2
        assert dense_probability(state, "ZI", -1) == pytest.approx(p_one, abs=1e-15)
        ones = sum(measure(state, "ZI", rng)[0] == -1 for _ in range(trials))
        sigma = math.sqrt(trials * p_one * (1 - p_one))
        assert abs(ones - trials * p_one) < 3 * sigma
