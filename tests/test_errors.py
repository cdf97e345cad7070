"""Unit and property tests for the error catalog."""

import cmath
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeclab.errors import (
    ALL_QUBITS,
    FLIP_KINDS,
    ROTATION_AXES,
    DecayModel,
    ErrorModel,
    GeneralErrorParams,
    Placement,
    RotationErrorParams,
    _injector,
    _operator_for,
    apply_error_model,
    bose_einstein_pattern_prob,
    build_general_unitary,
    decoherence_prob,
    drawn_patterns,
    fermi_pattern_prob,
    pauli_unitary,
    rotation_unitary,
)
from qeclab.statevec import StateVector, support_size

from floyd_oracle import scalar_placement


def _component(exponent: float, phase: float) -> complex:
    return 10.0**exponent * cmath.exp(1j * phase)


# (kind, constructor arguments) of every operator family: the flips, a
# rotation about each axis by 0 to 1e300, and general pairs whose parts
# range over 1e-170 to 1e160 in modulus, at any phase, or are 0.  Half the
# exponents lie below -150, where a weight turns subnormal near 1e-154.
_EXPONENTS = st.floats(-170, 160) | st.floats(-170, -150)
_PARTS = st.just(0j) | st.builds(_component, _EXPONENTS, st.floats(0, 2 * math.pi))
OPERATOR_MODELS = st.one_of(
    st.tuples(st.sampled_from(FLIP_KINDS), st.just(())),
    st.tuples(st.just("rotation"), st.tuples(st.sampled_from(ROTATION_AXES), st.floats(0, 1e300))),
    st.tuples(st.just("general_unitary"), st.tuples(_PARTS, _PARTS)),
)


def ket(bits: str) -> StateVector:
    """|bits>, qubit 0 the leftmost bit: a register with one amplitude 1."""
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(len(bits), amps)


class TestGeneralUnitary:
    def test_phase_flip_case(self):
        """(e1, e2) = (1, 0) reduces to the phase flip diag(1, -1)."""
        u = build_general_unitary(GeneralErrorParams(1, 0))
        np.testing.assert_array_equal(u, [[1, 0], [0, -1]])

    def test_bit_flip_case(self):
        u = build_general_unitary(GeneralErrorParams(0, 1))
        np.testing.assert_array_equal(u, [[0, 1], [1, 0]])

    def test_hadamard_case(self):
        u = build_general_unitary(GeneralErrorParams(1, 1))
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(u, [[s, s], [s, -s]], atol=1e-15)

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(OPERATOR_MODELS)
    def test_always_unitary(self, build):
        """Every operator ``_operator_for`` can return is unitary to 1e-12,
        since no kernel checks it again: the flips, each rotation axis at
        any finite angle, and every general pair whose weight
        |e1|^2 + |e2|^2 is a finite normal float.  A pair of any other
        weight, a subnormal one included, is refused where it is built."""
        kind, args = build
        if kind == "general_unitary":
            try:
                weight = abs(args[0]) ** 2 + abs(args[1]) ** 2
            except OverflowError:
                weight = math.inf
            if not sys.float_info.min <= weight < math.inf:
                with pytest.raises(ValueError, match="to normalize"):
                    GeneralErrorParams(*args)
                return
            model = ErrorModel(kind, GeneralErrorParams(*args))
        else:
            model = ErrorModel(kind, RotationErrorParams(*args) if args else None)
        u = _operator_for(model)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize(
        "e1,e2,weight",
        [(0, 0, "0.0"), (math.nan, 0, "nan"), (math.inf, 0, "inf"), (1e155, 0, "inf"),
         (1e-160, 0, "1e-320"), (1e-155, 1e-155j, "2e-310"),
         (10**200, 0, "inf"), (-(10**200), 0, "inf"), (complex(1e200, 0), 0, "inf")],
        ids=["double_zero", "nan", "inf", "overflow", "subnormal", "subnormal_pair",
             "huge_int", "huge_negative_int", "huge_complex"],
    )
    def test_rejects_a_pair_that_cannot_normalize(self, e1, e2, weight):
        """Every refused pair raises ValueError, an int too large for a
        float included."""
        with pytest.raises(ValueError, match=f"to normalize, got {weight}$"):
            GeneralErrorParams(e1, e2)


class TestRotationUnitary:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(
            rotation_unitary(RotationErrorParams("y", 0.0)), np.eye(2)
        )

    def test_y_half_turn(self):
        u = rotation_unitary(RotationErrorParams("y", math.pi))
        np.testing.assert_allclose(u, [[0, -1], [1, 0]], atol=1e-15)

    def test_z_rotation_is_diagonal_phases(self):
        theta = 0.83
        u = rotation_unitary(RotationErrorParams("z", theta))
        expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_x_rotation(self):
        theta = 1.3
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        u = rotation_unitary(RotationErrorParams("x", theta))
        np.testing.assert_allclose(u, [[c, -1j * s], [-1j * s, c]], atol=1e-15)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            RotationErrorParams("w", 0.1)

    def test_rejects_non_finite_angle(self):
        for theta in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                RotationErrorParams("y", theta)


class TestPauliUnitary:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("bit_flip", (0.6, 0.8)),
            ("phase_flip", (0.8, -0.6)),
            ("bit_and_phase_flip", (-0.6, 0.8)),
        ],
    )
    def test_flip_actions_on_amplitude_pair(self, kind, expected):
        """The three flips send (a,b) to (b,a), (a,-b), and (-b,a)."""
        out = pauli_unitary(kind) @ np.array([0.8, 0.6])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown flip kind"):
            pauli_unitary("melt")


class TestDecoherenceProb:
    def test_full_rate_at_time_zero(self):
        assert decoherence_prob(DecayModel(1.0, 0.0)) == 0.0

    def test_half_rate_at_time_zero(self):
        """p(t=0) = 1 - lam, a nonzero instantaneous value for lam < 1."""
        assert decoherence_prob(DecayModel(0.5, 0.0)) == 0.5

    def test_limit_is_one(self):
        assert decoherence_prob(DecayModel(1.0, 60.0)) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_time(self):
        for lam in (0.05, 0.3, 0.7, 1.0):
            grid = np.linspace(0.0, 30.0, 400)
            values = [decoherence_prob(DecayModel(lam, t)) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("lam", [0.0, -0.2, 1.5, math.nan])
    def test_rejects_rate_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match="rate"):
            DecayModel(lam, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            DecayModel(0.5, -1.0)


class TestPatternProbabilities:
    def test_three_cells_one_error(self):
        assert bose_einstein_pattern_prob(3, 1) == Fraction(1, 3)

    def test_no_errors_single_pattern(self):
        for n_cells in range(1, 8):
            assert bose_einstein_pattern_prob(n_cells, 0) == 1

    def test_two_cells_two_errors_by_enumeration(self):
        """Oracle: explicitly enumerate the multisets of size 2 from 2 cells."""
        patterns = set(combinations_with_replacement(range(2), 2))
        assert patterns == {(0, 0), (0, 1), (1, 1)}
        assert bose_einstein_pattern_prob(2, 2) == Fraction(1, len(patterns))

    def test_bose_matches_enumeration_generally(self):
        for n_cells in range(1, 6):
            for n_errors in range(0, 4):
                count = sum(
                    1 for _ in combinations_with_replacement(range(n_cells), n_errors)
                )
                assert bose_einstein_pattern_prob(n_cells, n_errors) == Fraction(1, count)

    def test_fermi_examples(self):
        assert fermi_pattern_prob(3, 1) == Fraction(1, 3)
        assert fermi_pattern_prob(4, 2) == Fraction(1, 6)
        for n in range(1, 7):
            assert fermi_pattern_prob(n, n) == 1

    def test_fermi_rejects_exclusion_violation(self):
        with pytest.raises(ValueError, match="0 <= n <= N"):
            fermi_pattern_prob(3, 4)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError, match="cell"):
            bose_einstein_pattern_prob(0, 1)

    def test_results_are_exact_rationals(self):
        assert isinstance(bose_einstein_pattern_prob(14, 3), Fraction)
        assert isinstance(fermi_pattern_prob(14, 3), Fraction)

    # Half-filled fermi registers and full bosonic ones, with the (N, n) of
    # each and its pattern count, around the first count of 4,301 digits.
    BOUNDARY = {
        "fermi": (
            fermi_pattern_prob,
            [(N, N // 2, math.comb(N, N // 2)) for N in range(14_270, 14_300)],
        ),
        "bose_einstein": (
            bose_einstein_pattern_prob,
            [(N, N, math.comb(2 * N - 1, N)) for N in range(7_125, 7_155)],
        ),
    }

    @pytest.mark.parametrize("statistics", BOUNDARY)
    def test_a_count_is_refused_exactly_past_4300_digits(self, statistics):
        prob, cases = self.BOUNDARY[statistics]
        refused = 0
        for n_cells, n_errors, count in cases:
            if count >= 10**4300:
                refused += 1
                message = f"^the pattern count for N={n_cells}, n={n_errors} has over 4300 digits$"
                with pytest.raises(ValueError, match=message):
                    prob(n_cells, n_errors)
            else:
                assert prob(n_cells, n_errors) == Fraction(1, count)
        assert 0 < refused < 30


class TestSamplePlacement:
    def test_occupancy_sums_to_error_count(self):
        rng = np.random.default_rng(1)
        for statistics in ("bose_einstein", "fermi"):
            for n_errors in range(0, 4):
                (occupancy,) = drawn_patterns(Placement(statistics, n_errors=n_errors), 5, rng, 1)
                assert occupancy.sum() == n_errors
                assert len(occupancy) == 5

    def test_fermi_occupancies_are_binary(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            assert drawn_patterns(Placement.fermi(3), 6, rng, 1).max() <= 1

    def test_zero_errors_gives_zero_vector(self):
        rng = np.random.default_rng(3)
        for statistics in ("bose_einstein", "fermi"):
            assert drawn_patterns(Placement(statistics), 4, rng, 1).sum() == 0

    def test_zero_error_draw_is_drawless(self):
        """No error draws no word, so a generator is left untouched and none
        is needed, even from the one-cell ``bose_einstein:0`` pool of 0 slots."""
        for placement in (Placement.bose_einstein(0), Placement.fermi(0)):
            for n in (1, 7):
                rng = np.random.default_rng(0)
                state = rng.bit_generator.state
                for generator in (rng, None):
                    rows = drawn_patterns(placement, n, generator, 3)
                    assert rows.dtype == np.int64 and rows.shape == (3, n) and not rows.any()
                assert rng.bit_generator.state == state
        assert drawn_patterns(Placement.bose_einstein(0), 1, None, 1).tolist() == [[0]]

    @pytest.mark.parametrize(
        "placement",
        [ALL_QUBITS, Placement.fixed([0, 3]), Placement.fixed([1, 1])],
        ids=["all_qubits", "fixed:0,3", "fixed:1,1"],
    )
    def test_placement_without_a_draw_repeats_its_occupancy(self, placement):
        """A fixed or all-qubit placement repeats its one occupancy in every
        row, int64, with no generator or without moving the one it gets."""
        for n in (7, 9):
            expected = np.bincount(placement.qubits, minlength=n) if placement.qubits else np.ones(n)
            for count in (1, 5):
                rng = np.random.default_rng(11)
                state = rng.bit_generator.state
                for generator in (None, rng):
                    rows = drawn_patterns(placement, n, generator, count)
                    assert rows.dtype == np.int64 and rows.shape == (count, n)
                    assert (rows == expected).all()
                assert rng.bit_generator.state == state

    def test_successive_draws_are_the_scalar_stream(self):
        """200 successive draws on one generator are the scalar Floyd's
        (``floyd_oracle``), row for row, and leave the generator where it
        does, for N <= 9 cells and n <= 4 errors under both statistics."""
        for n_cells in range(1, 10):
            for n_errors in range(0, 5):
                for statistics in ("bose_einstein", "fermi"):
                    if statistics == "fermi" and n_errors > n_cells:
                        continue
                    placement = Placement(statistics, n_errors=n_errors)
                    for seed in range(3):
                        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                        for _ in range(200):
                            (drawn,) = drawn_patterns(placement, n_cells, rng, 1)
                            expected = scalar_placement(n_cells, n_errors, statistics, reference)
                            assert drawn.dtype == np.int64
                            assert drawn.tobytes() == expected.tobytes()
                        assert rng.bit_generator.state == reference.bit_generator.state

    def test_bose_three_cells_one_error_frequencies(self):
        """Each of the 3 patterns lands with frequency 1/3 +/- 0.01 at 1e5."""
        rng = np.random.default_rng(2024)
        rows = drawn_patterns(Placement.bose_einstein(1), 3, rng, 100_000)
        counts = Counter(rows.argmax(axis=1).tolist())
        for cell in range(3):
            assert abs(counts[cell] / 100_000 - 1 / 3) < 0.01

    def test_fermi_four_cells_two_errors_frequencies(self):
        """Each of the 6 subsets lands with frequency 1/6 +/- 0.01 at 1e5."""
        rng = np.random.default_rng(2025)
        counts = Counter(map(tuple, drawn_patterns(Placement.fermi(2), 4, rng, 100_000).tolist()))
        assert len(counts) == 6
        for frequency in counts.values():
            assert abs(frequency / 100_000 - 1 / 6) < 0.01

    def test_fermi_rejects_overfull(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n <= N"):
            drawn_patterns(Placement.fermi(4), 3, rng, 1)


class TestErrorModelValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            ErrorModel("gamma_ray")

    def test_rejects_missing_params(self):
        with pytest.raises(ValueError, match="needs RotationErrorParams"):
            ErrorModel("rotation")

    def test_rejects_params_on_flips(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            ErrorModel("bit_flip", RotationErrorParams("y", 0.1))

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="placement rule"):
            Placement("everywhere")
        with pytest.raises(ValueError, match=">= 0"):
            Placement("fermi", n_errors=-1)
        with pytest.raises(ValueError, match="use fermi:0"):
            Placement.fixed(())

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(rule="all_qubits", n_errors=3), "all_qubits placement takes no error count"),
            (dict(rule="all_qubits", qubits=(1, 2)), "all_qubits placement takes no qubit list"),
            (dict(rule="fermi", qubits=(1,), n_errors=1), "fermi placement takes no qubit list"),
            (dict(rule="fixed", qubits=(1,), n_errors=1), "fixed placement takes no error count"),
        ],
        ids=["all_qubits-count", "all_qubits-qubits", "fermi-qubits", "fixed-count"],
    )
    def test_placement_refuses_fields_its_rule_ignores(self, fields, message):
        """Each rule takes only the fields it reads, so every placement
        round-trips through its spelling."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            Placement(**fields)


class TestApplyErrorModel:
    def test_zero_rotation_everywhere_is_noop(self):
        rng = np.random.default_rng(0)
        state = ket("010")
        model = ErrorModel("rotation", RotationErrorParams("y", 0.0), ALL_QUBITS)
        out = apply_error_model(state, model, rng)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_fixed_bit_flip_flips_that_bit(self):
        rng = np.random.default_rng(0)
        state = ket("0" * 9)
        model = ErrorModel("bit_flip", placement=Placement.fixed([2]))
        out = apply_error_model(state, model, rng)
        assert np.flatnonzero(out.amps).tolist() == [int("001000000", 2)]

    def test_double_occupancy_cancels_bit_flips(self):
        """Two bosonic bit flips in the same cell undo each other."""
        rng = np.random.default_rng(0)
        state = ket("0")
        model = ErrorModel("bit_flip", placement=Placement.bose_einstein(2))
        out = apply_error_model(state, model, rng)  # one cell: occupancy must be 2
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_fermi_flips_exactly_n_bits(self):
        rng = np.random.default_rng(123)
        for n_errors in range(0, 6):
            state = ket("000000")
            model = ErrorModel("bit_flip", placement=Placement.fermi(n_errors))
            out = apply_error_model(state, model, rng)
            index = int(np.flatnonzero(out.amps)[0])
            assert bin(index).count("1") == n_errors

    def test_rotated_steane_codeword_proliferates(self):
        from qeclab.codes import LogicalQubit, get_code

        rng = np.random.default_rng(0)
        state = get_code("steane7").encoder(LogicalQubit(1.0, 0.0))
        model = ErrorModel("rotation", RotationErrorParams("y", 0.01), ALL_QUBITS)
        out = apply_error_model(state, model, rng)
        assert support_size(out, 1e-12) == 128

    def test_decay_scales_excited_component(self):
        rng = np.random.default_rng(0)
        s = 1 / math.sqrt(2)
        state_amps = np.array([s, s], dtype=complex)
        model = ErrorModel("decay", DecayModel(1.0, 2.0), Placement.fixed([0]))
        out = apply_error_model(StateVector(1, state_amps), model, rng)
        p_t = decoherence_prob(DecayModel(1.0, 2.0))
        expected_ratio = math.sqrt(1.0 - p_t)
        assert abs(out.amps[1] / out.amps[0]) == pytest.approx(expected_ratio, abs=1e-12)
        assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_decay_rejects_stacked_occupancy(self):
        rng = np.random.default_rng(0)
        model = ErrorModel("decay", DecayModel(0.5, 1.0), Placement.fixed([0, 0]))
        with pytest.raises(ValueError, match="stack"):
            apply_error_model(ket("00"), model, rng)

    def test_rejects_out_of_range_fixed_qubit(self):
        rng = np.random.default_rng(0)
        model = ErrorModel("bit_flip", placement=Placement.fixed([5]))
        with pytest.raises(ValueError, match="out of range"):
            apply_error_model(ket("00"), model, rng)

    def test_fermi_placement_error_propagates(self):
        rng = np.random.default_rng(0)
        model = ErrorModel("bit_flip", placement=Placement.fermi(4))
        with pytest.raises(ValueError, match="^fermi placement n=4 exceeds register size N=2$"):
            apply_error_model(ket("00"), model, rng)

    def test_decay_that_can_stack_is_refused_before_it_draws(self):
        """bose_einstein:2 may draw two distinct qubits, but a decay model
        under it is refused up front, as ExperimentConfig refuses it."""

        class NoDraws:
            def integers(self, *args):
                raise AssertionError("drew from the generator")

        model = ErrorModel("decay", DecayModel(0.5, 1.0), Placement.bose_einstein(2))
        with pytest.raises(
            ValueError,
            match="^decay placement must not stack errors on one qubit of the 3-qubit register$",
        ):
            apply_error_model(ket("000"), model, NoDraws())


class TestInjectorSchedule:
    """``_injector`` injects a block of occupancies on one per-qubit
    schedule, each step on the rows it touches, so every row has the bits
    it has injected alone: one row or several, all equal or mixed, with
    repeats of a qubit, under one model for every row or one per row."""

    MODELS = {
        "rotation": [ErrorModel("rotation", RotationErrorParams("x", t)) for t in (0.3, 1.1, 2.5)],
        "general_unitary": [
            ErrorModel("general_unitary", GeneralErrorParams(e1, complex(0.1, e1)))
            for e1 in (0.3, 2.0)
        ],
        "decay": [ErrorModel("decay", DecayModel(0.8, t)) for t in (0.3, 1.1, 2.5)],
    }

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_block_rows_match_each_row_injected_alone(self, kind):
        rng = np.random.default_rng(31)
        models = self.MODELS[kind]
        inject = _injector(*models)
        most = 1 if kind == "decay" else 3  # decay stacks no two errors on a qubit
        for n in (1, 2, 5, 7):
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            for k in (1, 2, 6):
                mixed = rng.integers(0, most + 1, (k, n))
                equal = np.repeat(rng.integers(0, most + 1, (1, n)), k, axis=0)
                per_row = rng.integers(0, len(models), k)
                # k > 1 rows of one qubit sharing an operator do not round as
                # one row alone does; a sweep names each row's operator there.
                shared = [] if n == 1 and k > 1 and kind != "decay" else [len(models) - 1]
                for occupancies in (mixed, equal):
                    for which in (*shared, per_row):
                        block = inject(state, occupancies, which)
                        assert block.shape == (k, 1 << n)
                        for i, row in enumerate(block):
                            model = models[which if isinstance(which, int) else per_row[i]]
                            alone = _injector(model)(state, occupancies[i:i + 1])
                            assert row.tobytes() == alone.tobytes()
