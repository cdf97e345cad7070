"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts.  Criterion 4 is the long
pole: a 10^4-trial Monte Carlo sweep, about a minute of compute.
"""

import math
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from qeclab.cli import main
from qeclab.codes import LogicalQubit, get_code
from qeclab.errors import (
    ALL_QUBITS,
    DecayModel,
    GeneralErrorParams,
    Placement,
    _injector,
    bose_einstein_pattern_prob,
    build_general_unitary,
    decoherence_prob,
    drawn_patterns,
    fermi_pattern_prob,
    resolve_occupancy,
    sample_placement,
)
from qeclab.experiments import (
    ExperimentConfig,
    _kernel,
    model_for,
    proliferation_experiment,
    sweep_theta,
)
from qeclab.statevec import apply_pauli_string

from dense_oracle import apply_product, dense_outcomes

GENERIC_LOGICAL = LogicalQubit(0.6, complex(0.48, 0.64))

STEANE_ZERO_KETS = {
    "0000000", "0001111", "0110011", "0111100",
    "1010101", "1011010", "1100110", "1101001",
}
STEANE_ONE_KETS = {
    "1111111", "1110000", "1001100", "1000011",
    "0101010", "0100101", "0011001", "0010110",
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_codeword_exactness(capsys):
    scale9 = 1.0 / (2.0 * math.sqrt(2.0))
    scale7 = 1.0 / math.sqrt(8.0)
    ok = True

    shor = get_code("shor9")
    for beta, sign_of in ((0.0, lambda k: 1.0), (1.0, lambda k: (-1.0) ** k)):
        state = shor.encoder(LogicalQubit(1.0 - beta, beta))
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-12)
        ok &= len(nonzero) == 8
        for b0, b1, b2 in product((0, 1), repeat=3):
            ket = ("111" if b0 else "000") + ("111" if b1 else "000") + ("111" if b2 else "000")
            expected = scale9 * (sign_of(b0 + b1 + b2) if beta else 1.0)
            ok &= abs(state.amps[int(ket, 2)] - expected) <= 1e-12

    steane = get_code("steane7")
    for logical, kets, parity in (
        (LogicalQubit(1.0, 0.0), STEANE_ZERO_KETS, 0),
        (LogicalQubit(0.0, 1.0), STEANE_ONE_KETS, 1),
    ):
        state = steane.encoder(logical)
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-12)
        ok &= {f"{i:07b}" for i in nonzero} == kets
        ok &= bool(np.all(np.abs(state.amps[nonzero] - scale7) <= 1e-12))
        ok &= all(ket.count("1") % 2 == parity for ket in kets)

    assert main(["encode", "--code", "steane7", "--logical", "1,0"]) == 0
    printed = capsys.readouterr().out.splitlines()
    ok &= printed == [f"|{ket}> 0.3535533906" for ket in sorted(STEANE_ZERO_KETS)]

    with capsys.disabled():
        report("criterion 1 (codeword exactness)", ok)


def test_criterion_2_exhaustive_single_pauli(capsys):
    """Every reachable syndrome outcome of every case, scored by the dense
    oracle."""
    worst = 0.0
    cases = 0
    for name in ("shor9", "steane7"):
        code = get_code(name)
        clean = code.encoder(GENERIC_LOGICAL)
        for qubit in range(code.n_physical):
            for letter in "XYZ":
                error = "".join(
                    letter if i == qubit else "I" for i in range(code.n_physical)
                )
                state = apply_pauli_string(clean, error)
                _, leaves = dense_outcomes(state.amps, name, GENERIC_LOGICAL)
                worst = max(worst, leaves.max())
                cases += 1
    ok = cases == 48 and worst < 1e-9
    with capsys.disabled():
        report(
            "criterion 2 (exhaustive single-Pauli correction)",
            ok,
            f"48 cases, worst infidelity {worst:.2e}",
        )


def test_criterion_3_analog_single_error_discretization(capsys):
    """Every reachable syndrome outcome of every unitary, scored by the
    dense oracle."""
    rng = np.random.default_rng(31337)
    worst = 0.0
    for name in ("shor9", "steane7"):
        code = get_code(name)
        clean = code.encoder(GENERIC_LOGICAL)
        for _ in range(200):
            e = rng.standard_normal(4)
            unitary = build_general_unitary(
                GeneralErrorParams(complex(e[0], e[1]), complex(e[2], e[3]))
            )
            qubit = int(rng.integers(code.n_physical))
            state = apply_product(clean, unitary, [qubit])
            _, leaves = dense_outcomes(state.amps, name, GENERIC_LOGICAL)
            worst = max(worst, leaves.max())
    ok = worst < 1e-9
    with capsys.disabled():
        report(
            "criterion 3 (analog single-error discretization)",
            ok,
            f"400 random unitaries, worst infidelity {worst:.2e}",
        )


@pytest.mark.slow
def test_criterion_4_residual_error_scaling(capsys):
    grid = tuple(np.geomspace(1e-3, 1e-1, 7))
    config = ExperimentConfig(
        code="steane7",
        error_kind="rotation",
        placement=ALL_QUBITS,
        theta_grid=grid,
        trials=10_000,
        seed=0,
    )
    result = sweep_theta(config)
    at_005 = sweep_theta(
        ExperimentConfig(
            code="steane7",
            error_kind="rotation",
            placement=ALL_QUBITS,
            theta_grid=(0.05,),
            trials=10_000,
            seed=0,
        )
    ).rows[0]
    slope_ok = abs(result.slope_uncoded - 2.0) <= 0.3 and abs(result.slope_coded - 4.0) <= 0.3
    residual_ok = at_005.mean_infid_coded > 1e-8
    helps_ok = at_005.mean_infid_coded < at_005.mean_infid_uncoded
    ok = slope_ok and residual_ok and helps_ok
    with capsys.disabled():
        report(
            "criterion 4 (residual-error scaling)",
            ok,
            f"slope_coded={result.slope_coded:.3f}, "
            f"slope_uncoded={result.slope_uncoded:.3f}, "
            f"coded infidelity at theta=0.05: {at_005.mean_infid_coded:.3e}",
        )


def test_criterion_5_component_proliferation(capsys):
    steane = proliferation_experiment("steane7", 0.01)
    shor = proliferation_experiment("shor9", 0.01)
    ok = steane == (8, 128) and shor == (8, 512)
    with capsys.disabled():
        report(
            "criterion 5 (component proliferation)",
            ok,
            f"steane7 {steane}, shor9 {shor}",
        )


def test_criterion_6_occupancy_statistics(capsys):
    samples = 100_000
    rng = np.random.default_rng(606)
    ok = bose_einstein_pattern_prob(3, 1) == Fraction(1, 3)
    worst_pull = 0.0
    for n_cells in range(1, 6):
        for n_errors in range(0, 4):
            for statistics in ("bose_einstein", "fermi"):
                if statistics == "fermi" and n_errors > n_cells:
                    continue
                if statistics == "fermi":
                    patterns = [
                        tuple(1 if c in chosen else 0 for c in range(n_cells))
                        for chosen in combinations(range(n_cells), n_errors)
                    ]
                    probability = float(fermi_pattern_prob(n_cells, n_errors))
                else:
                    patterns = sorted(
                        {
                            tuple(multiset.count(c) for c in range(n_cells))
                            for multiset in combinations_with_replacement(
                                range(n_cells), n_errors
                            )
                        }
                    )
                    probability = float(bose_einstein_pattern_prob(n_cells, n_errors))
                placement = Placement(statistics, n_errors=n_errors)
                drawn = drawn_patterns(placement, n_cells, rng, samples)
                counts = Counter(map(tuple, drawn.tolist()))
                sigma = math.sqrt(samples * probability * (1.0 - probability))
                for pattern in patterns:
                    pull = abs(counts[pattern] - samples * probability)
                    if sigma > 0.0:
                        worst_pull = max(worst_pull, pull / sigma)
                        ok &= pull <= 3.0 * sigma
                    else:
                        ok &= pull == 0.0
                ok &= sum(counts.values()) == samples
                ok &= set(counts) <= set(patterns)
    with capsys.disabled():
        report(
            "criterion 6 (occupancy statistics)",
            ok,
            f"all N<=5, n<=3 at 1e5 samples, worst pull {worst_pull:.2f} sigma",
        )


class ScriptedRng:
    """Stands in for a Generator: ``integers(0, highs, size=(1, k))`` draws
    one entry per bound h of ``highs``, in order, replaying ``path`` and
    drawing 0 past its end, and records every bound it is asked for."""

    def __init__(self, path):
        self.path, self.bounds = path, []

    def integers(self, low, highs, size):
        assert low == 0 and size == (1, len(highs))
        draws = []
        for high in highs.tolist():
            draw = len(self.bounds)
            self.bounds.append(high)
            draws.append(self.path[draw] if draw < len(self.path) else 0)
        return np.array([draws], dtype=np.int64)


def sampler_paths(n_cells, n_errors, statistics):
    """Every path of draws ``sample_placement`` can take, depth first, as
    its occupancy and its exact probability, the product of 1/h over its
    draws."""
    path = []
    while True:
        rng = ScriptedRng(path)
        occupancy = tuple(sample_placement(n_cells, n_errors, statistics, rng).tolist())
        path = path + [0] * (len(rng.bounds) - len(path))
        probability = Fraction(1)
        for high in rng.bounds:
            probability /= high
        yield occupancy, probability
        # Advance the last draw that has an outcome left; the draws after
        # it restart at 0, under the bounds the new prefix asks for.
        while path and path[-1] + 1 == rng.bounds[len(path) - 1]:
            path.pop()
        if not path:
            return
        path[-1] += 1


def test_criterion_6_sampler_is_exact(capsys):
    """Criterion 6 without sampling error: every path of draws, weighted
    exactly, sums per occupancy to the pattern probability, and the paths
    reach every pattern."""
    ok, paths = True, 0
    for n_cells in range(1, 6):
        for n_errors in range(0, 4):
            for statistics, probability, patterns in (
                ("bose_einstein", bose_einstein_pattern_prob,
                 math.comb(n_cells + n_errors - 1, n_errors)),
                ("fermi", fermi_pattern_prob, math.comb(n_cells, n_errors)),
            ):
                if statistics == "fermi" and n_errors > n_cells:
                    continue
                totals = defaultdict(Fraction)
                for occupancy, weight in sampler_paths(n_cells, n_errors, statistics):
                    paths += 1
                    totals[occupancy] += weight
                    ok &= len(occupancy) == n_cells and sum(occupancy) == n_errors
                    ok &= statistics == "bose_einstein" or max(occupancy, default=0) <= 1
                ok &= len(totals) == patterns
                ok &= set(totals.values()) == {probability(n_cells, n_errors)}
    with capsys.disabled():
        report(
            "criterion 6, exact (every path of the sampler)",
            ok,
            f"all N<=5, n<=3, {paths} paths",
        )


def test_criterion_7_decay_model(capsys):
    ok = True
    for lam in np.linspace(0.1, 1.0, 10):
        lam = float(lam)
        ok &= decoherence_prob(DecayModel(lam, 0.0)) == pytest.approx(1.0 - lam, abs=1e-15)
        times = np.linspace(0.0, 50.0, 500)
        values = [decoherence_prob(DecayModel(lam, float(t))) for t in times]
        ok &= all(b >= a for a, b in zip(values, values[1:]))
        ok &= decoherence_prob(DecayModel(lam, 1e6)) > 1.0 - 1e-9
    with capsys.disabled():
        report("criterion 7 (decay model)", ok)


def test_criterion_8_determinism(capsys, tmp_path):
    config_path = tmp_path / "sweep.txt"
    config_path.write_text(
        "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
        "theta.list = 0.02,0.06\ntrials = 150\nseed = 9\n"
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(first)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()

    enc1, enc2 = tmp_path / "e1.txt", tmp_path / "e2.txt"
    assert main(["encode", "--code", "shor9", "--out", str(enc1)]) == 0
    assert main(["encode", "--code", "shor9", "--out", str(enc2)]) == 0
    ok &= enc1.read_bytes() == enc2.read_bytes()

    # Schedule independence: scrambled concurrent trials rebuild the same rows.
    config = ExperimentConfig(
        code="steane7",
        error_kind="rotation",
        placement=ALL_QUBITS,
        theta_grid=(0.02, 0.06),
        trials=150,
        seed=9,
    )
    serial = sweep_theta(config)
    code = get_code(config.code)
    encoded = code.encoder(config.logical)

    def coded_trial(job):
        grid_index, _ = job
        inject = _injector(model_for(config, config.theta_grid[grid_index]))
        occupancy = resolve_occupancy(config.placement, code.n_physical, None)  # draws nothing
        (infid,), _, _ = _kernel(inject, encoded, code._syndromes, config.logical, occupancy[None])
        return grid_index, infid

    jobs = [(g, t) for g in range(2) for t in range(config.trials)][::-1]
    with ThreadPoolExecutor(max_workers=8) as pool:
        shuffled = list(pool.map(coded_trial, jobs))
    for grid_index in range(2):
        mean = float(np.mean([v for g, v in shuffled if g == grid_index]))
        ok &= math.isclose(
            mean, serial.rows[grid_index].mean_infid_coded, rel_tol=0.0, abs_tol=1e-15
        )

    with capsys.disabled():
        report("criterion 8 (byte-identical deterministic artifacts)", ok)
