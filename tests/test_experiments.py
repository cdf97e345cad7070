"""Tests for the Monte Carlo harness and its deterministic contracts."""

import dataclasses
import json
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeclab.codes
import qeclab.errors
import qeclab.experiments
import qeclab.statevec
from qeclab.cli import format_float
from qeclab.codes import (
    CODE_NAMES,
    LogicalQubit,
    _draw_syndrome,
    _layout,
    _overlaps,
    _reach,
    get_code,
)
from qeclab.errors import (
    ALL_QUBITS,
    FLIP_KINDS,
    DecayModel,
    ErrorModel,
    GeneralErrorParams,
    Placement,
    RotationErrorParams,
    _injector,
    apply_error_model,
    check_placement,
    drawn_patterns,
    every_pattern,
    pattern_count,
    resolve_occupancy,
)
from qeclab.experiments import (
    SUPPORT_THRESHOLD,
    ConfigError,
    ExperimentConfig,
    NUMERICAL_FLOOR,
    SweepRow,
    _DRAW_TRIALS,
    _bare_qubit_placement,
    _kernel,
    _moments,
    fit_power_law,
    model_for,
    proliferation_experiment,
    sensitivity_experiment,
    sweep_theta,
)
from qeclab.statevec import _scatter, support_mask, support_size

from dense_oracle import (
    code_spec,
    dense_branches,
    dense_inject,
    dense_outcomes,
    dense_overlaps,
    reached_rows,
)
from floyd_oracle import scalar_placement


def rotation_config(**overrides) -> ExperimentConfig:
    fields = dict(
        code="steane7",
        error_kind="rotation",
        placement=ALL_QUBITS,
        theta_grid=(0.05,),
        trials=50,
        seed=0,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


GENERIC = LogicalQubit(0.6, complex(0.48, 0.64))


def csv_values(row: SweepRow) -> str:
    """A sweep row as its CSV line."""
    return ",".join(map(format_float, vars(row).values()))


def dense_moments(amps, name, logical):
    weights, leaves = dense_outcomes(amps, name, logical)
    mean = weights @ leaves
    return mean, weights @ (leaves - mean) ** 2


def assert_draws_nothing(placement, n_qubits):
    """Resolving ``placement`` on ``n_qubits`` leaves a generator untouched."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    resolve_occupancy(placement, n_qubits, rng)
    assert rng.bit_generator.state == state


def pattern_occupancies(placement, n):
    """Every occupancy pattern a bose_einstein or fermi ``placement`` can
    take on ``n`` qubits, each once."""
    choose = combinations if placement.rule == "fermi" else combinations_with_replacement
    return [np.bincount(cells, minlength=n) for cells in choose(range(n), placement.n_errors)]


def grid_rng(seed, grid_index):
    """The generator grid point ``grid_index`` of a sweep seeded ``seed`` draws from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(grid_index,)))


def sweep_occupancies(config, grid_index):
    """The occupancies ``sweep_theta(config)`` averages at ``grid_index``,
    rebuilt from ``errors`` alone: a drawless placement's one occupancy;
    every pattern once where the trial budget covers them all; else the
    ``trials`` occupancies that successive ``resolve_occupancy`` calls
    draw from the grid point's generator."""
    placement, n = config.placement, get_code(config.code).n_physical
    if not placement.n_errors:
        assert_draws_nothing(placement, n)
        return [resolve_occupancy(placement, n, None)]
    patterns = pattern_occupancies(placement, n)
    if len(patterns) <= config.trials:
        return patterns
    rng = grid_rng(config.seed, grid_index)
    return [resolve_occupancy(placement, n, rng) for _ in range(config.trials)]


def placed(occupancy):
    """The fixed placement that puts ``occupancy``'s errors where it does."""
    qubits = np.repeat(np.arange(len(occupancy)), occupancy)
    return Placement.fixed(qubits) if len(qubits) else Placement.fermi(0)


def dense_oracle_rows(config):
    """The sweep's rows from the dense oracle.  Each occupancy the sweep
    averages (``sweep_occupancies``) is injected by ``apply_error_model``
    as a fixed placement; a row's std is the population std of one
    occupancy's infidelity over occupancies and syndrome outcomes
    together.  The bare qubit's projected placement draws nothing, so it
    runs once per grid point."""
    bare_config = dataclasses.replace(
        config, code="uncoded", placement=_bare_qubit_placement(config.placement)
    )
    assert_draws_nothing(bare_config.placement, 1)
    outcomes = {}

    def trial(config, theta, occupancy):
        code = get_code(config.code)
        model = dataclasses.replace(model_for(config, theta), placement=placed(occupancy))
        state = apply_error_model(code.encoder(config.logical), model, None)
        key = (config.code, state.amps.tobytes())
        if key not in outcomes:
            outcomes[key] = dense_outcomes(state.amps, config.code, config.logical)
        return outcomes[key], support_size(state, SUPPORT_THRESHOLD)

    rows = []
    for grid_index, theta in enumerate(config.theta_grid):
        coded, supports = zip(*(
            trial(config, theta, occupancy) for occupancy in sweep_occupancies(config, grid_index)
        ))
        mean = np.mean([weights @ leaves for weights, leaves in coded])
        variance = np.mean([weights @ (leaves - mean) ** 2 for weights, leaves in coded])
        bare_occupancy = resolve_occupancy(bare_config.placement, 1, None)
        (weights, leaves), _ = trial(bare_config, theta, bare_occupancy)
        bare = float(weights @ leaves)
        rows.append(SweepRow(theta, mean, math.sqrt(variance), bare, 0.0, np.mean(supports)))
    return tuple(rows)


def assert_rows_match(rows, expected):
    """Theta and support exactly, the infidelity columns to rounding."""
    assert [(r.theta, r.mean_support, r.std_uncoded) for r in rows] == [
        (r.theta, r.mean_support, r.std_uncoded) for r in expected
    ]
    np.testing.assert_allclose(
        [(r.mean_infid_coded, r.std_coded, r.mean_infid_uncoded) for r in rows],
        [(r.mean_infid_coded, r.std_coded, r.mean_infid_uncoded) for r in expected],
        rtol=1e-9, atol=1e-14,
    )


class TestExperimentConfig:
    def test_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="unknown code"):
            rotation_config(code="shor8")

    def test_rejects_unknown_error_kind(self):
        with pytest.raises(ValueError, match="error kind"):
            rotation_config(error_kind="cosmic")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            rotation_config(theta_grid=())

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            rotation_config(theta_grid=(0.1, 0.05))

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError, match="finite"):
            rotation_config(theta_grid=(-0.1, 0.05))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            rotation_config(trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            rotation_config(seed=-1)

    def test_general_unitary_needs_params(self):
        with pytest.raises(ValueError, match="e1/e2"):
            rotation_config(error_kind="general_unitary")

    @pytest.mark.parametrize(
        "placement", [Placement.fixed([1, 1]), Placement.bose_einstein(2)]
    )
    def test_decay_rejects_placements_that_stack(self, placement):
        with pytest.raises(ValueError, match="must not stack errors"):
            rotation_config(error_kind="decay", placement=placement)

    @pytest.mark.parametrize(
        "code,placement,message",
        [
            ("steane7", Placement.fixed([9]), "fixed placement qubit 9 out of range for 7 qubits"),
            ("steane7", Placement.fixed([0, -1]), "fixed placement qubit -1 out of range"),
            ("steane7", Placement.fermi(8), "fermi placement n=8 exceeds register size N=7"),
            ("uncoded", Placement.fermi(2), "fermi placement n=2 exceeds register size N=1"),
        ],
    )
    def test_rejects_placements_that_do_not_fit(self, code, placement, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rotation_config(code=code, placement=placement)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(code="shor8"), "code"),
            (dict(error_kind="cosmic"), "error_kind"),
            (dict(axis="w"), "axis"),
            (dict(error_kind="bit_flip", axis="x"), "axis"),
            (dict(general=GeneralErrorParams(1.0, 0.0)), "general"),
            (dict(error_kind="general_unitary"), "general"),
            (dict(decay_rate=0.25), "decay_rate"),
            (dict(error_kind="decay", decay_rate=0.0), "decay_rate"),
            (dict(trials=0), "trials"),
            (dict(seed=-1), "seed"),
            (dict(theta_grid=()), "theta_grid"),
            (dict(placement=Placement.fermi(8)), "placement"),
        ],
    )
    def test_refusal_names_its_field(self, overrides, field):
        with pytest.raises(qeclab.experiments.ConfigError) as refused:
            rotation_config(**overrides)
        assert refused.value.field == field

    def test_a_bose_count_too_large_to_draw_is_refused_before_any_work(self):
        """A trial's draw takes a byte per Floyd slot, n_errors + n - 1 of
        them, and a sweep draws at least one trial at a time under
        ``_BLOCK_BYTES``; a count past that is refused as its placement."""
        budget = qeclab.experiments._BLOCK_BYTES
        for code in CODE_NAMES:
            n = get_code(code).n_physical
            largest = budget - n
            rotation_config(code=code, placement=Placement.bose_einstein(largest))
            for count in (largest + 1, 10**9):
                with pytest.raises(ConfigError, match="placement needs") as refused:
                    rotation_config(code=code, placement=Placement.bose_einstein(count))
                assert refused.value.field == "placement"

    def test_placements_that_fit_are_accepted(self):
        for placement in (Placement.fixed([6, 0]), Placement.fermi(7), Placement.bose_einstein(9)):
            rotation_config(placement=placement)
        rotation_config(code="uncoded", placement=Placement.fermi(1))

    @pytest.mark.parametrize(
        "kind,fields,message",
        [
            ("bit_flip", dict(axis="x"), "axis only applies to rotation errors"),
            ("decay", dict(axis="z"), "axis only applies to rotation errors"),
            ("rotation", dict(general=GeneralErrorParams(1, 0)), "only apply to general_unitary"),
            ("decay", dict(general=GeneralErrorParams(1, 0)), "only apply to general_unitary"),
            ("bit_flip", dict(decay_rate=0.3), "decay_rate only applies to decay errors"),
            ("general_unitary", dict(general=GeneralErrorParams(1, 0), decay_rate=0.3),
             "decay_rate only applies to decay errors"),
            ("decay", dict(decay_rate=2.0), r"decay rate must lie in \(0, 1\], got 2.0"),
            ("decay", dict(decay_rate=0.0), r"decay rate must lie in \(0, 1\]"),
            ("decay", dict(decay_rate=math.nan), r"decay rate must lie in \(0, 1\]"),
        ],
    )
    def test_rejects_fields_the_kind_ignores(self, kind, fields, message):
        """A config holds only what its error kind runs, so it round-trips
        through emit_config."""
        with pytest.raises(ValueError, match=message):
            rotation_config(error_kind=kind, **fields)

    def test_model_for_flavors(self):
        rot = model_for(rotation_config(), 0.3)
        assert rot.kind == "rotation" and rot.params.theta == 0.3
        decay = model_for(rotation_config(error_kind="decay", decay_rate=0.7), 2.0)
        assert decay.params.lam == 0.7 and decay.params.t == 2.0
        gen = model_for(
            rotation_config(
                error_kind="general_unitary", general=GeneralErrorParams(1, 1)
            ),
            0.3,
        )
        assert gen.params == GeneralErrorParams(1, 1)
        flip = model_for(rotation_config(error_kind="bit_flip"), 0.3)
        assert flip.params is None


class TestCorrectedRows:
    """What correction guarantees one trial, read off the rows of sweeps."""

    def test_no_error_is_perfect(self):
        """theta = 0 gives infidelity exactly 0 and the 8-ket support."""
        (row,) = sweep_theta(rotation_config(code="shor9", theta_grid=(0.0,), trials=1)).rows
        assert row.mean_infid_coded == 0.0
        assert row.mean_support == 8

    def test_single_qubit_rotation_is_fully_corrected(self):
        """Any rotation confined to one qubit is discretized and recovered."""
        for qubit in (0, 4, 8):
            config = rotation_config(
                code="shor9", placement=Placement.fixed([qubit]), theta_grid=(0.05, 0.7, 2.0)
            )
            for row in sweep_theta(config).rows:
                assert row.mean_infid_coded < 1e-9

    def test_steane_single_bit_flip_always_corrected(self):
        """Distance-3 Hamming correction, exhaustively over the 7 positions,
        and on every one of 25 sampled single flips."""
        for qubit in range(7):
            config = rotation_config(
                error_kind="bit_flip", placement=Placement.fixed([qubit]), theta_grid=(0.0,)
            )
            (row,) = sweep_theta(config).rows
            assert row.mean_infid_coded < 1e-9
        sampled = rotation_config(
            error_kind="bit_flip", placement=Placement.fermi(1), theta_grid=(0.0,), trials=25
        )
        (row,) = sweep_theta(sampled).rows
        assert row.mean_infid_coded == 0.0

    def test_infidelity_floor_eats_rounding_residue(self):
        (row,) = sweep_theta(rotation_config(theta_grid=(0.0,))).rows
        assert row.mean_infid_coded == 0.0


class TestPlacementSums:
    """A placement that draws is summed over every pattern where the trial
    budget covers them, and otherwise drawn from one generator per grid
    point, as successive ``resolve_occupancy`` calls draw."""

    # fermi n = N starts Floyd's draws at a bound of 0, which takes no word.
    PLACEMENTS = [(Placement.fermi(k), n) for n in range(1, 10) for k in range(1, n + 1)] + [
        (Placement.bose_einstein(k), n) for n in (1, 2, 7, 9) for k in (1, 2, 3, 9)
    ]

    @staticmethod
    def pool(placement, n):
        return n + placement.n_errors - 1 if placement.rule == "bose_einstein" else n

    @pytest.mark.parametrize(
        "chunks", [(100,), (1,) * 7, (156, 3, 57)], ids=["100", "1x7", "156-3-57"]
    )
    def test_chunked_array_draw_is_sequential_resolve_occupancy(self, chunks):
        """Each drawn row is the occupancy the next scalar Floyd draw
        (``floyd_oracle``) on the same generator draws, byte for byte,
        across chunk boundaries, and the generator ends where those draws
        leave it; no error draws nothing, even from the one-cell
        ``bose_einstein:0`` pool of 0 slots."""
        drawless = [(Placement.bose_einstein(0), 1), (Placement.fermi(0), 1), (Placement.fermi(0), 7)]
        for placement, n in self.PLACEMENTS + drawless:
            rng, reference = grid_rng(7, 3), grid_rng(7, 3)
            rows = np.concatenate([drawn_patterns(placement, n, rng, count) for count in chunks])
            expected = [
                scalar_placement(n, placement.n_errors, placement.rule, reference)
                for _ in range(sum(chunks))
            ]
            assert rows.dtype == np.int64 and rows.shape == (sum(chunks), n)
            assert [row.tobytes() for row in rows] == [row.tobytes() for row in expected]
            assert rng.bit_generator.state == reference.bit_generator.state, (placement, n)

    @pytest.mark.parametrize("step", [1, 5, _DRAW_TRIALS])
    def test_enumeration_yields_every_pattern_once(self, step):
        """``every_pattern`` gives C distinct rows, each a pattern the
        placement can take, whatever the chunk size."""
        for placement, n in self.PLACEMENTS:
            k = placement.n_errors
            rows = np.concatenate(list(every_pattern(placement, n, step)))
            count = math.comb(self.pool(placement, n), k)
            assert count == len(pattern_occupancies(placement, n))
            assert rows.shape == (count, n)
            assert len({row.tobytes() for row in rows}) == count
            assert (rows.sum(axis=1) == k).all() and (rows >= 0).all()
            if placement.rule == "fermi":
                assert rows.max() <= 1

    @pytest.mark.parametrize("step", [1, 5, _DRAW_TRIALS])
    def test_the_count_is_the_enumeration(self, step):
        """For every rule, drawless ones included, ``pattern_count`` is the
        number of rows ``every_pattern`` yields: distinct rows, each holding
        the placement's errors and each a fixed placement that fits."""
        placements = self.PLACEMENTS + [
            (ALL_QUBITS, 7), (Placement.fixed([0, 3]), 7), (Placement.fixed([1, 1]), 7),
            (Placement.fermi(0), 7), (Placement.bose_einstein(0), 9),
        ]
        for placement, n in placements:
            errors = {"all_qubits": n, "fixed": len(placement.qubits)}.get(
                placement.rule, placement.n_errors
            )
            chunks = list(every_pattern(placement, n, step))
            assert all(1 <= len(chunk) <= step for chunk in chunks)
            rows = np.concatenate(chunks)
            assert pattern_count(placement, n) == len(rows), (placement, n)
            assert len({row.tobytes() for row in rows}) == len(rows)
            assert (rows.sum(axis=1) == errors).all() and (rows >= 0).all()
            for row in rows:
                check_placement(placed(row), n, "rotation", f"{n}-qubit")

    @pytest.mark.parametrize("logical", [LogicalQubit(1.0, 0.0), GENERIC], ids=["zero", "generic"])
    @pytest.mark.parametrize(
        "kind",
        [dict(axis="x"), dict(axis="y"), dict(error_kind="bit_flip"),
         dict(error_kind="general_unitary", general=GeneralErrorParams(0.3, complex(0.1, 0.2))),
         dict(error_kind="decay", decay_rate=0.8)],
        ids=["x", "y", "bit_flip", "general", "decay"],
    )
    @pytest.mark.parametrize(
        "code,placement,fixed",
        [("steane7", Placement.fermi(7), ALL_QUBITS),
         ("shor9", Placement.fermi(9), ALL_QUBITS),
         ("uncoded", Placement.bose_einstein(3), Placement.fixed([0, 0, 0]))],
        ids=["steane7-fermi7", "shor9-fermi9", "uncoded-bose3"],
    )
    def test_one_pattern_is_one_block(self, monkeypatch, code, placement, fixed, kind, logical):
        """A placement with one pattern is the drawless placement of that
        pattern, byte for byte, and takes the drawless path: one kernel
        call per side, no draw, and one pattern asked for per side (the
        exact sum asks for a chunk of patterns, and would also take one
        kernel call).  Decay refuses the stacked bose_einstein:3 with
        fixed:0,0,0's words."""
        fields = dict(code=code, logical=logical, theta_grid=(0.05, 0.3, 1.1), trials=5, seed=3)
        if kind.get("error_kind") == "decay" and code == "uncoded":
            refusals = []
            for refused in (placement, fixed):
                with pytest.raises(ConfigError, match="must not stack errors") as info:
                    rotation_config(placement=refused, **fields, **kind)
                refusals.append((str(info.value), info.value.field))
            assert refusals[0] == refusals[1]
            return
        config = rotation_config(placement=placement, **fields, **kind)
        expected = dataclasses.replace(config, placement=fixed)
        calls = []

        def counting_kernel(*args):
            calls.append("kernel")
            return _kernel(*args)

        def counting_draw(*args):
            calls.append("draw")
            return drawn_patterns(*args)

        def counting_patterns(placement, n_qubits, step):
            for patterns in every_pattern(placement, n_qubits, step):
                calls.append(("patterns", n_qubits, step, len(patterns)))
                yield patterns

        monkeypatch.setattr(qeclab.experiments, "_kernel", counting_kernel)
        monkeypatch.setattr(qeclab.experiments, "drawn_patterns", counting_draw)
        monkeypatch.setattr(qeclab.experiments, "every_pattern", counting_patterns)
        rows = sweep_theta(config).rows
        n = get_code(code).n_physical
        assert calls == [("patterns", n, 1, 1), "kernel", ("patterns", 1, 1, 1), "kernel"]
        assert repr(rows) == repr(sweep_theta(expected).rows)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(code="shor9", placement=Placement.bose_einstein(2)),
            dict(placement=Placement.fermi(2)),
            dict(placement=Placement.fermi(3), axis="x"),
            dict(code="shor9", placement=Placement.fermi(2), error_kind="decay", decay_rate=0.9),
        ],
        ids=["shor9-bose2", "steane7-fermi2", "steane7-fermi3-x", "shor9-decay-fermi2"],
    )
    def test_exact_rows_are_the_pattern_sums(self, overrides):
        """Where the trial budget covers every pattern, a row is the uniform
        sum over the patterns: the dense oracle's to its tolerance, and
        the sum of each pattern's one-row kernel entries, mean and law of
        total variance summed exactly, within 1e-15 relative.  It depends
        on neither the seed nor the trial count."""
        config = rotation_config(
            logical=GENERIC, theta_grid=(0.3, 0.8, 1.1), trials=100, seed=4, **overrides
        )
        rows = sweep_theta(config).rows
        assert_rows_match(rows, dense_oracle_rows(config))
        code = get_code(config.code)
        side = (code.encoder(config.logical), code._syndromes, config.logical)
        inject = _injector(*(model_for(config, theta) for theta in config.theta_grid))
        patterns = pattern_occupancies(config.placement, code.n_physical)
        for grid_index, row in enumerate(rows):
            entries = [
                _kernel(inject, *side, occupancy[None], grid_index) for occupancy in patterns
            ]
            means = [mean for (mean,), _, _ in entries]
            mean = math.fsum(means) / len(patterns)
            variance = math.fsum(
                variance + (m - mean) ** 2 for m, (_, (variance,), _) in zip(means, entries)
            ) / len(patterns)
            support = math.fsum(support for _, _, (support,) in entries) / len(patterns)
            assert row.mean_infid_coded == pytest.approx(mean, rel=1e-15, abs=0.0)
            assert row.std_coded == pytest.approx(math.sqrt(variance), rel=1e-15, abs=0.0)
            assert row.mean_support == support
        for trials, seed in ((len(patterns), 0), (10**6, 99)):
            again = dataclasses.replace(config, trials=trials, seed=seed)
            assert repr(sweep_theta(again).rows) == repr(rows)

    @pytest.mark.parametrize(
        "code,placement",
        [
            ("steane7", Placement.fermi(1)),
            ("steane7", Placement.bose_einstein(2)),
            ("shor9", Placement.fermi(2)),
            ("shor9", Placement.fermi(9)),
        ],
        ids=["steane7-fermi1", "steane7-bose2", "shor9-fermi2", "shor9-fermi9"],
    )
    def test_the_pattern_count_alone_picks_the_path(self, monkeypatch, code, placement):
        """A budget of exactly C trials sums every pattern and draws
        nothing; one trial fewer draws every trial of every grid point.
        Both are the dense oracle's rows.  fermi:n on n qubits has one
        pattern, so no budget draws it."""
        draws = []

        def counting(placement, n_qubits, rng, count):
            draws.append(count)
            return drawn_patterns(placement, n_qubits, rng, count)

        monkeypatch.setattr(qeclab.experiments, "drawn_patterns", counting)
        count = len(pattern_occupancies(placement, get_code(code).n_physical))
        config = rotation_config(
            code=code, placement=placement, logical=GENERIC, theta_grid=(0.3, 1.1),
            trials=count, seed=3,
        )
        assert_rows_match(sweep_theta(config).rows, dense_oracle_rows(config))
        assert draws == []
        if count > 1:
            short = dataclasses.replace(config, trials=count - 1)
            assert_rows_match(sweep_theta(short).rows, dense_oracle_rows(short))
            assert sum(draws) == len(config.theta_grid) * short.trials

    # Seeds across SeedSequence's 32-bit words, and past 64 bits.
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 9, 0x9E3779B97F4A7C15F39CC060]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_rows_are_the_grid_generators_draws(self, seed):
        """Whatever words its seed takes, a sweep with more patterns than
        trials samples each grid point as successive ``resolve_occupancy``
        calls on that grid point's generator: its rows are the dense
        oracle's on exactly those draws, support included, and a rerun is
        byte-identical."""
        config = rotation_config(
            code="shor9", placement=Placement.bose_einstein(3), logical=GENERIC,
            theta_grid=(0.3, 1.1), trials=40, seed=seed,
        )
        assert math.comb(9 + 3 - 1, 3) > config.trials
        rows = sweep_theta(config).rows
        assert_rows_match(rows, dense_oracle_rows(config))
        assert repr(sweep_theta(config).rows) == repr(rows)

    @pytest.mark.parametrize("draw_trials", [1, 4, 50])
    def test_pattern_chunks_sum_as_one(self, monkeypatch, draw_trials):
        """Patterns taken a few at a time, each chunk under every grid
        point's operator, sum to the rows of one chunk, to rounding."""
        config = rotation_config(
            code="shor9", placement=Placement.fermi(3), axis="x", logical=GENERIC,
            theta_grid=(0.05, 0.3, 1.1), trials=100,
        )
        whole = sweep_theta(config).rows
        monkeypatch.setattr(qeclab.experiments, "_DRAW_TRIALS", draw_trials)
        chunked = sweep_theta(config).rows
        assert [r.mean_support for r in chunked] == [r.mean_support for r in whole]
        np.testing.assert_allclose(
            [(r.mean_infid_coded, r.std_coded) for r in chunked],
            [(r.mean_infid_coded, r.std_coded) for r in whole],
            rtol=1e-14, atol=0.0,
        )

    def test_the_benchmark_config_is_its_exact_reference(self):
        """The shor9 bose_einstein:2 benchmark sweep covers its 45 patterns
        at 50 trials, so its coded side is the exact values ``perfbench``
        gates against, std included, from any seed.  (The reference's bare
        side is 1 - F, whose cancellation leaves ~1e-13 at theta = 0.05.)"""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
        reference = json.loads(path.read_text(encoding="utf-8"))["shor9_bose"]
        config = rotation_config(
            code="shor9", placement=Placement.bose_einstein(2), logical=GENERIC,
            theta_grid=(0.05, 0.2, 0.8), trials=50, seed=12345,
        )
        rows = sweep_theta(config).rows
        assert [row.theta for row in rows] == [ref["theta"] for ref in reference]
        for row, ref in zip(rows, reference):
            for value, exact in ((row.mean_infid_coded, ref["coded"]["mean"]),
                                 (row.std_coded, ref["coded"]["std"])):
                assert value == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestSweepTheta:
    def test_same_seed_is_bit_identical(self):
        config = rotation_config(theta_grid=(0.02, 0.08), trials=40, seed=11)
        assert sweep_theta(config) == sweep_theta(config)

    def test_zero_grid_point_gives_zero_rows(self):
        config = rotation_config(theta_grid=(0.0,), trials=30)
        row = sweep_theta(config).rows[0]
        assert (
            row.mean_infid_coded,
            row.std_coded,
            row.mean_infid_uncoded,
            row.std_uncoded,
        ) == (0.0, 0.0, 0.0, 0.0)
        assert row.mean_support == 8.0

    def test_uncoded_baseline_matches_closed_form(self):
        """The bare qubit sees the rotation once: infidelity sin^2(theta/2)."""
        config = rotation_config(theta_grid=(0.3,), trials=20)
        row = sweep_theta(config).rows[0]
        assert row.mean_infid_uncoded == pytest.approx(
            math.sin(0.15) ** 2, abs=1e-12
        )
        assert row.std_uncoded == 0.0

    @pytest.mark.parametrize(
        "placement,angle",
        [
            (Placement.fixed([3]), 0.15),
            (Placement.fermi(2), 0.15),
            (Placement.fixed([0, 0]), 0.3),
            (Placement.bose_einstein(2), 0.3),
            (Placement.fixed([0, 0, 0, 0]), 0.6),
            (Placement.bose_einstein(4), 0.6),
        ],
    )
    def test_uncoded_baseline_projects_placement(self, placement, angle):
        """The bare qubit takes each fixed error on qubit 0 and at most one
        fermi error, so theta = 0.3 costs it sin^2(angle) exactly."""
        config = rotation_config(placement=placement, theta_grid=(0.3,), trials=20)
        row = sweep_theta(config).rows[0]
        assert row.mean_infid_uncoded == pytest.approx(math.sin(angle) ** 2, abs=1e-12)
        assert row.std_uncoded == 0.0

    @pytest.mark.parametrize(
        "placement,kind",
        [
            (placement, kind)
            for placement in [
                ALL_QUBITS,
                Placement.fixed([3]),
                Placement.fixed([0, 0]),
                Placement.fermi(1),
                Placement.fermi(2),
                Placement.bose_einstein(2),
                Placement.bose_einstein(3),
            ]
            for kind in ["rotation", *FLIP_KINDS, "general_unitary", "decay"]
            # decay refuses a placement that stacks errors on the bare qubit:
            # a projection that lands two or more errors on qubit 0
            if kind != "decay" or len(_bare_qubit_placement(placement).qubits) < 2
        ],
    )
    def test_bare_qubit_is_one_branch(self, placement, kind):
        """The sweep computes the baseline once per grid point, from no
        stream: the projected placement fits the bare qubit under ``kind``
        and draws nothing."""
        projected = _bare_qubit_placement(placement)
        check_placement(projected, 1, kind, "uncoded")
        assert_draws_nothing(projected, 1)

    def test_a_sampled_sweep_draws_its_trials_in_order_from_one_generator(self, monkeypatch):
        """A placement with more patterns than trials draws exactly its
        ``trials`` occupancies per grid point, in chunks, from the one
        generator of that grid point, and nothing for the baseline; the
        chunk size leaves the rows as they are."""
        config = rotation_config(
            placement=Placement.fermi(2), theta_grid=(0.02, 0.08, 0.3), trials=12, seed=9
        )
        assert math.comb(7, 2) > config.trials
        expected = repr(sweep_theta(config))
        draws = []

        def counting(placement, n_qubits, rng, count):
            draws.append((rng.bit_generator.state, count))
            return drawn_patterns(placement, n_qubits, rng, count)

        monkeypatch.setattr(qeclab.experiments, "drawn_patterns", counting)
        monkeypatch.setattr(qeclab.experiments, "_DRAW_TRIALS", 5)
        assert repr(sweep_theta(config)) == expected
        assert [count for _, count in draws] == [5, 5, 2] * len(config.theta_grid)
        for grid_index in range(len(config.theta_grid)):
            rng = grid_rng(config.seed, grid_index)
            for state, count in draws[3 * grid_index:3 * grid_index + 3]:
                assert state == rng.bit_generator.state
                for _ in range(count):
                    resolve_occupancy(config.placement, 7, rng)

    def test_patterns_are_schedule_independent(self):
        """Recomputing an exact sweep's patterns one at a time, out of order
        and concurrently, reproduces its rows."""
        config = rotation_config(
            placement=Placement.fermi(2), theta_grid=(0.04, 0.09), trials=30, seed=5
        )
        result = sweep_theta(config)
        code, uncoded = get_code(config.code), get_code("uncoded")
        coded_side = (code.encoder(config.logical), code._syndromes, config.logical)
        bare_side = (uncoded.encoder(config.logical), uncoded._syndromes, config.logical)
        bare_occupancy = resolve_occupancy(_bare_qubit_placement(config.placement), 1, None)

        def one(job):
            grid_index, occupancy = job
            inject = _injector(model_for(config, config.theta_grid[grid_index]))
            (coded,), _, (support,) = _kernel(inject, *coded_side, occupancy[None])
            (bare,), _, _ = _kernel(inject, *bare_side, bare_occupancy[None])
            return grid_index, coded, bare, support

        jobs = [(g, occupancy) for g in range(2) for occupancy in sweep_occupancies(config, g)]
        assert len(jobs) == 2 * 21
        jobs.reverse()  # deliberately not the serial order
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(one, jobs))
        for grid_index in range(2):
            coded = [c for g, c, _, _ in outcomes if g == grid_index]
            bare = [b for g, _, b, _ in outcomes if g == grid_index]
            supports = [s for g, _, _, s in outcomes if g == grid_index]
            row = result.rows[grid_index]
            assert row.mean_infid_coded == pytest.approx(np.mean(coded), abs=1e-15)
            assert row.mean_infid_uncoded == pytest.approx(np.mean(bare), abs=1e-15)
            assert row.mean_support == pytest.approx(np.mean(supports), abs=1e-15)

    def test_rows_survive_a_rebound_state_vector_name(self, monkeypatch):
        """An outside-in tracer replaces ``StateVector`` in each module's
        namespace with a wrapper function; sweeps must run as before."""
        config = rotation_config(
            code="shor9", placement=Placement.bose_einstein(2), logical=GENERIC,
            theta_grid=(0.05, 0.8), trials=40, seed=6,
        )
        expected = sweep_theta(config).rows
        for module in (qeclab.statevec, qeclab.codes, qeclab.errors, qeclab.experiments):
            def traced(*args, _original=module.StateVector, **kwargs):
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "StateVector", traced)
        assert sweep_theta(config).rows == expected

    def test_channel_operator_is_built_once_per_grid_point(self, monkeypatch):
        """A sweep builds each grid point's unitary once, through
        ``errors._operator_for``, and injects both sides with it: the coded
        block, however many distinct occupancies it holds, and the bare qubit."""
        built = []
        original = qeclab.errors._operator_for

        def counting(model):
            built.append(model)
            return original(model)

        monkeypatch.setattr(qeclab.errors, "_operator_for", counting)
        config = rotation_config(
            code="shor9", placement=Placement.bose_einstein(2), logical=GENERIC,
            theta_grid=(0.05, 0.2, 0.8), trials=50,
        )
        sweep_theta(config)
        assert [model.params.theta for model in built] == list(config.theta_grid)

    def test_decay_refuses_a_projection_that_stacks_before_any_work(self, monkeypatch):
        """The config accepts decay on two distinct qubits, which ``inject``
        and ``correct`` run; a sweep's bare qubit would take both errors,
        so ``sweep_theta`` refuses it before it builds any injector."""
        built = []

        def counting(model):
            built.append(model)
            return _injector(model)

        monkeypatch.setattr(qeclab.experiments, "_injector", counting)
        config = ExperimentConfig("steane7", "decay", Placement.fixed([1, 4]), (0.5,), trials=3)
        with pytest.raises(ConfigError) as refused:
            sweep_theta(config)
        assert refused.value.field == "placement"
        assert str(refused.value) == (
            "decay placement must not stack errors on one qubit of the uncoded register"
        )
        assert built == []

    @pytest.mark.parametrize(
        "overrides,leaves_residue",
        [
            (dict(code="shor9", placement=Placement.bose_einstein(2), logical=GENERIC), True),
            (dict(placement=Placement.fermi(2)), True),
            (dict(code="shor9", error_kind="decay", decay_rate=0.8, logical=GENERIC), True),
            (dict(
                error_kind="general_unitary",
                general=GeneralErrorParams(0.3, complex(0.1, 0.2)),
                placement=Placement.bose_einstein(2),
                logical=GENERIC,
            ), True),
            (dict(logical=GENERIC), True),
            (dict(code="shor9", logical=GENERIC), True),
            (dict(placement=Placement.fixed([0, 0, 3]), logical=GENERIC), True),
            (dict(code="shor9", placement=Placement.bose_einstein(3), logical=GENERIC), True),
            # One decayed qubit is a correctable error: its rows are zero.
            (dict(code="shor9", error_kind="decay", decay_rate=0.8,
                  placement=Placement.fixed([1]), logical=GENERIC), False),
            (dict(axis="x"), True),
        ],
        ids=["shor9-bose2", "steane7-fermi2", "shor9-decay", "steane7-general",
             "steane7-all", "shor9-all", "steane7-fixed003", "shor9-bose3",
             "shor9-decay-fixed1", "steane7-x-zero"],
    )
    def test_rows_match_the_dense_oracle(self, overrides, leaves_residue):
        """A sweep's rows, under placements summed over every pattern,
        placements with more patterns than trials and placements that draw
        nothing, are the rows of the dense oracle, which rebuilds every
        occupancy from ``errors`` alone.  Where the channel leaves a residue
        after correction, every row carries one, so the match is not vacuous."""
        config = rotation_config(theta_grid=(0.3, 1.1), trials=60, seed=2, **overrides)
        rows = sweep_theta(config).rows
        assert_rows_match(rows, dense_oracle_rows(config))
        if leaves_residue:
            assert all(0.0 < row.mean_infid_coded < 1.0 and row.std_coded > 0.0 for row in rows)

    def test_a_sweep_draws_only_beyond_its_patterns(self, monkeypatch):
        """A placement draws its trials once per sweep only where they do not
        cover its patterns: the criterion-4 grid, which draws nothing,
        draws none, and neither does a budget that covers every pattern."""
        draws = []

        def counting(placement, n_qubits, rng, count):
            draws.append(count)
            return drawn_patterns(placement, n_qubits, rng, count)

        monkeypatch.setattr(qeclab.experiments, "drawn_patterns", counting)
        config = rotation_config(theta_grid=tuple(np.geomspace(1e-3, 1e-1, 7)), trials=20)
        sweep_theta(config)
        sweep_theta(dataclasses.replace(config, placement=Placement.fermi(1)))  # 7 patterns
        assert draws == []
        sweep_theta(dataclasses.replace(config, placement=Placement.bose_einstein(2)))  # 28
        assert sum(draws) == 7 * 20

    def test_an_unholdable_trial_budget_fails_before_any_draw(self, monkeypatch):
        """A placement with more patterns than its trials allocates its
        per-trial buffers first, so a budget too large to hold fails at
        once: no draw, no injector.  A budget that covers every pattern
        holds one entry per pattern, whatever its size."""
        calls = []
        for name in ("drawn_patterns", "_injector"):
            def counting(*args, _name=name, _original=getattr(qeclab.experiments, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(qeclab.experiments, name, counting)
        config = rotation_config(placement=Placement.bose_einstein(10**4), trials=10**15)
        assert math.comb(7 + 10**4 - 1, 10**4) > config.trials
        with pytest.raises(MemoryError):
            sweep_theta(config)
        assert calls == []
        exact = rotation_config(placement=Placement.fermi(2), trials=21, logical=GENERIC)
        tracemalloc.start()
        try:
            rows = sweep_theta(dataclasses.replace(exact, trials=10**15)).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(rows) == repr(sweep_theta(exact).rows)
        assert peak < 1 << 20
        assert "drawn_patterns" not in calls

    @pytest.mark.parametrize(
        "placement",
        [ALL_QUBITS, Placement.fixed([0, 0, 3]), Placement.fermi(0), Placement.bose_einstein(0)],
    )
    def test_deterministic_occupancy_is_injected_once_per_grid_point(
        self, monkeypatch, placement
    ):
        """Each side looks up the one pattern of a placement that draws
        nothing once per sweep, and injects it once per grid point, whatever
        the trial count: as one block per side and sweep, a row per grid
        point, each row under its own grid point's model."""
        resolved, laid_out, injections = [], [], []
        original_patterns, original_injector = (
            qeclab.experiments.every_pattern, qeclab.experiments._injector
        )

        def counting_layout(table, occupancies):
            laid_out.append(occupancies.tolist())
            return _layout(table, occupancies)

        def counting_patterns(placement, n_qubits, step):
            for patterns in original_patterns(placement, n_qubits, step):
                resolved.append((n_qubits, len(patterns)))
                yield patterns

        def counting_injector(*models):
            inject = original_injector(*models)

            def counting(state, occupancies, which=0, slots=None):
                injections.append((state.n_qubits, len(occupancies), np.ravel(which).tolist()))
                return inject(state, occupancies, which, slots)

            return counting

        monkeypatch.setattr(qeclab.experiments, "every_pattern", counting_patterns)
        monkeypatch.setattr(qeclab.experiments, "_injector", counting_injector)
        monkeypatch.setattr(qeclab.experiments, "_layout", counting_layout)
        occupancy = {
            7: resolve_occupancy(placement, 7, None).tolist(),
            1: resolve_occupancy(_bare_qubit_placement(placement), 1, None).tolist(),
        }
        for trials in (1, 20):
            for calls in (resolved, laid_out, injections):
                calls.clear()
            sweep_theta(
                rotation_config(placement=placement, theta_grid=(0.05, 0.3, 1.1), trials=trials)
            )
            assert resolved == [(7, 1), (1, 1)]
            assert laid_out == [[occupancy[7]] * 3, [occupancy[1]] * 3]
            assert injections == [(7, 3, [0, 1, 2]), (1, 3, [0, 1, 2])]

    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(code="shor9", placement=Placement.bose_einstein(2), logical=GENERIC)],
        ids=["steane7-all", "shor9-bose2"],
    )
    def test_a_sweep_measures_nothing(self, monkeypatch, overrides):
        """A sweep measures nothing: it draws no syndrome, and runs no
        fidelity."""
        calls = []
        for module, name in [
            (qeclab.codes, "_draw_syndrome"),
            (qeclab.statevec, "fidelity"),
        ]:
            def counting(*args, _name=name, _original=getattr(module, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
            # Also any name the experiments module binds for it.
            monkeypatch.setattr(qeclab.experiments, name, counting, raising=False)
        config = rotation_config(theta_grid=(0.05, 1.1), **overrides)
        rows = sweep_theta(config).rows
        assert rows[-1].mean_infid_coded > 0.0
        assert calls == []

    @pytest.mark.slow
    @pytest.mark.parametrize("code", ["shor9", "steane7"])
    def test_coded_beats_uncoded_at_small_angles(self, code):
        """All-qubit rotation, theta = 0.05: correction reduces mean infidelity."""
        config = rotation_config(code=code, theta_grid=(0.05,), trials=10_000)
        row = sweep_theta(config).rows[0]
        assert row.mean_infid_coded < row.mean_infid_uncoded


class TestBlockSweep:
    """A sweep evaluates each grid point's distinct occupancies as one block;
    its rows must be the bytes of rows rebuilt one trial at a time."""

    @pytest.mark.parametrize(
        "placement", [ALL_QUBITS, Placement.fixed([0])], ids=["all", "fixed0"]
    )
    @pytest.mark.parametrize(
        "kind",
        [dict(axis="x"), dict(axis="y"), dict(axis="z"),
         dict(error_kind="decay", decay_rate=0.8),
         dict(error_kind="general_unitary", general=GeneralErrorParams(0.3, complex(0.1, 0.2)))],
        ids=["x", "y", "z", "decay", "general"],
    )
    @pytest.mark.parametrize("code", ["steane7", "shor9", "uncoded"])
    def test_drawless_rows_do_not_depend_on_their_neighbours(self, code, kind, placement):
        """A drawless sweep injects every grid point as one row of one block
        per side; each row's CSV values are those of its theta swept alone."""
        config = rotation_config(
            code=code, placement=placement, logical=GENERIC,
            theta_grid=(0.01, 0.05, 0.1, 0.3, 1.1, 2.5), **kind,
        )
        rows = sweep_theta(config).rows
        for row in rows:
            alone = sweep_theta(dataclasses.replace(config, theta_grid=(row.theta,))).rows
            assert csv_values(alone[0]) == csv_values(row)
        # One error on a code is corrected, so only the other rows carry a residue.
        if placement == ALL_QUBITS or code == "uncoded":
            assert any(row.mean_infid_coded > 0.0 for row in rows)
        assert any(row.mean_infid_uncoded > 0.0 for row in rows)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(placement=Placement.bose_einstein(2)),
            dict(placement=Placement.fermi(2)),
            dict(code="shor9", placement=Placement.bose_einstein(2)),
            dict(code="shor9", placement=Placement.fermi(3), axis="x"),
            dict(code="shor9", placement=Placement.fermi(2), error_kind="decay", decay_rate=0.9),
        ],
        ids=["steane7-bose2", "steane7-fermi2", "shor9-bose2", "shor9-fermi3", "shor9-decay-fermi2"],
    )
    def test_rows_match_one_row_trials_byte_for_byte(self, overrides):
        """Each row is the mean, over the occupancies the sweep averages, of
        one-row kernel entries, byte for byte: over every pattern, summed
        around the patterns' mean, or over the drawn trials where there are
        more patterns than trials."""
        config = rotation_config(
            logical=GENERIC, theta_grid=(0.05, 0.3, 1.1), trials=40, seed=5, **overrides
        )
        code, uncoded = get_code(config.code), get_code("uncoded")
        coded_side = (code.encoder(config.logical), code._syndromes, config.logical)
        bare_side = (uncoded.encoder(config.logical), uncoded._syndromes, config.logical)
        bare_occupancy = resolve_occupancy(_bare_qubit_placement(config.placement), 1, None)
        rows = []
        for grid_index, theta in enumerate(config.theta_grid):
            inject = _injector(model_for(config, theta))
            occupancies = sweep_occupancies(config, grid_index)
            moments, distinct = np.empty((3, len(occupancies))), set()
            for t, occupancy in enumerate(occupancies):
                distinct.add(occupancy.tobytes())
                (mean,), (variance,), (support,) = _kernel(inject, *coded_side, occupancy[None])
                moments[:, t] = mean, variance, support
            assert len(distinct) > 1  # the sweep evaluates a block of several rows
            if len(pattern_occupancies(config.placement, code.n_physical)) <= config.trials:
                shift = float(moments[0].mean())
                spread = moments[0] - shift
                drift, square, within, support = (
                    np.array([spread.sum(), (spread * spread).sum(), *moments[1:].sum(axis=1)])
                    / len(occupancies)
                ).tolist()
                mean, variance = shift + drift, within + square - drift * drift
            else:
                mean, variance, support = moments.mean(axis=1).tolist()
                variance += float(moments[0].var())
            (bare,), _, _ = _kernel(inject, *bare_side, bare_occupancy[None])
            rows.append(SweepRow(theta, mean, math.sqrt(variance), bare, 0.0, float(support)))
        assert repr(sweep_theta(config).rows) == repr(tuple(rows))


def _path_configs() -> list[ExperimentConfig]:
    """Every placement rule on each code (fermi at every count), under x and
    y rotations, a general unitary and, where the bare qubit stacks nothing,
    decay."""
    kinds = [
        dict(axis="x"),
        dict(axis="y"),
        dict(error_kind="general_unitary", general=GeneralErrorParams(0.3, complex(0.1, 0.2))),
        dict(error_kind="decay", decay_rate=0.8),
    ]
    configs = []
    for code in ("steane7", "shor9", "uncoded"):
        n = get_code(code).n_physical
        placements = [ALL_QUBITS, Placement.fixed([0])]
        placements += [Placement.fixed([0, n - 1])] if n > 1 else []
        placements += [Placement.fermi(k) for k in range(1, n + 1)]
        placements += [Placement.bose_einstein(k) for k in (1, 2, 3)]
        for placement in placements:
            for kind in kinds:
                stacks = len(_bare_qubit_placement(placement).qubits) > 1
                if kind.get("error_kind") == "decay" and stacks:
                    continue  # decay refuses errors stacked on the bare qubit
                configs.append(rotation_config(
                    code=code, placement=placement, logical=GENERIC,
                    theta_grid=(0.1, 0.7), trials=30, seed=3, **kind,
                ))
    return configs


def _sweep_blocks(config: ExperimentConfig):
    """Each block ``sweep_theta(config)`` reads, a side and a grid point at a
    time, as (its syndrome table, its distinct occupancies, their rows
    laid out dense, and each row's reached outcomes where ``_layout`` gave
    them the compact register, else None)."""
    code, uncoded = get_code(config.code), get_code("uncoded")
    inject = _injector(*(model_for(config, theta) for theta in config.theta_grid))
    bare = resolve_occupancy(_bare_qubit_placement(config.placement), 1, None)[None]
    for grid_index in range(len(config.theta_grid)):
        coded = np.unique(sweep_occupancies(config, grid_index), axis=0)
        for spec, occupancies in ((code, coded), (uncoded, bare)):
            table = spec._syndromes
            register, slots, reached = _layout(table, occupancies)
            rows = inject(spec.encoder(config.logical), register, grid_index, slots)
            yield table, occupancies, _scatter(rows, slots, 1 << spec.n_physical), reached


class TestOverlapPaths:
    """``_overlaps`` reads either every (row, outcome) pair or, given each
    row's reached outcomes, only those; ``_layout`` picks the read, and
    neither may move a row."""

    def test_both_reads_of_every_sweep_block_agree(self):
        """Every block a sweep reads, compact or dense, gives the same pairs
        byte for byte whether it is read on its rows' reached outcomes (as
        ``_layout`` names them, or as the memo holds them for a dense
        block) or on every outcome."""
        configs = _path_configs()
        assert len(configs) >= 100
        compact = dense = 0
        for config in configs:
            for table, occupancies, block, reached in _sweep_blocks(config):
                read = reached_rows(table, occupancies) if reached is None else reached
                for pairs, every in zip(_overlaps(block, table, read), _overlaps(block, table)):
                    assert pairs.tobytes() == every.tobytes(), config
                compact += reached is not None
                dense += reached is None
        assert compact > 100 and dense > 100

    def test_sweep_bytes_do_not_depend_on_what_the_memo_holds(self):
        """A sweep's bytes are the same from an empty reach memo and after
        another sweep has filled it, and a sweep run again adds no entry:
        a compact config, a dense one, and one of mixed widths whose blocks
        mostly fall back to the dense register."""
        configs = [
            rotation_config(code=code, placement=placement, logical=GENERIC,
                            theta_grid=(0.1, 0.7), trials=300, seed=5)
            for code, placement in (("shor9", Placement.bose_einstein(2)),
                                    ("steane7", Placement.fermi(3)),
                                    ("shor9", Placement.bose_einstein(6)))
        ]

        def layouts(config):
            """Whether each coded block is laid out compact, and its rows' widths."""
            return [
                (reached is not None, set((occupancies > 0).sum(axis=1).tolist()))
                for table, occupancies, _, reached in _sweep_blocks(config) if len(table.kets) > 2
            ]

        compact, dense, mixed = map(layouts, configs)
        assert all(laid_out for laid_out, _ in compact)
        assert not any(laid_out for laid_out, _ in dense)
        assert any(not laid_out and len(widths) > 1 for laid_out, widths in mixed)
        memos = [get_code(name)._syndromes.reach for name in ("shor9", "steane7", "uncoded")]
        for b in configs:
            for memo in memos:
                memo.clear()
            fresh = repr(sweep_theta(b))
            for a in configs:
                sweep_theta(a)
                assert repr(sweep_theta(b)) == fresh
                held = [set(memo) for memo in memos]
                sweep_theta(b)
                assert [set(memo) for memo in memos] == held

    def test_a_reach_missing_an_outcome_moves_a_row(self, monkeypatch):
        """The comparison above catches a reach that is too small.  Give a
        copy of shor9's table a reach for qubit 0 that lacks the outcome Y_0
        is corrected on: the overlaps of a fixed:0 y rotation change there.
        One error is corrected exactly, so that row's infidelity cannot show
        it; a reach for qubits 0 and 1 that lacks X_2's outcome, where X_0
        X_1 lands and leaves X_0 X_1 X_2, a logical error, changes the
        fixed:0,1 sweep row, whose block ``_layout`` lays out compact."""
        code = get_code("shor9")
        table, corrections = code._syndromes, list(code.recovery_table.values())

        def without(correction: str, mask: int):
            *patterns, hits = _reach(table, mask, code.n_physical)
            assert corrections.index(correction) in hits
            return table._replace(reach={mask: (*patterns, hits[hits != corrections.index(correction)])})

        config = rotation_config(
            code="shor9", placement=Placement.fixed([0]), logical=GENERIC, theta_grid=(0.7,)
        )
        occupancy = resolve_occupancy(config.placement, code.n_physical, None)
        block = _injector(model_for(config, 0.7))(code.encoder(GENERIC), occupancy[None])
        y0, mask = corrections.index("YIIIIIIII"), 1 << code.n_physical - 1
        assert dense_overlaps(block, table, reached_rows(table, occupancy[None]))[2][0, y0] > 0.0
        missing = [without("YIIIIIIII", mask).reach[mask][2]]
        assert dense_overlaps(block, table, missing)[2][0, y0] == 0.0

        config = dataclasses.replace(config, placement=Placement.fixed([0, 1]))
        assert _layout(table, np.array([[1, 1] + [0] * 7]))[1] is not None
        want = repr(sweep_theta(config))
        monkeypatch.setitem(vars(code), "_syndromes", without("IIXIIIIII", 0b110000000))
        assert repr(sweep_theta(config)) != want

    def test_a_code_with_wide_codewords_builds_its_table(self, repetition_codes):
        """The 11-qubit phase-flip code's table builds, though every
        outcome spreads over 2 x 2^10 kets, and its sweep corrects two z
        rotations to rounding, while the bare qubit is rotated twice.  The
        coded rows are not exactly 0: outcomes whose overlaps cancel only
        up to rounding carry weights near 1e-33."""
        table = get_code("phaseflip11")._syndromes
        assert table.index.shape == (1 << 10, 2, 1 << 10)
        config = rotation_config(
            code="phaseflip11", axis="z", placement=Placement.fixed([0, 1]), logical=GENERIC,
            theta_grid=(0.3, 1.1),
        )
        rows = sweep_theta(config).rows
        assert all(row.mean_infid_coded < NUMERICAL_FLOOR for row in rows)
        assert all(row.mean_infid_uncoded > 0.0 for row in rows)

    def test_a_wide_row_is_gathered_in_slices_of_its_outcomes(self, repetition_codes, monkeypatch):
        """One row of the 11-qubit phase-flip code gathers 2 x 2^10 kets for
        each of its 2^10 outcomes, 32 MB at once; the dense path reads it in
        slices of outcomes under ``_GATHER_BYTES``, so one row peaks under
        2 MB, with the bits of one slice of every outcome and of one outcome
        at a time."""
        table = get_code("phaseflip11")._syndromes
        rng = np.random.default_rng(12)
        block = rng.standard_normal((1, 1 << 11)) + 1j * rng.standard_normal((1, 1 << 11))
        tracemalloc.start()
        try:
            got = _overlaps(block, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert got[0].tolist() == [1 << 10]  # a generic row reaches every outcome
        for budget in (1, 1 << 30):  # one outcome at a time, every outcome at once
            monkeypatch.setattr(qeclab.codes, "_GATHER_BYTES", budget)
            for part, want in zip(_overlaps(block, table), got):
                assert part.tobytes() == want.tobytes()


class TestMoments:
    """``_moments`` against the dense oracle, and against sampled shots."""

    KINDS = [
        ("rotation", dict(axis="x")),
        ("rotation", dict(axis="y")),
        ("rotation", dict(axis="z")),
        ("general_unitary", dict(general=GeneralErrorParams(0.3, complex(0.1, 0.2)))),
        *[(kind, {}) for kind in FLIP_KINDS],
        ("decay", dict(decay_rate=0.8)),
    ]

    KIND_IDS = ["-".join([kind, *fields.get("axis", "")]) for kind, fields in KINDS]

    @pytest.mark.parametrize("code", ["steane7", "shor9"])
    @pytest.mark.parametrize("kind,fields", KINDS, ids=KIND_IDS)
    def test_match_dense_projectors(self, code, kind, fields):
        n = get_code(code).n_physical
        all_qubits, pair, stacked = np.ones(n, int), np.zeros(n, int), np.zeros(n, int)
        pair[[1, 4]] = 1
        stacked[3] = 2  # an occupancy only bose_einstein:2 draws
        occupancies = [all_qubits, pair] + ([stacked] if kind != "decay" else [])
        for logical in (GENERIC, LogicalQubit(1.0, 0.0)):
            config = rotation_config(code=code, error_kind=kind, logical=logical, **fields)
            encoded = get_code(code).encoder(logical)
            for theta in (0.3, 1.1):
                block = _injector(model_for(config, theta))(encoded, np.array(occupancies))
                means, variances = _moments(block, get_code(code)._syndromes, logical)
                for amps, got in zip(block, zip(means, variances)):
                    want = dense_moments(amps, code, logical)
                    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    def test_monte_carlo_shots_agree_with_the_mean(self):
        """20,000 measured shots of one injected state, each scored by the
        dense oracle's infidelity for the syndrome drawn."""
        code = get_code("steane7")
        config = rotation_config(logical=GENERIC)
        block = _injector(model_for(config, 0.5))(code.encoder(GENERIC), np.ones((1, 7), int))
        (mean,), (variance,) = _moments(block, code._syndromes, GENERIC)
        _, _, weight = dense_overlaps(block, code._syndromes)
        outcomes = dense_branches(block[0], "steane7", GENERIC)
        rng = np.random.default_rng(16)
        shots, syndromes = np.empty(20_000), set()
        for shot in range(shots.size):
            bits, _ = _draw_syndrome(weight[0], code._syndromes, rng)
            syndromes.add(bits)
            shots[shot] = outcomes["".join(map(str, bits))][1]
        assert len(syndromes) == 8
        assert abs(shots.mean() - mean) <= 5 * math.sqrt(variance / shots.size)
        assert shots.var() == pytest.approx(variance, rel=0.1)


def _models(kind: str, draw) -> list:
    """One to three models of ``kind``, or the one flip model."""
    count = draw(st.integers(1, 3))
    if kind == "rotation":
        axis = draw(st.sampled_from("xyz"))
        angles = st.floats(0.0, 3.0, allow_nan=False)
        return [ErrorModel(kind, RotationErrorParams(axis, draw(angles))) for _ in range(count)]
    if kind == "general_unitary":
        parts = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda x: abs(x) > 0.01)
        return [
            ErrorModel(kind, GeneralErrorParams(draw(parts), complex(draw(parts), draw(parts))))
            for _ in range(count)
        ]
    if kind == "decay":
        rates, times = st.floats(0.05, 1.0), st.floats(0.0, 3.0)
        return [ErrorModel(kind, DecayModel(draw(rates), draw(times))) for _ in range(count)]
    return [ErrorModel(kind)]


@st.composite
def injections(draw):
    """A code, its encoded state, models of one kind and a block of up to
    8 occupancies of mixed widths, with repeats unless the kind is decay,
    under one model for every row or one per row."""
    name = draw(st.sampled_from([*CODE_NAMES, "bitflip3", "bitflip5", "phaseflip3", "phaseflip5"]))
    spec = code_spec(name)
    n = spec.n_physical
    kind = draw(st.sampled_from(["rotation", "general_unitary", "bit_flip", "phase_flip", "decay"]))
    models = _models(kind, draw)
    widest, counts = draw(st.sampled_from([1, 2, 3, n])), st.integers(1, 1 if kind == "decay" else 3)
    # A run of adjacent qubits covers shor9's blocks, where codeword kets merge.
    runs = st.tuples(st.integers(0, n - 1), st.integers(1, widest)).flatmap(
        lambda run: st.fixed_dictionaries({q: counts for q in range(run[0], min(sum(run), n))})
    )
    rows = draw(st.lists(
        st.one_of(st.dictionaries(st.integers(0, n - 1), counts, max_size=widest), runs),
        min_size=1, max_size=8,
    ))
    occupancies = np.zeros((len(rows), n), dtype=np.int64)
    for row, errors in zip(occupancies, rows):
        row[list(errors)] = list(errors.values())
    per_row = st.lists(st.integers(0, len(models) - 1), min_size=len(rows), max_size=len(rows))
    which = draw(st.one_of(st.integers(0, len(models) - 1), per_row.map(np.array)))
    logical = draw(st.sampled_from([LogicalQubit(1.0, 0.0), LogicalQubit(0.0, 1.0), GENERIC]))
    return spec, spec.encoder(logical), logical, models, occupancies, which


def _on_kets(name: str, kets):
    """The syndrome table of ``name`` with ``kets`` for its codewords' kets
    and an empty reach memo, for layouts of kets no code holds."""
    return code_spec(name)._syndromes._replace(kets=np.array(kets), reach={})


class TestCompactInjection:
    """Each row is injected only on the kets it can reach (``codes._layout``),
    and every number read from it is the dense register's."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(injections())
    def test_compact_rows_are_the_dense_rows(self, case):
        """Scattered, the compact rows are the dense injection's bit for bit
        up to the sign of zero, each reachable ket in exactly one slot; the
        supports and ``_kernel``'s moments are the dense block's."""
        spec, state, logical, models, occupancies, which = case
        table, size, inject = spec._syndromes, 1 << spec.n_physical, _injector(*models)
        register, slots, reached = _layout(table, occupancies)
        rows = inject(state, register, which, slots)
        want = dense_inject(models, state, occupancies, which)
        got = _scatter(rows, slots, size)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        if slots is not None:
            for row_slots, amps in zip(slots, want):
                live = row_slots[row_slots < size]
                assert len(np.unique(live)) == len(live)
                assert np.isin(np.flatnonzero(amps), live).all()
        supports = support_mask(want, SUPPORT_THRESHOLD).sum(axis=1).tolist()
        assert support_mask(rows, SUPPORT_THRESHOLD).sum(axis=1).tolist() == supports
        assert _kernel(inject, state, table, logical, occupancies, which) == (
            *_moments(want, table, logical, reached), supports
        )

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(injections())
    def test_a_block_reads_pairs_exactly_when_laid_out_compact(self, case):
        """``_kernel`` passes ``_overlaps`` its rows' reached outcomes
        exactly when ``_layout`` gave the block the compact register, and a
        compact block's pairs are the same read either way, byte for byte."""
        spec, state, logical, models, occupancies, which = case
        table, inject = spec._syndromes, _injector(*models)
        _, slots, _ = _layout(table, occupancies)
        with mock.patch.object(qeclab.experiments, "_overlaps", wraps=_overlaps) as read:
            _kernel(inject, state, table, logical, occupancies, which)
        (call,) = read.call_args_list
        block, _, reached = call.args
        assert (reached is None) == (slots is None)
        if slots is not None:
            assert all(map(np.array_equal, reached, reached_rows(table, occupancies)))
            for pairs, every in zip(_overlaps(block, table, reached), _overlaps(block, table)):
                assert pairs.tobytes() == every.tobytes()

    def test_the_layout_each_block_takes(self):
        """Rows on a few qubits of a code take the compact register; a block
        with a row on every qubit, the bare qubit and a register no
        smaller than the dense one take the dense register."""
        shor9, steane7 = get_code("shor9"), get_code("steane7")
        one = np.zeros((1, 9), dtype=np.int64)
        one[0, 4] = 2
        compact, slots, reached = _layout(shor9._syndromes, one)
        # Qubit 4 in the top bit, the 8 codeword kets' patterns off it below.
        assert compact.tolist() == [[2]] and slots.shape == (1, 16)
        assert np.array_equal(reached[0], reached_rows(shor9._syndromes, one)[0])
        block = np.ones((2, 7), dtype=np.int64)
        block[1, :3] = 0
        assert _layout(steane7._syndromes, block)[1:] == (None, None)
        assert _layout(get_code("uncoded")._syndromes, np.ones((3, 1), dtype=np.int64))[1:] == (None, None)
        wide = _on_kets("bitflip3", [0, 2, 5, 7])
        assert _layout(wide, np.array([[1, 0, 1]]))[1:] == (None, None)  # 2 x 4 slots

    def test_a_lone_amplitude_pair_takes_the_dense_register(self):
        """A compact step of one amplitude pair per row would go down numpy's
        vector-matrix path, which rounds unlike the matrix products of the
        dense register's steps (``TestInjectorSchedule``), so such a block
        takes the dense register.  Two pairs per row stay compact: phantom
        and merged slots point at ket 2**n."""
        kets = [0, 1]  # one pattern off qubit 2, and off qubits 1 and 2
        table = _on_kets("bitflip3", kets)
        assert _layout(table, np.array([[0, 0, 1]]))[1:] == (None, None)
        compact, slots, _ = _layout(table, np.array([[0, 1, 2], [0, 0, 1]]))
        assert compact.tolist() == [[1, 2], [1, 0]]
        assert slots.tolist() == [[0, 1, 2, 3], [0, 8, 1, 8]]
        model = ErrorModel("rotation", RotationErrorParams("x", 0.7))
        amps = np.zeros(8, dtype=complex)
        amps[kets] = 0.6, 0.8
        state = qeclab.statevec.StateVector(3, amps)
        for occupancies in ([[0, 0, 1]], [[0, 1, 2], [0, 0, 1]]):
            occupancies = np.array(occupancies)
            register, slots, _ = _layout(table, occupancies)
            got = _scatter(_injector(model)(state, register, 0, slots), slots, 8)
            want = dense_inject([model], state, occupancies)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_no_output_depends_on_the_sign_of_a_zero_amplitude(self):
        """Every zero part of an injected block flipped in sign leaves
        ``_overlaps``' pairs, ``_moments`` and ``support_mask`` as they were,
        read on the rows' reached outcomes and on every one, so a block
        scattered from compact rows, whose unreached kets hold +0, reads as
        the dense block does."""
        rng = np.random.default_rng(33)
        flipped_any = False
        for name, kind in (("shor9", "rotation"), ("steane7", "rotation"), ("bitflip3", "general_unitary")):
            spec = code_spec(name)
            n, table = spec.n_physical, spec._syndromes
            occupancies = rng.integers(0, 3, (6, n)) * (rng.random((6, n)) < 0.3)
            models = [ErrorModel(kind, RotationErrorParams("y", 0.9))] if kind == "rotation" else [
                ErrorModel(kind, GeneralErrorParams(0.3, 0.4j))
            ]
            block = dense_inject(models, spec.encoder(GENERIC), occupancies)
            parts = block.view(np.float64).copy()
            parts[parts == 0.0] *= -1.0
            flipped = parts.view(np.complex128)
            flipped_any |= bool((np.signbit(parts) != np.signbit(block.view(np.float64))).any())
            for reached in (None, reached_rows(table, occupancies)):
                for got, want in zip(_overlaps(flipped, table, reached), _overlaps(block, table, reached)):
                    assert got.tobytes() == want.tobytes()
                assert _moments(flipped, table, GENERIC, reached) == _moments(block, table, GENERIC, reached)
            assert (support_mask(flipped, SUPPORT_THRESHOLD) == support_mask(block, SUPPORT_THRESHOLD)).all()
        assert flipped_any


CRITERION_4_GRID = tuple(np.geomspace(1e-3, 1e-1, 7))

REPETITION_CODES = {
    "bitflip3": (("ZZI", "IZZ"), "ZZZ", "XXX"),
    "phaseflip3": (("XXI", "IXX"), "XXX", "ZZZ"),
    # Each codeword on 2^10 kets, so each of its 2^10 outcomes on 2 x 2^10.
    "phaseflip11": (tuple("I" * i + "XX" + "I" * (9 - i) for i in range(10)), "Z" * 11, "X" * 11),
}


@pytest.fixture
def repetition_codes(monkeypatch):
    """The note's three-qubit bit-flip and phase-flip codes, and an
    11-qubit phase-flip code, registered for one test only."""
    for name, definition in REPETITION_CODES.items():
        monkeypatch.setitem(qeclab.codes._CODE_DEFINITIONS, name, definition)
    yield
    get_code.cache_clear()


class TestExactAnchors:
    """Closed forms, end to end through ``sweep_theta``."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_criterion_4_slope_is_exact_on_every_seed(self, seed):
        config = rotation_config(theta_grid=CRITERION_4_GRID, trials=10_000, seed=seed)
        result = sweep_theta(config)
        assert result.slope_coded == pytest.approx(3.99695, abs=1e-4)
        assert sweep_theta(dataclasses.replace(config, trials=1, seed=0)) == result

    @pytest.mark.parametrize("code,ratio", [("steane7", 63 / 16), ("shor9", 27 / 16)])
    def test_coded_infidelity_is_its_quartic_term(self, code, ratio):
        row = sweep_theta(rotation_config(code=code, theta_grid=(1e-3,))).rows[0]
        assert row.mean_infid_coded / 1e-3**4 == pytest.approx(ratio, rel=1e-4)

    PLUS = LogicalQubit(2**-0.5, 2**-0.5)
    ZERO = LogicalQubit(1.0, 0.0)

    @pytest.mark.parametrize(
        "code,axis,logical,form,bare_moves",
        [
            ("bitflip3", "z", PLUS, "logical", True),
            ("bitflip3", "x", ZERO, "corrected", True),
            ("bitflip3", "y", ZERO, "corrected", True),
            ("phaseflip3", "x", PLUS, "logical", False),
            ("phaseflip3", "z", ZERO, "corrected", False),
            ("phaseflip3", "y", ZERO, "corrected", True),
        ],
    )
    def test_repetition_codes(self, repetition_codes, code, axis, logical, form, bare_moves):
        """A code built for one flip turns the other axis's rotation of every
        qubit into a logical rotation by 3 theta, sin^2(3 theta/2), about 9x
        the bare qubit's sin^2(theta/2); a rotation it corrects leaves the
        s^6 + 3 c^2 s^4 of two or three flips, c = cos(theta/2) and
        s = sin(theta/2).  The bare qubit does not move where the logical
        state is an eigenstate of its rotation."""
        config = rotation_config(
            code=code, axis=axis, logical=logical, theta_grid=(0.05, 0.3, 1.1, 2.5)
        )
        for row in sweep_theta(config).rows:
            c, s = math.cos(row.theta / 2), math.sin(row.theta / 2)
            logical_rotation = math.sin(1.5 * row.theta) ** 2
            exact = s**6 + 3 * c**2 * s**4 if form == "corrected" else logical_rotation
            assert row.mean_infid_coded == pytest.approx(exact, rel=0, abs=4e-15)
            bare = s**2 if bare_moves else 0.0
            assert row.mean_infid_uncoded == pytest.approx(bare, rel=0, abs=4e-15)


class TestProliferation:
    def test_steane_rotated(self):
        assert proliferation_experiment("steane7", 0.01) == (8, 128)

    def test_steane_identity(self):
        assert proliferation_experiment("steane7", 0.0) == (8, 8)

    def test_shor_rotated(self):
        assert proliferation_experiment("shor9", 0.01) == (8, 512)


class TestSensitivity:
    def test_zero_angle_means_zero_damage(self):
        for p in (0.1, 0.5, 0.9):
            assert sensitivity_experiment(4, p, 0.0) == 0.0

    def test_concentrated_limit_matches_product_overlap(self):
        """As p -> 1 the damage approaches 1 - cos^(2n)(theta/2)."""
        n, theta = 5, 0.2
        got = sensitivity_experiment(n, 1.0 - 1e-12, theta)
        assert got == pytest.approx(1.0 - math.cos(theta / 2) ** (2 * n), abs=1e-5)

    def test_matches_closed_form_overlap(self):
        """Oracle: the rotated target amplitude has an explicit closed form."""
        n, theta = 4, 0.37
        dim = 1 << n
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        for p in (0.2, 0.55, 0.93):
            amp = math.sqrt(p) * c**n + math.sqrt((1 - p) / (dim - 1)) * (
                (c - s) ** n - c**n
            )
            expected = (p - amp * amp) / p
            assert sensitivity_experiment(n, p, theta) == pytest.approx(
                expected, abs=1e-12
            )

    def test_monotone_in_theta(self):
        for p in (0.3, 0.8):
            damages = [
                sensitivity_experiment(3, p, theta)
                for theta in np.linspace(0.0, math.pi / 4, 30)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(damages, damages[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_qubits"):
            sensitivity_experiment(1, 0.5, 0.1)
        with pytest.raises(ValueError, match="probability"):
            sensitivity_experiment(4, 0.0, 0.1)
        with pytest.raises(ValueError, match="probability"):
            sensitivity_experiment(4, 1.0, 0.1)


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        points = [(1e-3, 1e-6), (1e-2, 1e-4), (1e-1, 1e-2)]
        assert fit_power_law(points) == pytest.approx(2.0, abs=1e-12)

    def test_exact_quartic(self):
        points = [(1e-2, 1e-8), (1e-1, 1e-4)]
        assert fit_power_law(points) == pytest.approx(4.0, abs=1e-12)

    def test_recovers_planted_exponents(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            exponent = float(rng.uniform(0.5, 6.0))
            scale = float(rng.uniform(0.1, 10.0))
            thetas = np.geomspace(1e-3, 1e-1, 6)
            points = [(t, scale * t**exponent) for t in thetas]
            assert fit_power_law(points) == pytest.approx(exponent, abs=1e-9)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_power_law([(0.1, 0.01)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([(0.1, 0.0), (0.2, 0.1)])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([(-0.1, 0.01), (0.2, 0.1)])

    def test_floor_points_are_excluded(self):
        """Values under 1e-13 drop out; the fit uses the remaining points."""
        points = [(1e-3, 1e-15), (1e-2, 1e-8), (1e-1, 1e-4)]
        assert fit_power_law(points) == pytest.approx(4.0, abs=1e-12)

    def test_all_floor_points_is_an_error(self):
        with pytest.raises(ValueError, match="floor"):
            fit_power_law([(1e-3, 1e-15), (1e-2, 1e-14)])
