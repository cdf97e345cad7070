"""Tests for config parsing, CSV emission, and the CLI commands."""

import argparse
import dataclasses
import errno
import importlib.util
import itertools
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import qeclab.cli
import qeclab.errors
import qeclab.experiments
from qeclab.cli import (
    ConfigError,
    emit_config,
    format_float,
    main,
    parse_config,
    render_csv,
)
from qeclab.codes import CODE_NAMES, LogicalQubit, _overlaps, get_code
from qeclab.errors import (
    ALL_QUBITS,
    ERROR_KINDS,
    ROTATION_AXES,
    GeneralErrorParams,
    Placement,
    RotationErrorParams,
    _injector,
    apply_error_model,
    resolve_occupancy,
    rotation_unitary,
)
from qeclab.experiments import (
    ExperimentConfig, SweepResult, SweepRow, _leaves, _moments, fit_power_law, model_for
)

from dense_oracle import apply_product, dense_branches, dense_overlaps

MINIMAL = """\
code = steane7
error.kind = bit_flip
error.placement = fermi:1
theta = 0
trials = 100
"""

# GeneralErrorParams' refusal of a pair, up to the weight it prints.
PAIR_REFUSAL = (
    "e1 and e2 must be finite, with |e1|^2 + |e2|^2 at least "
    "2.2250738585072014e-308 to normalize, got "
)

STEANE_ENCODE_LINES = [
    "|0000000> 0.3535533906",
    "|0001111> 0.3535533906",
    "|0110011> 0.3535533906",
    "|0111100> 0.3535533906",
    "|1010101> 0.3535533906",
    "|1011010> 0.3535533906",
    "|1100110> 0.3535533906",
    "|1101001> 0.3535533906",
]


class TestParseConfig:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert config.code == "steane7"
        assert config.error_kind == "bit_flip"
        assert config.placement == Placement.fermi(1)
        assert config.theta_grid == (0.0,)
        assert config.trials == 100
        assert config.seed == 0
        assert config.logical == LogicalQubit(1.0, 0.0)

    def test_defaults_applied(self):
        config = parse_config(
            "code = shor9\nerror.kind = rotation\nerror.placement = all_qubits\ntheta = 0.1\n"
        )
        assert config.trials == 10000
        assert config.seed == 0
        assert config.axis == "y"

    def test_missing_trials_and_seed_take_dataclass_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        config = parse_config(MINIMAL.replace("trials = 100\n", ""))
        assert (config.trials, config.seed) == (defaults["trials"], defaults["seed"])
        assert config.decay_rate == defaults["decay_rate"]
        decay = parse_config(MINIMAL.replace("bit_flip", "decay"))
        assert decay.decay_rate == defaults["decay_rate"]

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            parse_config(MINIMAL + "seed = -1\n")

    def test_colon_separator_and_comments(self):
        config = parse_config(
            "# header comment\ncode: shor9\nerror.kind: bit_flip  # trailing\n"
            "error.placement: all_qubits\ntheta: 0\n"
        )
        assert config.code == "shor9"

    def test_unknown_code_is_line_anchored(self):
        bad = MINIMAL.replace("steane7", "shor8")
        with pytest.raises(ConfigError, match=r"line 1: unknown code 'shor8'"):
            parse_config(bad)

    def test_unknown_error_kind(self):
        bad = MINIMAL.replace("bit_flip", "melting")
        with pytest.raises(ConfigError, match=r"line 2: unknown error kind"):
            parse_config(bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'codename'"):
            parse_config("codename = steane7\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 2: duplicate key"):
            parse_config("code = steane7\ncode = shor9\n")

    def test_fermi_overflow_names_the_bound(self):
        bad = MINIMAL.replace("fermi:1", "fermi:9")
        with pytest.raises(ConfigError, match=r"line 3: fermi placement n=9 exceeds register size N=7"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "placement,message",
        [
            ("fixed:2,9", "fixed placement qubit 9 out of range for 7 qubits"),
            ("fermi:8", "fermi placement n=8 exceeds register size N=7"),
            ("fixed:-1", "fixed placement qubit -1 out of range for 7 qubits"),
        ],
    )
    def test_placement_outside_the_register_is_line_anchored(self, placement, message):
        bad = MINIMAL.replace("fermi:1", placement)
        with pytest.raises(ConfigError, match=rf"^line 3: {message}$"):
            parse_config(bad)

    def test_decay_stacking_is_anchored_at_the_placement(self):
        text = "code = steane7\nerror.kind = decay\nerror.placement = fixed:1,1\ntheta = 0.5\n"
        with pytest.raises(ConfigError, match=r"^line 3: decay placement must not stack"):
            parse_config(text)

    @pytest.mark.parametrize("rate", ["2", "0", "-0.5", "nan", "1.5"])
    def test_decay_rate_outside_unit_interval_is_line_anchored(self, rate):
        text = (
            "code = steane7\nerror.kind = decay\nerror.placement = fixed:0\n"
            f"theta = 0.5\nerror.lambda = {rate}\n"
        )
        with pytest.raises(ConfigError, match=r"^line 5: decay rate must lie in \(0, 1\]"):
            parse_config(text)

    def test_all_qubits_argument_is_line_anchored(self):
        bad = MINIMAL.replace("fermi:1", "all_qubits:3")
        with pytest.raises(ConfigError, match=r"line 3: bad placement 'all_qubits:3'"):
            parse_config(bad)

    @pytest.mark.parametrize("placement", ["fixed:1,,2", "fixed:", "fixed:,", "fixed:3,"])
    def test_malformed_fixed_list_is_line_anchored(self, placement):
        bad = MINIMAL.replace("fermi:1", placement)
        with pytest.raises(
            ConfigError,
            match=rf"line 3: bad placement '{placement}': fixed qubit list has an empty entry",
        ):
            parse_config(bad)

    def test_fixed_list_tolerates_spaces(self):
        config = parse_config(MINIMAL.replace("fermi:1", "fixed: 1, 2"))
        assert config.placement == Placement.fixed([1, 2])

    def test_unnormalized_logical_rejected(self):
        text = MINIMAL + "logical.alpha_re = 0.8\nlogical.beta_re = 0.7\n"
        with pytest.raises(ConfigError, match=r"line 7: .*normalized"):
            parse_config(text)

    def test_real_pythagorean_logical_accepted(self):
        text = MINIMAL + "logical.alpha_re = 0.8\nlogical.beta_re = 0.6\n"
        assert parse_config(text).logical == LogicalQubit(0.8, 0.6)

    def test_theta_range_log(self):
        text = (
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.min = 0.001\ntheta.max = 0.1\ntheta.points = 5\ntheta.scale = log\n"
        )
        grid = parse_config(text).theta_grid
        assert len(grid) == 5
        np.testing.assert_allclose(grid, np.geomspace(1e-3, 1e-1, 5), rtol=1e-12)

    def test_theta_range_linear(self):
        text = (
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.min = 0\ntheta.max = 0.1\ntheta.points = 3\ntheta.scale = linear\n"
        )
        assert parse_config(text).theta_grid == (0.0, 0.05, 0.1)

    def test_theta_list(self):
        text = (
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.list = 0.01,0.02,0.04\n"
        )
        assert parse_config(text).theta_grid == (0.01, 0.02, 0.04)

    def test_conflicting_theta_forms_rejected(self):
        text = MINIMAL + "theta.list = 0.1,0.2\n"
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_config(text)

    def test_missing_theta_rejected(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config("code = steane7\nerror.kind = bit_flip\nerror.placement = all_qubits\n")

    def test_log_scale_needs_positive_min(self):
        text = (
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.min = 0\ntheta.max = 0.1\ntheta.points = 3\ntheta.scale = log\n"
        )
        with pytest.raises(ConfigError, match="theta.min > 0"):
            parse_config(text)

    def test_axis_only_for_rotation(self):
        text = MINIMAL + "error.axis = x\n"
        with pytest.raises(ConfigError, match="only applies to rotation"):
            parse_config(text)

    def test_lambda_only_for_decay(self):
        text = MINIMAL + "error.lambda = 0.4\n"
        with pytest.raises(ConfigError, match="only applies to decay"):
            parse_config(text)

    def test_decay_config(self):
        text = (
            "code = steane7\nerror.kind = decay\nerror.placement = fixed:0\n"
            "error.lambda = 0.25\ntheta.list = 0,1,2\n"
        )
        config = parse_config(text)
        assert config.decay_rate == 0.25

    def test_general_unitary_config(self):
        text = (
            "code = shor9\nerror.kind = general_unitary\nerror.placement = fixed:3\n"
            "error.e1_re = 1\nerror.e2_re = 1\ntheta = 0\n"
        )
        assert parse_config(text).general == GeneralErrorParams(1.0, 1.0)

    def test_general_unitary_rejects_zero_pair(self):
        text = (
            "code = shor9\nerror.kind = general_unitary\nerror.placement = fixed:3\n"
            "error.e1_re = 0\ntheta = 0\n"
        )
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    def test_non_numeric_value_anchored(self):
        bad = MINIMAL.replace("trials = 100", "trials = many")
        with pytest.raises(ConfigError, match=r"line 5: trials must be a int"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "text,field,message",
        [
            (MINIMAL.replace("steane7", "shor8"), "code",
             "line 1: unknown code 'shor8'; expected one of shor9, steane7, uncoded"),
            (MINIMAL.replace("bit_flip", "melting"), "error_kind",
             "line 2: unknown error kind 'melting'; expected one of bit_flip, phase_flip, "
             "bit_and_phase_flip, general_unitary, rotation, decay"),
            (MINIMAL.replace("bit_flip", "rotation") + "error.axis = w\n", "axis",
             "line 6: unknown rotation axis 'w'"),
            (MINIMAL.replace("trials = 100", "trials = 0"), "trials",
             "line 5: trials must be >= 1, got 0"),
            (MINIMAL + "seed = -1\n", "seed", "line 6: seed must be >= 0, got -1"),
            (MINIMAL.replace("theta = 0", "theta = -0.1"), "theta_grid",
             "line 4: theta grid values must be finite and >= 0"),
            (MINIMAL.replace("theta = 0", "theta = nan"), "theta_grid",
             "line 4: theta grid values must be finite and >= 0"),
            (MINIMAL.replace("theta = 0", "theta.list = 0.2,0.1"), "theta_grid",
             "line 4: theta grid must be strictly increasing"),
            (MINIMAL.replace("theta = 0", "theta.min = 0.2\ntheta.max = 0.1\n"
                             "theta.points = 2\ntheta.scale = linear"), "theta_grid",
             "line 7: theta grid must be strictly increasing"),
        ],
        ids=["code", "kind", "axis", "trials", "seed", "negative_theta", "nan_theta",
             "unsorted_list", "decreasing_range"],
    )
    def test_contract_refusal_names_the_line_of_its_key(self, text, field, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as refused:
            parse_config(text)
        assert refused.value.field == field

    @pytest.mark.parametrize(
        "bounds,message",
        [
            ("theta.min = 0.01\ntheta.max = -0.1\ntheta.points = 3\ntheta.scale = log",
             "line 5: log-scaled grids need theta.max > 0"),
            ("theta.min = 0\ntheta.max = inf\ntheta.points = 3\ntheta.scale = linear",
             "line 7: theta grid values must be finite and >= 0"),
            ("theta.min = 0.01\ntheta.max = 0\ntheta.points = 3\ntheta.scale = log",
             "line 5: log-scaled grids need theta.max > 0"),
        ],
        ids=["log_negative_max", "linear_infinite_max", "log_zero_max"],
    )
    def test_theta_range_refusal_is_one_error_line(self, bounds, message, tmp_path, capsys):
        """A range numpy cannot grid cleanly still fails with one anchored
        ``error:`` line: no numpy warning, no unanchored numpy message."""
        path = tmp_path / "range.cfg"
        path.write_text(
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            + bounds + "\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", str(path)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_an_empty_theta_grid_cannot_be_written(self):
        """The range form refuses zero points before any grid is built."""
        text = MINIMAL.replace(
            "theta = 0", "theta.min = 0\ntheta.max = 1\ntheta.points = 0\ntheta.scale = linear"
        )
        with pytest.raises(ConfigError, match=r"^line 6: theta.points must be >= 1$"):
            parse_config(text)

    def test_a_one_point_range_refuses_a_max_it_would_ignore(self, tmp_path, capsys):
        """One point grids theta.min alone, so a theta.max that differs would
        be ignored: the file is refused at its theta.points line, exit 2."""
        path = tmp_path / "one.cfg"
        text = (
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.min = 0.01\ntheta.max = 0.5\ntheta.points = 1\ntrials = 1\n"
        )
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 6: theta.points = 1 grids theta.min alone, "
            "so theta.max must equal it, got 0.5 and 0.01\n"
        )
        path.write_text(text.replace("theta.max = 0.5", "theta.max = 0.01"))
        assert parse_config(path.read_text()).theta_grid == (0.01,)
        assert main(["sweep", "--config", str(path)]) == 0
        assert "\n0.01," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "keys,line",
        [("", 2), ("error.e1_re = 0\n", 4), ("error.e1_re = 0\nerror.e2_im = 0.0\n", 5)],
        ids=["no_key_at_the_kind", "one_key", "last_key"],
    )
    def test_zero_e1_e2_pair_names_its_last_key(self, keys, line):
        text = "code = shor9\nerror.kind = general_unitary\nerror.placement = fixed:3\n"
        with pytest.raises(ConfigError, match=rf"^line {line}: {re.escape(PAIR_REFUSAL)}0\.0$"):
            parse_config(text + keys + "theta = 0\n")

    @pytest.mark.parametrize("command", ["sweep", "inject", "correct"])
    def test_a_pair_too_small_to_normalize_is_refused_at_its_line(
        self, command, tmp_path, capsys
    ):
        """|e1|^2 + |e2|^2 = 1e-320 is subnormal, too coarse to normalize the
        operator by: the config is refused at the pair's line, as the
        ``general`` field, and no command starts."""
        text = (
            "code = steane7\nerror.kind = general_unitary\nerror.placement = fixed:0\n"
            "error.e1_re = 1e-160\ntheta = 0\n"
        )
        message = f"line 4: {PAIR_REFUSAL}1e-320"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as refused:
            parse_config(text)
        assert refused.value.field == "general"
        path = tmp_path / "tiny.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key,value,reader",
        [("error.axis", "y", "rotation"), ("error.lambda", "0.5", "decay"),
         ("error.e2_im", "0", "general_unitary")],
    )
    def test_key_the_kind_does_not_read_is_refused_even_at_its_default(
        self, key, value, reader
    ):
        with pytest.raises(
            ConfigError, match=rf"^line 6: {re.escape(key)} only applies to {reader} errors$"
        ):
            parse_config(MINIMAL + f"{key} = {value}\n")

    def test_config_error_is_the_contract_refusal(self):
        assert ConfigError is qeclab.experiments.ConfigError
        assert issubclass(ConfigError, ValueError)


@st.composite
def drawn_configs(draw):
    """Config fields with ``axis``, ``general`` and ``decay_rate`` drawn for
    every error kind, paired with the same fields with each one the kind
    ignores put back to its default.  Draws whose canonical fields the
    constructors refuse are rejected."""
    code = draw(st.sampled_from(CODE_NAMES))
    n_physical = get_code(code).n_physical
    kind = draw(st.sampled_from(ERROR_KINDS))
    rule = draw(st.sampled_from(["all_qubits", "fixed", "fermi", "bose_einstein"]))
    finite = dict(allow_nan=False, allow_infinity=False)
    unit_pair = st.tuples(st.floats(-2.0, 2.0, **finite), st.floats(-2.0, 2.0, **finite))
    fields = dict(
        code=code,
        error_kind=kind,
        theta_grid=tuple(sorted(draw(
            st.lists(st.floats(0.0, 4.0, **finite), min_size=1, max_size=4, unique=True)
        ))),
        trials=draw(st.integers(1, 10**6)),
        seed=draw(st.one_of(st.integers(0, 2**64), st.integers(2**64, 2**200))),
        axis=draw(st.sampled_from(ROTATION_AXES)),
        decay_rate=draw(st.one_of(
            st.just(ExperimentConfig.decay_rate), st.floats(0.0, 1.0, exclude_min=True)
        )),
    )
    alpha, beta = draw(unit_pair), draw(unit_pair)
    try:
        norm = math.hypot(*alpha, *beta)
        fields["logical"] = LogicalQubit(
            complex(*alpha) / norm, complex(*beta) / norm
        )
        general = GeneralErrorParams(complex(*alpha), complex(*beta))
        fields["general"] = general if kind == "general_unitary" or draw(st.booleans()) else None
        if rule == "all_qubits":
            fields["placement"] = ALL_QUBITS
        elif rule == "fixed":
            fields["placement"] = Placement.fixed(draw(
                st.lists(st.integers(0, n_physical - 1), max_size=3)
            ))
        elif rule == "fermi":
            fields["placement"] = Placement.fermi(draw(st.integers(0, n_physical)))
        else:
            fields["placement"] = Placement.bose_einstein(draw(st.integers(0, 3)))
        canonical = dict(
            fields,
            axis=fields["axis"] if kind == "rotation" else "y",
            general=fields["general"] if kind == "general_unitary" else None,
            decay_rate=(
                fields["decay_rate"] if kind == "decay" else ExperimentConfig.decay_rate
            ),
        )
        ExperimentConfig(**canonical)
    except (ValueError, ZeroDivisionError):
        reject()
    return fields, canonical


class TestEmitRoundTrip:
    def sample_configs(self):
        yield parse_config(MINIMAL)
        yield ExperimentConfig(
            code="shor9",
            error_kind="rotation",
            placement=Placement.fixed([0, 4, 8]),
            theta_grid=(0.001, 0.01, 0.1),
            trials=77,
            seed=123456789,
            logical=LogicalQubit(0.8, 0.6),
            axis="z",
        )
        yield ExperimentConfig(
            code="uncoded",
            error_kind="decay",
            placement=Placement.fixed([0]),
            theta_grid=(0.0, 0.5, 2.75),
            decay_rate=0.125,
        )
        yield ExperimentConfig(
            code="steane7",
            error_kind="general_unitary",
            placement=Placement.bose_einstein(2),
            theta_grid=(0.0,),
            general=GeneralErrorParams(complex(0.3, -1.2), complex(2.0, 0.25)),
        )
        s = 1.0 / math.sqrt(2.0)
        yield ExperimentConfig(
            code="steane7",
            error_kind="rotation",
            placement=Placement.fermi(3),
            theta_grid=tuple(np.geomspace(1e-3, 1e-1, 7)),
            logical=LogicalQubit(complex(0, s), complex(-s, 0)),
        )

    # emit_config's text for each sample config, recorded before emission was
    # driven by the key table; it pins the key order of every CSV header.
    EMITTED = (
        "code = steane7\nerror.kind = bit_flip\nerror.placement = fermi:1\ntheta = 0.0\n"
        "trials = 100\nseed = 0\nlogical.alpha_re = 1.0\nlogical.alpha_im = 0.0\n"
        "logical.beta_re = 0.0\nlogical.beta_im = 0.0\n",
        "code = shor9\nerror.kind = rotation\nerror.axis = z\nerror.placement = fixed:0,4,8\n"
        "theta.list = 0.001,0.01,0.1\ntrials = 77\nseed = 123456789\n"
        "logical.alpha_re = 0.8\nlogical.alpha_im = 0.0\nlogical.beta_re = 0.6\n"
        "logical.beta_im = 0.0\n",
        "code = uncoded\nerror.kind = decay\nerror.lambda = 0.125\nerror.placement = fixed:0\n"
        "theta.list = 0.0,0.5,2.75\ntrials = 10000\nseed = 0\nlogical.alpha_re = 1.0\n"
        "logical.alpha_im = 0.0\nlogical.beta_re = 0.0\nlogical.beta_im = 0.0\n",
        "code = steane7\nerror.kind = general_unitary\nerror.e1_re = 0.3\nerror.e1_im = -1.2\n"
        "error.e2_re = 2.0\nerror.e2_im = 0.25\nerror.placement = bose_einstein:2\n"
        "theta = 0.0\ntrials = 10000\nseed = 0\nlogical.alpha_re = 1.0\n"
        "logical.alpha_im = 0.0\nlogical.beta_re = 0.0\nlogical.beta_im = 0.0\n",
        "code = steane7\nerror.kind = rotation\nerror.axis = y\nerror.placement = fermi:3\n"
        "theta.list = 0.001,0.0021544346900318843,0.004641588833612777,0.01,"
        "0.021544346900318832,0.046415888336127774,0.1\ntrials = 10000\nseed = 0\n"
        "logical.alpha_re = 0.0\nlogical.alpha_im = 0.7071067811865475\n"
        "logical.beta_re = -0.7071067811865475\nlogical.beta_im = 0.0\n",
    )

    def test_emitted_text_is_pinned(self):
        assert tuple(map(emit_config, self.sample_configs())) == self.EMITTED

    @pytest.mark.parametrize(
        "fields",
        [
            {"error_kind": "decay", "decay_rate": np.float64(0.25)},
            {
                "error_kind": "general_unitary",
                "general": GeneralErrorParams(np.complex128(0.3 + 1j), 1.0),
            },
        ],
        ids=["decay_rate", "general"],
    )
    def test_numpy_scalars_are_written_as_numbers(self, fields):
        """A library config built from numpy scalars emits a readable config."""
        config = ExperimentConfig(code="steane7", **fields)
        text = emit_config(config)
        assert "np." not in text
        assert parse_config(text) == config

    def test_parse_of_emit_is_identity(self):
        """parse_config(emit_config(cfg)) == cfg, bit for bit."""
        for config in self.sample_configs():
            assert parse_config(emit_config(config)) == config

    @settings(max_examples=300, deadline=None)
    @given(drawn_configs())
    def test_every_valid_config_round_trips(self, drawn):
        """A field the error kind ignores, set off its default, is refused;
        every config the constructor accepts round-trips."""
        fields, canonical = drawn
        if fields != canonical:
            with pytest.raises(ValueError, match="only appl"):
                ExperimentConfig(**fields)
        config = ExperimentConfig(**canonical)
        assert parse_config(emit_config(config)) == config

    def test_random_configs_round_trip(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            theta_grid = tuple(
                sorted(set(float(t) for t in rng.uniform(1e-4, 1.0, size=3)))
            )
            raw = rng.standard_normal(4)
            norm = math.sqrt(np.sum(raw**2))
            logical = LogicalQubit(
                complex(raw[0], raw[1]) / norm, complex(raw[2], raw[3]) / norm
            )
            config = ExperimentConfig(
                code=str(rng.choice(["shor9", "steane7"])),
                error_kind=str(rng.choice(["bit_flip", "phase_flip", "rotation"])),
                placement=Placement.fermi(int(rng.integers(0, 7))),
                theta_grid=theta_grid,
                trials=int(rng.integers(1, 10_000)),
                seed=int(rng.integers(0, 2**63 - 1)),
                logical=logical,
            )
            assert parse_config(emit_config(config)) == config


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0"), (4.0, "4"), (0.05, "0.05"), (8.0, "8"), (float("nan"), "nan")],
    )
    def test_known_values(self, value, expected):
        assert format_float(value) == expected

    def test_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            value = float(rng.uniform(-1, 1)) * 10 ** float(rng.integers(-12, 3))
            assert float(format_float(value)) == value


SWEEP_ARGV = ["sweep", "--code", "steane7", "--theta", "0.05", "--trials", "3"]


def make_result(rows, slope_coded=float("nan"), slope_uncoded=float("nan")):
    return SweepResult(rows=tuple(rows), slope_coded=slope_coded, slope_uncoded=slope_uncoded)


class TestWriteCsv:
    def test_zero_row_renders_exactly(self):
        """A no-error Steane row is the literal line 0,0,0,0,0,8."""
        result = make_result([SweepRow(0.0, 0.0, 0.0, 0.0, 0.0, 8.0)])
        lines = render_csv(result).splitlines()
        assert lines[0] == "theta,mean_infid_coded,std_coded,mean_infid_uncoded,std_uncoded,mean_support"
        assert lines[1] == "0,0,0,0,0,8"
        assert lines[2] == "# slope_coded=nan"
        assert lines[3] == "# slope_uncoded=nan"

    def test_planted_quartic_footer(self):
        """Footer slope parses back to the planted exponent 4."""
        rows = [
            SweepRow(1e-2, 1e-8, 0.0, 1e-4, 0.0, 128.0),
            SweepRow(1e-1, 1e-4, 0.0, 1e-2, 0.0, 128.0),
        ]
        slope_coded = fit_power_law([(r.theta, r.mean_infid_coded) for r in rows])
        slope_uncoded = fit_power_law([(r.theta, r.mean_infid_uncoded) for r in rows])
        lines = render_csv(make_result(rows, slope_coded, slope_uncoded)).splitlines()
        coded_footer = float(lines[-2].split("=", 1)[1])
        uncoded_footer = float(lines[-1].split("=", 1)[1])
        assert coded_footer == pytest.approx(4.0, abs=1e-12)
        assert uncoded_footer == pytest.approx(2.0, abs=1e-12)

    def test_empty_rows_creates_no_file(self, tmp_path, capsys):
        """A sweep that fails before producing any row writes no file."""
        path = tmp_path / "never.csv"
        argv = ["sweep", "--code", "uncoded", "--placement", "fermi:2", "--out", str(path)]
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_comments_go_on_top(self):
        result = make_result([SweepRow(0.0, 0.0, 0.0, 0.0, 0.0, 8.0)])
        text = render_csv(result, comments=("code = steane7", "seed = 0"))
        lines = text.splitlines()
        assert lines[0] == "# code = steane7"
        assert lines[1] == "# seed = 0"
        assert lines[2].startswith("theta,")

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "out.csv"
        assert main(SWEEP_ARGV + ["--out", str(missing)]) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("relative", ["nowhere/out.csv", "a_directory"])
    def test_failed_write_names_the_out_path(self, relative, tmp_path, capsys):
        """The message names --out, not the random temp file, so it repeats."""
        (tmp_path / "a_directory").mkdir()
        target = tmp_path / relative
        errors = []
        for _ in range(2):
            assert main(["stats", "--be", "3", "1", "--out", str(target)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: [Errno ")
        assert errors[0].endswith(f": {str(target)!r}\n")
        assert ".tmp" not in errors[0]
        assert [p.name for p in tmp_path.iterdir()] == ["a_directory"]
        assert list((tmp_path / "a_directory").iterdir()) == []

    def test_sweep_out_matches_render(self, tmp_path, capsys):
        """The --out file holds exactly the bytes that stdout would carry."""
        out = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        assert main(SWEEP_ARGV) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_existing_sibling_tmp_survives(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        sibling = tmp_path / "sweep.csv.tmp"
        sibling.write_text("mine")
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        assert sibling.read_text() == "mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.csv.tmp"]

    def test_written_file_has_plain_open_mode(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        out = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        assert out.stat().st_mode == plain.stat().st_mode


class TestCliCommands:
    def test_encode_steane_matches_ket_list(self, capsys):
        assert main(["encode", "--code", "steane7", "--logical", "1,0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == STEANE_ENCODE_LINES

    def test_encode_shor_amplitudes(self, capsys):
        assert main(["encode", "--code", "shor9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(line.endswith(" 0.3535533906") for line in lines)

    def test_encode_complex_logical_renders_imag_part(self, capsys):
        assert main(["encode", "--code", "uncoded", "--logical", "0,1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "+1.0000000000i" in out

    def test_stats_bose_einstein(self, capsys):
        assert main(["stats", "--be", "3", "1"]) == 0
        assert capsys.readouterr().out == "1/3\n"

    def test_stats_fermi(self, capsys):
        assert main(["stats", "--fermi", "4", "2"]) == 0
        assert capsys.readouterr().out == "1/6\n"

    def test_stats_requires_a_request(self, capsys):
        assert main(["stats"]) == 2

    @pytest.mark.parametrize("flag,counts", [("--fermi", (20000, 10000)),
                                             ("--fermi", (10**9, 5 * 10**8)),
                                             ("--be", (10**6, 10**6))])
    def test_stats_refuses_a_count_too_long_to_print_before_computing_it(
        self, flag, counts, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("the count was computed")

        monkeypatch.setattr(qeclab.errors.math, "comb", never)
        assert main(["stats", flag, *map(str, counts)]) == 2
        n_cells, n_errors = counts
        assert capsys.readouterr() == (
            "", f"error: the pattern count for N={n_cells}, n={n_errors} has over 4300 digits\n"
        )

    def test_stats_prints_a_count_of_1800_digits(self, capsys):
        assert main(["stats", "--be", "3000", "3000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1/") and 1700 < len(out) < 1900

    def test_proliferate(self, capsys):
        assert main(["proliferate", "--code", "steane7", "--theta", "0.01"]) == 0
        assert capsys.readouterr().out == "support_before,support_after\n8,128\n"

    def test_inject_reports_support(self, capsys):
        assert main(
            ["inject", "--code", "steane7", "--error", "rotation", "--theta", "0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "support = 128"

    def test_correct_round_trip_on_single_qubit_error(self, capsys):
        assert main(
            ["correct", "--code", "shor9", "--error", "bit_flip",
             "--placement", "fixed:4", "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("syndrome = ")
        infidelity = float(lines[2].split("=", 1)[1])
        assert infidelity < 1e-9

    def test_correct_prints_an_exact_correction_exactly(self, capsys):
        """1 - F of a corrected steane7 state reads 4.4e-16 by rounding; its
        weight on the logical complement is 1.5e-32, floored to 0."""
        argv = ["correct", "--code", "steane7", "--error", "rotation", "--axis", "x",
                "--placement", "fixed:0", "--theta", "1.0", "--logical", "0.6,0,0.48,0.64"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["fidelity = 1", "infidelity = 0"]

    @pytest.mark.parametrize("code,seed", [("steane7", 0), ("steane7", 5), ("shor9", 1)])
    def test_correct_infidelity_is_one_minus_fidelity(self, code, seed, capsys):
        """Where a residue survives, the printed infidelity is the leaf of
        the printed syndrome, bit for bit, and 1 - F of the dense oracle's
        recovered state within 1e-15."""
        logical = LogicalQubit(0.6, complex(0.48, 0.64))
        config = ExperimentConfig(code=code, error_kind="rotation", theta_grid=(0.8,),
                                  seed=seed, logical=logical)
        spec = get_code(code)
        rng = np.random.default_rng(seed)
        state = apply_error_model(spec.encoder(logical), model_for(config, 0.8), rng)
        argv = ["correct", "--code", code, "--theta", "0.8", "--seed", str(seed),
                "--logical", "0.6,0,0.48,0.64"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        bits = lines[0].split(" = ")[1]
        printed = float(lines[2].split("=", 1)[1])
        _, outcome, overlaps, weight = _overlaps(state.amps[None], spec._syndromes)
        (at,) = np.flatnonzero(outcome == spec._syndromes.rows[int(bits, 2)])
        assert printed == _leaves(overlaps, weight, logical)[at]
        want = dense_branches(state.amps, code, logical)[bits][1]
        assert want > 1e-12
        assert printed == pytest.approx(want, rel=0, abs=1e-15)

    def test_correct_reads_a_small_residue_without_cancellation(self, capsys):
        """y by 0.01 on every steane7 qubit leaves 3.1e-13 on the trivial
        syndrome: |b|^2 / p, with a_L = <v_L|psi> and b = alpha a_1 - beta a_0.
        1 - F misses it by 3e-16, 1e-3 of it."""
        logical = LogicalQubit(0.6, complex(0.48, 0.64))
        code = get_code("steane7")
        rotation = rotation_unitary(RotationErrorParams("y", 0.01))
        state = apply_product(code.encoder(logical), rotation, range(7)).amps
        zero, one = (code.encoder(LogicalQubit(*ab)).amps for ab in ((1.0, 0.0), (0.0, 1.0)))
        a0, a1 = np.vdot(zero, state), np.vdot(one, state)
        want = abs(logical.alpha * a1 - logical.beta * a0) ** 2 / (abs(a0) ** 2 + abs(a1) ** 2)
        argv = ["correct", "--code", "steane7", "--theta", "0.01", "--logical", "0.6,0,0.48,0.64"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "syndrome = 000000"
        assert float(lines[2].split("=", 1)[1]) == pytest.approx(want, rel=1e-9, abs=0)

    def test_sensitivity_table(self, capsys):
        assert main(["sensitivity", "--qubits", "3", "--theta", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p,relative_damage"
        damages = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(damages) == 12
        assert all(d > 0 for d in damages)

    def test_sweep_writes_csv_with_config_comments(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        text = out.read_text()
        assert "# code = steane7" in text
        assert "theta,mean_infid_coded" in text

    def test_cli_overrides_beat_file_values(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        assert main(
            ["sweep", "--config", str(config), "--trials", "7", "--seed", "5",
             "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "# trials = 7" in text
        assert "# seed = 5" in text

    def test_same_seed_same_bytes(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text(
            "code = steane7\nerror.kind = rotation\nerror.placement = all_qubits\n"
            "theta.list = 0.02,0.05\ntrials = 60\nseed = 4\n"
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--out", str(first)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text(MINIMAL.replace("steane7", "shor8"))
        assert main(["sweep", "--config", str(config)]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_missing_code_exits_2(self, capsys):
        assert main(["encode"]) == 2
        assert "--code or --config" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        assert main(
            ["encode", "--code", "steane7", "--out", str(tmp_path / "no" / "x.txt")]
        ) == 3
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_is_refused_before_the_sweep_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        """The write's own error, naming --out, comes before any trial."""
        calls = []
        monkeypatch.setattr(qeclab.cli, "sweep_theta", lambda config: calls.append(config))
        target = str(tmp_path / "no" / "x.csv")
        assert main(SWEEP_ARGV + ["--trials", "40000", "--out", target]) == 3
        message = f"error: [Errno 2] No such file or directory: {target!r}\n"
        assert capsys.readouterr() == ("", message)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["a_directory", "read_only"])
    def test_an_out_that_access_would_pass_is_refused_before_the_sweep_runs(
        self, case, tmp_path, monkeypatch, capsys
    ):
        """The --out check tries the write's first step, so it also refuses
        targets that a permission check lets through: an existing directory,
        or a directory that refuses new files (as root, /proc does)."""
        calls = []
        monkeypatch.setattr(qeclab.cli, "sweep_theta", lambda config: calls.append(config))
        target, code = tmp_path, errno.EISDIR
        if case == "read_only":
            target, code = tmp_path / "x.csv", errno.EROFS

            def refuse(*args, **kwargs):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS))

            monkeypatch.setattr(qeclab.cli.os, "open", refuse)
        # A bad config is still refused first.
        assert main(SWEEP_ARGV + ["--trials", "0", "--out", str(target)]) == 2
        capsys.readouterr()
        assert main(SWEEP_ARGV + ["--trials", "40000", "--out", str(target)]) == 3
        message = f"error: [Errno {code}] {os.strerror(code)}: {str(target)!r}\n"
        assert capsys.readouterr() == ("", message)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_bad_logical_flag_exits_2(self, capsys):
        assert main(["encode", "--code", "steane7", "--logical", "1"]) == 2

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["encode", "--code", "steane7", "--logical", "1e200,0"], None,
             "logical amplitudes must be normalized, |a|^2+|b|^2 = inf"),
            (["encode", "--code", "steane7", "--logical", "1e308,0,1e308,0"], None,
             "logical amplitudes must be normalized, |a|^2+|b|^2 = inf"),
            (["sweep"], MINIMAL + "logical.alpha_re = 1e200\n",
             "line 6: logical amplitudes must be normalized, |a|^2+|b|^2 = inf"),
            (["sweep"], "code = shor9\nerror.kind = general_unitary\nerror.placement = fixed:3\n"
             "error.e1_re = 1e308\ntheta = 0\n",
             f"line 4: {PAIR_REFUSAL}inf"),
        ],
        ids=["logical_pair", "logical_four", "config_logical", "config_general"],
    )
    def test_an_amplitude_too_large_to_square_exits_2(
        self, argv, text, message, tmp_path, capsys
    ):
        """abs(z) ** 2 overflows above about 1.34e154; the refusal is one error line."""
        if text is not None:
            config = tmp_path / "big.cfg"
            config.write_text(text)
            argv = [*argv, "--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_config_file_exits_3(self, capsys):
        assert main(["sweep", "--config", "/definitely/not/here.txt"]) == 3

    @pytest.mark.parametrize(
        "flags,code,message",
        [
            (["--placement", ""], 2, "error: unknown placement ''\n"),
            (["--logical", ""], 2, "error: --logical takes a_re,a_im or a_re,a_im,b_re,b_im\n"),
            (["--config", ""], 3, "error: [Errno 2] No such file or directory: ''\n"),
            (["--out", ""], 3, "error: [Errno 2] No such file or directory: ''\n"),
        ],
        ids=["placement", "logical", "config", "out"],
    )
    def test_an_empty_flag_value_is_refused(
        self, flags, code, message, tmp_path, monkeypatch, capsys
    ):
        """An empty value is a bad value, not an absent flag."""
        monkeypatch.chdir(tmp_path)
        assert main(SWEEP_ARGV + flags) == code
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []  # no temp file left behind

    def test_sweep_help_shows_the_flag_spellings(self, monkeypatch, capsys):
        """--theta and --error keep their help spelling under their field dests."""
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        assert "\n  --theta THETA         single angle override (radians)\n" in out
        assert (
            "\n  --error {bit_flip,phase_flip,bit_and_phase_flip,general_unitary,rotation,"
            "decay}\n                        error kind override\n"
        ) in out

    @pytest.mark.parametrize("placement", ["fixed:0,1", "bose_einstein:2"])
    def test_decay_sweep_that_stacks_errors_exits_2_up_front(
        self, placement, tmp_path, capsys
    ):
        """The uncoded baseline would stack both errors on its one qubit."""
        out = tmp_path / "never.csv"
        argv = ["sweep", "--code", "steane7", "--error", "decay", "--placement",
                placement, "--theta", "0.5", "--trials", "5", "--out", str(out)]
        assert main(argv) == 2
        assert "must not stack errors" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--code", "steane7", "--placement", "fixed:9"],
             "fixed placement qubit 9 out of range for 7 qubits"),
            (["--code", "steane7", "--placement", "fermi:9"],
             "fermi placement n=9 exceeds register size N=7"),
            (["--config", "{fermi2}", "--code", "uncoded"],
             "fermi placement n=2 exceeds register size N=1"),
        ],
    )
    def test_placement_outside_the_register_exits_2(self, argv, message, tmp_path, capsys):
        config = tmp_path / "fermi2.cfg"
        config.write_text(MINIMAL.replace("fermi:1", "fermi:2"))
        out = tmp_path / "never.csv"
        argv = [arg.format(fermi2=config) for arg in argv]
        assert main(["sweep", *argv, "--theta", "0.1", "--trials", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_axis_flag_off_rotation_exits_2(self, capsys):
        argv = ["sweep", "--code", "steane7", "--error", "bit_flip", "--axis", "x",
                "--theta", "0.1", "--trials", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axis only applies to rotation errors, not bit_flip\n"

    @pytest.mark.parametrize(
        "file_lines,flags,message",
        [
            (None, ["--code", "steane7", "--error", "bit_flip", "--axis", "y"],
             "axis only applies to rotation errors, not bit_flip"),
            ("error.kind = rotation\nerror.axis = y\n", ["--error", "bit_flip"],
             "axis only applies to rotation errors, not bit_flip"),
            ("error.kind = decay\nerror.lambda = 0.5\n", ["--error", "bit_flip"],
             "decay_rate only applies to decay errors, not bit_flip"),
        ],
        ids=["axis_flag", "file_axis", "file_lambda"],
    )
    def test_a_kind_field_set_at_its_default_is_refused(
        self, file_lines, flags, message, tmp_path, capsys
    ):
        """A setting the final kind ignores is refused even at its default,
        whether a flag or the file sets it."""
        if file_lines is not None:
            config = tmp_path / "set.cfg"
            config.write_text(
                "code = steane7\n" + file_lines + "error.placement = fermi:1\ntheta = 0.1\n"
            )
            flags = ["--config", str(config), *flags]
        assert main(["sweep", *flags, "--theta", "0.1", "--trials", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_kind_field_left_unset_is_no_refusal(self, tmp_path, capsys):
        config = tmp_path / "unset.cfg"
        config.write_text(
            "code = steane7\nerror.kind = rotation\nerror.placement = fermi:1\ntheta = 0.1\n"
        )
        assert main(["sweep", "--config", str(config), "--error", "bit_flip",
                     "--theta", "0.1", "--trials", "3"]) == 0
        assert "error.axis" not in capsys.readouterr().out

    def test_error_flag_cannot_drop_the_file_axis(self, tmp_path, capsys):
        """Overriding a rotation file's kind would leave its axis unused."""
        config = tmp_path / "rotation.cfg"
        config.write_text(
            "code = steane7\nerror.kind = rotation\nerror.axis = x\n"
            "error.placement = fermi:1\ntheta = 0.1\ntrials = 3\n"
        )
        assert main(["sweep", "--config", str(config), "--error", "bit_flip"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axis only applies to rotation errors, not bit_flip\n"

    @pytest.mark.parametrize(
        "file_lines,flags,message",
        [
            ("error.kind = decay\nerror.lambda = 0.25\n", ["--error", "bit_flip"],
             "decay_rate only applies to decay errors, not bit_flip"),
            ("error.kind = rotation\n", ["--error", "decay", "--placement", "fixed:2,2"],
             "decay placement must not stack errors on one qubit of the steane7 register"),
            ("error.kind = bit_flip\n", ["--error", "general_unitary"],
             "general_unitary sweeps need e1/e2 parameters"),
        ],
        ids=["kind_drops_lambda", "decay_stacks", "general_without_pair"],
    )
    def test_a_value_the_flags_set_is_refused_without_a_line(
        self, file_lines, flags, message, tmp_path, capsys
    ):
        config = tmp_path / "valid.cfg"
        config.write_text(
            "code = steane7\n" + file_lines + "error.placement = fermi:1\ntheta = 0.1\n"
        )
        assert main(["sweep", "--config", str(config), "--trials", "3", *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_file_faults_are_reported_before_flag_faults(self, tmp_path, capsys):
        """The file is read first: its refusal wins, even where a flag would
        replace the refused value."""
        config = tmp_path / "bad.cfg"
        config.write_text(MINIMAL + "seed = -1\n")
        argv = ["sweep", "--config", str(config), "--seed", "3", "--placement", "fixed:,"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: line 6: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("command", ["inject", "correct"])
    def test_decay_on_two_distinct_qubits_still_runs(self, command, capsys):
        argv = [command, "--code", "steane7", "--error", "decay", "--placement",
                "fixed:0,1", "--theta", "0.5"]
        assert main(argv) == 0

    def test_vanishing_branch_exits_2(self, monkeypatch, capsys):
        def vanish(config):
            raise RuntimeError("sampled projective branch has vanishing norm 0.000e+00")

        monkeypatch.setattr(qeclab.cli, "sweep_theta", vanish)
        assert main(SWEEP_ARGV) == 2
        assert capsys.readouterr().err == (
            "error: sampled projective branch has vanishing norm 0.000e+00\n"
        )

    def test_all_qubits_argument_exits_2(self, capsys):
        assert main(SWEEP_ARGV + ["--placement", "all_qubits:junk"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bad placement 'all_qubits:junk': all_qubits takes no argument\n"
        )

    @pytest.mark.parametrize("placement", ["fixed:1,,2", "fixed:", "fixed:,"])
    def test_malformed_fixed_list_exits_2(self, placement, capsys):
        assert main(SWEEP_ARGV + ["--placement", placement]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: bad placement '{placement}': fixed qubit list has an empty entry\n"
        )

    @pytest.mark.parametrize("command", ["sweep", "inject", "correct"])
    def test_negative_seed_exits_2(self, command, capsys):
        argv = [command, "--code", "steane7", "--theta", "0.05", "--seed", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_unallocatable_trial_budget_exits_2(self, monkeypatch, capsys):
        def too_big(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(qeclab.cli, "sweep_theta", too_big)
        assert main(SWEEP_ARGV) == 2
        assert capsys.readouterr().err == (
            "error: Unable to allocate 7.28 TiB for an array\n"
        )

    def test_missing_recovery_entry_exits_2(self, monkeypatch, capsys):
        def missing(weight, table, rng):
            raise LookupError("recovery table for shor9 is missing syndrome")

        monkeypatch.setattr(qeclab.cli, "_draw_syndrome", missing)
        argv = ["correct", "--code", "shor9", "--error", "bit_flip", "--placement", "fixed:4"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: recovery table for shor9 is missing syndrome\n"
        )


class TestCorrectPrintsTheSweepLeaf:
    """``correct`` prints, bit for bit, the leaf that ``_moments`` sums for
    the outcome it prints, the one representation of an outcome's
    infidelity."""

    KINDS = [["--error", "rotation", "--axis", axis] for axis in "xyz"] + [["--error", "decay"]]
    PLACEMENTS = ["all_qubits", "fixed:1,4", "fixed:0,1,2", "bose_einstein:2"]
    LOGICALS = ["1,0,0,0", "0,0,1,0", "0.6,0,0.48,0.64"]

    @pytest.mark.parametrize("code", ["steane7", "shor9"])
    def test_printed_infidelity_is_the_summed_leaf(self, code, monkeypatch, capsys):
        summed = []

        def spy(*args):
            leaf = _leaves(*args)
            summed.append(leaf.copy())  # _moments centres its leaves in place
            return leaf

        monkeypatch.setattr(qeclab.experiments, "_leaves", spy)
        spec, runs, nonzero = get_code(code), 0, 0
        for kind, placement, logical, seed in itertools.product(
            self.KINDS, self.PLACEMENTS, self.LOGICALS, range(4)
        ):
            if kind[1] == "decay" and placement == "bose_einstein:2":
                continue  # refused: decay must not stack errors
            argv = ["correct", "--code", code, *kind, "--placement", placement,
                    "--theta", "0.8", "--logical", logical, "--seed", str(seed)]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            bits, printed = lines[0].split(" = ")[1], float(lines[2].split(" = ")[1])
            # The same trial as a sweep evaluates it: the occupancy drawn from
            # the command's stream, injected as a block of one row.
            config = qeclab.cli._resolve_experiment(qeclab.cli._build_parser().parse_args(argv))
            occupancy = resolve_occupancy(
                config.placement, spec.n_physical, np.random.default_rng(seed)
            )
            block = _injector(model_for(config, 0.8))(spec.encoder(config.logical), occupancy[None])
            summed.clear()
            (mean,), _ = _moments(block, spec._syndromes, config.logical)
            (leaf,) = summed
            weight = dense_overlaps(block, spec._syndromes)[2][0]
            assert mean == min(float(weight[weight > 0.0] @ leaf), 1.0)
            row = spec._syndromes.rows[int(bits, 2)]
            assert weight[row] > 0.0
            assert printed == leaf[np.count_nonzero(weight[:row])], argv
            runs, nonzero = runs + 1, nonzero + (printed > 0.0)
        assert runs == 180 and nonzero > 30


def _run_cli(argv, capsys):
    """One in-process command: (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CONFIG_FLAGS = ["--config", "--code", "--error", "--placement", "--axis", "--theta",
                "--trials", "--seed", "--logical"]
SHOT_FLAGS = [flag for flag in CONFIG_FLAGS if flag != "--trials"]

# The flags each command reads, in help order; every command also takes --out.
COMMAND_FLAGS = {
    "encode": ["--config", "--code", "--logical"],
    "inject": SHOT_FLAGS,
    "correct": SHOT_FLAGS,
    "sweep": CONFIG_FLAGS,
    "proliferate": ["--config", "--code", "--theta"],
    "sensitivity": ["--qubits", "--theta"],
    "stats": ["--be", "--fermi"],
}

# Flags a command used to register but never read.
REMOVED_FLAGS = [
    *(("encode", flag, value) for flag, value in (
        ("--error", "rotation"), ("--placement", "fixed:0"), ("--axis", "x"),
        ("--theta", "0.1"), ("--trials", "3"), ("--seed", "1"),
    )),
    *(("proliferate", flag, value) for flag, value in (
        ("--error", "decay"), ("--placement", "fixed:0"), ("--axis", "x"),
        ("--trials", "3"), ("--seed", "1"), ("--logical", "0,1"),
    )),
    ("inject", "--trials", "3"),
    ("correct", "--trials", "3"),
]


class TestCommandFlags:
    def test_each_command_registers_the_flags_it_reads(self):
        parser = qeclab.cli._build_parser()
        (commands,) = [
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        registered = {
            name: [flag for action in sub._actions for flag in action.option_strings]
            for name, sub in commands.items()
        }
        assert registered == {
            name: ["-h", "--help", *flags, "--out"] for name, flags in COMMAND_FLAGS.items()
        }

    @pytest.mark.parametrize(
        "command,flag,value", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS]
    )
    def test_a_flag_the_command_does_not_read_exits_2(
        self, command, flag, value, tmp_path, capsys
    ):
        out = tmp_path / "never.txt"
        argv = [command, "--code", "steane7", flag, value, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} {value}\n" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["encode", "proliferate", "correct"])
    def test_a_refused_flag_is_reported_under_the_command_usage(self, command, capsys):
        """The usage line and the error name the command that was run, and
        the usage lists the flags it takes."""
        assert main([command, "--code", "steane7", "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: qeclab {command} [-h] [--config CONFIG]")
        assert captured.err.endswith(
            f"qeclab {command}: error: unrecognized arguments: --trials 3\n"
        )

    @pytest.mark.parametrize("command", ["inject", "correct", "proliferate"])
    def test_a_one_angle_command_refuses_a_theta_grid(self, command, tmp_path, capsys):
        """A grid of several angles exits 2, ahead of an unwritable --out,
        instead of running its first angle."""
        config = tmp_path / "grid.cfg"
        config.write_text(MINIMAL.replace("theta = 0", "theta.list = 0.05,0.2"))
        argv = [command, "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {command} runs one angle, but the theta grid has 2; give one theta\n"
        )
        assert main([command, "--config", str(config), "--theta", "0.05"]) == 0

    def test_a_theta_grid_is_read_by_sweep_and_ignored_by_encode(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(MINIMAL.replace("theta = 0", "theta.list = 0.05,0.2"))
        assert main(["sweep", "--config", str(config), "--trials", "3"]) == 0
        assert main(["encode", "--config", str(config)]) == 0


class TestSharedParser:
    def test_import_builds_no_parser(self, monkeypatch):
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        spec = importlib.util.spec_from_file_location(
            "qeclab._fresh_cli", qeclab.cli.__file__
        )
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        assert built == []
        assert fresh._build_parser.cache_info().currsize == 0

    def test_main_calls_share_one_parser(self, monkeypatch, capsys):
        built = []
        shared = qeclab.cli._build_parser

        def recording():
            built.append(shared())
            return built[-1]

        monkeypatch.setattr(qeclab.cli, "_build_parser", recording)
        assert main(["stats", "--be", "3", "1"]) == 0
        assert main(["encode", "--code", "steane7"]) == 0
        assert len(built) == 2 and built[0] is built[1]

    def test_shared_parser_is_invisible(self, monkeypatch, tmp_path, capsys):
        """A command sequence gives the same bytes as with a fresh parser per call."""
        config = tmp_path / "cfg.txt"
        config.write_text(MINIMAL)
        out = tmp_path / "correct.txt"
        sequence = [
            ["sensitivity", "--theta", "0.1"],
            ["sensitivity"],
            ["sensitivity", "--theta", "0.05"],
            ["correct", "--config", str(config), "--code", "shor9", "--error", "rotation",
             "--placement", "fixed:4", "--axis", "x", "--theta", "0.3", "--seed", "5",
             "--logical", "0.6,0,0.48,0.64", "--out", str(out)],
            ["encode"],
            ["correct", "--theta", "not-a-number"],
            ["encode", "--code", "steane7"],
            ["--help"],
            ["sweep", "--code", "steane7", "--placement", "fermi:1", "--theta", "0.2",
             "--trials", "4"],
            ["stats", "--be", "3", "1"],
        ]

        def run_sequence():
            results = []
            for argv in sequence:
                results.append(_run_cli(argv, capsys))
                if out.exists():
                    results.append(out.read_text())
                    out.unlink()
            return results

        shared = run_sequence()
        monkeypatch.setattr(qeclab.cli, "_build_parser", qeclab.cli._build_parser.__wrapped__)
        fresh = run_sequence()
        assert shared == fresh
        # sensitivity without --theta uses the 0.05 default, not the 0.1 before it
        assert shared[1] == shared[2] != shared[0]
        # the correct command wrote its file; encode with no flags kept none of them
        assert shared[3][0] == 0 and shared[4].startswith("syndrome = ")
        assert shared[5] == (2, "", "error: no code selected: pass --code or --config\n")
        assert shared[6][0] == 2 and shared[7][0] == 0
        assert shared[8][0] == 0
        assert shared[9][0] == 0 and shared[10] == (0, "1/3\n", "")


def _reference_state_lines(state):
    """The per-amplitude loop that _state_lines replaced, kept as its oracle."""
    width = state.n_qubits
    lines = []
    for index, amp in enumerate(state.amps):
        if abs(amp) > 1e-12:
            if abs(amp.imag) <= 1e-12:
                text = f"{amp.real:.10f}"
            else:
                text = f"{amp.real:.10f}{amp.imag:+.10f}i"
            lines.append(f"|{index:0{width}b}> {text}")
    return lines


_EDGE = 1e-12
_EDGE_PARTS = st.sampled_from([
    _EDGE, -_EDGE, np.nextafter(_EDGE, 1.0), np.nextafter(_EDGE, 0.0),
    -np.nextafter(_EDGE, 1.0), 0.0, -0.0,
])
_PARTS = st.one_of(
    _EDGE_PARTS,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-2e-12, 2e-12, allow_nan=False),
)


@st.composite
def _edge_amplitude(draw):
    """An amplitude with modulus at, just above or just below 1e-12, or a part there."""
    form = draw(st.sampled_from(["parts", "circle", "imag_edge"]))
    if form == "circle":
        # modulus 1e-12 up to rounding, which lands on either side
        phi = draw(st.floats(0.0, 2 * math.pi))
        scale = draw(st.sampled_from([1.0, 1.0 + 2**-52, 1.0 - 2**-53]))
        return complex(_EDGE * scale * math.cos(phi), _EDGE * scale * math.sin(phi))
    if form == "imag_edge":
        return complex(draw(_PARTS), draw(st.sampled_from([_EDGE, -_EDGE])))
    return complex(draw(_PARTS), draw(_PARTS))


@st.composite
def _states(draw):
    n_qubits = draw(st.integers(1, 10))
    dim = 1 << n_qubits
    background = draw(st.sampled_from(["zeros", "normal", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if background == "zeros":
        amps = np.zeros(dim, dtype=np.complex128)
    else:
        scale = 1.0 if background == "normal" else _EDGE
        amps = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    edges = draw(st.lists(
        st.tuples(st.integers(0, dim - 1), _edge_amplitude()), max_size=min(dim, 24)
    ))
    for index, amp in edges:
        amps[index] = amp
    if draw(st.booleans()):
        amps = amps.real + draw(st.sampled_from([0.0, -0.0])) * 1j
    return qeclab.cli.StateVector(n_qubits, amps)


class TestStateLines:
    @settings(max_examples=300, deadline=None)
    @given(_states())
    def test_matches_the_per_amplitude_loop(self, state):
        assert qeclab.cli._state_lines(state) == _reference_state_lines(state)

    def test_support_size_counts_the_printed_kets(self, capsys):
        # |amp| is 1e-12 as abs() rounds it, one ulp above as np.abs does.
        amps = np.array([1.0, complex(-8.41620980565793e-13, 5.400686299642604e-13)])
        state = qeclab.cli.StateVector(1, amps)
        assert qeclab.cli._state_lines(state) == ["|0> 1.0000000000"]
        assert qeclab.cli.support_size(state, qeclab.cli.SUPPORT_THRESHOLD) == 1

    @settings(max_examples=200, deadline=None)
    @given(_states())
    def test_support_size_matches_the_printed_kets(self, state):
        printed = qeclab.cli._state_lines(state)
        assert qeclab.cli.support_size(state, qeclab.cli.SUPPORT_THRESHOLD) == len(printed)

    def test_threshold_is_strict_and_imag_sign_is_printed(self):
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = 1e-12
        amps[1] = complex(0.5, 1e-12)
        amps[2] = complex(-0.0, -0.25)
        amps[3] = complex(0.125, np.nextafter(1e-12, 1.0))
        lines = qeclab.cli._state_lines(qeclab.cli.StateVector(2, amps))
        assert lines == [
            "|01> 0.5000000000",
            "|10> -0.0000000000-0.2500000000i",
            "|11> 0.1250000000+0.0000000000i",
        ]
        assert lines == _reference_state_lines(qeclab.cli.StateVector(2, amps))
