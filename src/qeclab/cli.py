"""Command-line front end: encode/inject/correct single shots, Monte Carlo
sweeps, proliferation and sensitivity tables, and exact pattern statistics.

Config files are flat ``key = value`` documents (``:`` also accepted as a
separator, ``#`` starts a comment).  Recognized keys:

    code                     shor9 | steane7 | uncoded
    error.kind               bit_flip | phase_flip | bit_and_phase_flip |
                             rotation | general_unitary | decay
    error.placement          all_qubits | fixed:Q1,Q2,... | fermi:N |
                             bose_einstein:N
    error.axis               x | y | z          (rotation only, default y)
    error.lambda             decay rate in (0,1] (decay only, default 0.5)
    error.e1_re/.e1_im/.e2_re/.e2_im             (general_unitary only)
    theta                    single angle, or instead:
    theta.list               comma-separated angles, or instead:
    theta.min/.max/.points/.scale     scale is linear | log
    trials                   default 10000
    seed                     integer >= 0, default 0
    logical.alpha_re/.alpha_im/.beta_re/.beta_im  default (1, 0)

Unknown keys and placements that do not fit the register are rejected
with their line number.  Inline flags override file values; a value the
resulting error kind ignores is a config error.  All output is
byte-deterministic for a fixed seed; files are written atomically (temp
file + rename), never partially.

Exit codes: 0 success, 2 config/validation error or a simulation that
cannot continue (a vanishing measurement branch, a missing recovery-table
entry, a trial budget too large to allocate), 3 I/O error.

``main(argv)`` is re-entrant, so tests and notebooks can call it
in-process any number of times.  Every call in a process shares one
argument parser, built on the first call (not at import).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from .codes import CODE_NAMES, LogicalQubit, extract_syndrome, get_code, recover
from .errors import (
    ALL_QUBITS,
    ERROR_KINDS,
    ROTATION_AXES,
    DecayModel,
    GeneralErrorParams,
    Placement,
    apply_error_model,
    bose_einstein_pattern_prob,
    fermi_pattern_prob,
)
from .experiments import (
    SUPPORT_THRESHOLD,
    ExperimentConfig,
    SweepResult,
    _check_placement,
    model_for,
    proliferation_experiment,
    sensitivity_experiment,
    sweep_theta,
)
from .statevec import StateVector, fidelity, support_size

EXIT_OK, EXIT_CONFIG, EXIT_IO = 0, 2, 3

CSV_HEADER = "theta,mean_infid_coded,std_coded,mean_infid_uncoded,std_uncoded,mean_support"

SENSITIVITY_P_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

_PRINT_THRESHOLD = 1e-12


class ConfigError(ValueError):
    """A config document or flag combination that cannot be accepted."""


# ---------------------------------------------------------------------------
# Config parsing and emission
# ---------------------------------------------------------------------------

_SIMPLE_KEYS = {
    "code",
    "error.kind",
    "error.placement",
    "error.axis",
    "error.lambda",
    "error.e1_re",
    "error.e1_im",
    "error.e2_re",
    "error.e2_im",
    "theta",
    "theta.list",
    "theta.min",
    "theta.max",
    "theta.points",
    "theta.scale",
    "trials",
    "seed",
    "logical.alpha_re",
    "logical.alpha_im",
    "logical.beta_re",
    "logical.beta_im",
}


def _scan(text: str) -> dict[str, tuple[int, str]]:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip().strip("\"'")
        if key not in _SIMPLE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)
    return entries


_MISSING = object()


class _Doc:
    def __init__(self, entries: dict[str, tuple[int, str]]):
        self.entries = entries

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def line(self, key: str) -> int:
        return self.entries[key][0]

    def parse(self, key: str, kind, default=_MISSING):
        if key not in self.entries:
            if default is _MISSING:
                raise ConfigError(f"missing required key {key!r}")
            return default
        lineno, value = self.entries[key]
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} must be a {kind.__name__}, got {value!r}"
            ) from None

    def reject(self, key: str, why: str) -> None:
        if key in self.entries:
            raise ConfigError(f"line {self.line(key)}: {why}")


def _parse_placement(value: str, lineno: int | None = None) -> Placement:
    where = f"line {lineno}: " if lineno is not None else ""
    rule, sep, arg = value.partition(":")
    rule = rule.strip()
    try:
        if rule == "all_qubits":
            if sep:
                raise ValueError("all_qubits takes no argument")
            return ALL_QUBITS
        if rule == "fixed":
            entries = arg.split(",")
            if any(q.strip() == "" for q in entries):
                raise ValueError("fixed qubit list has an empty entry")
            return Placement.fixed([int(q) for q in entries])
        if rule in ("fermi", "bose_einstein"):
            return Placement(rule, n_errors=int(arg))
    except ValueError as exc:
        raise ConfigError(f"{where}bad placement {value!r}: {exc}") from None
    raise ConfigError(f"{where}unknown placement {value!r}")


def _theta_grid_from_doc(doc: _Doc) -> tuple[float, ...]:
    forms = [k for k in ("theta", "theta.list", "theta.min") if k in doc]
    if len(forms) != 1:
        raise ConfigError(
            "exactly one of theta, theta.list, or theta.min/max/points is required"
        )
    if "theta" in doc:
        for key in ("theta.max", "theta.points", "theta.scale"):
            doc.reject(key, f"{key} cannot be combined with a single theta")
        return (doc.parse("theta", float),)
    if "theta.list" in doc:
        for key in ("theta.max", "theta.points", "theta.scale"):
            doc.reject(key, f"{key} cannot be combined with theta.list")
        lineno, value = doc.entries["theta.list"]
        try:
            return tuple(float(v) for v in value.split(","))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: theta.list must be comma-separated numbers"
            ) from None
    lo = doc.parse("theta.min", float)
    hi = doc.parse("theta.max", float)
    points = doc.parse("theta.points", int)
    scale = doc.parse("theta.scale", str, "log")
    if scale not in ("linear", "log"):
        raise ConfigError(
            f"line {doc.line('theta.scale')}: theta.scale must be linear or log"
        )
    if points < 1:
        raise ConfigError(f"line {doc.line('theta.points')}: theta.points must be >= 1")
    if scale == "log":
        if lo <= 0:
            raise ConfigError(
                f"line {doc.line('theta.min')}: log-scaled grids need theta.min > 0"
            )
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    return tuple(float(t) for t in grid)


def _logical_from_doc(doc: _Doc) -> LogicalQubit:
    keys = ("logical.alpha_re", "logical.alpha_im", "logical.beta_re", "logical.beta_im")
    if not any(k in doc for k in keys):
        return LogicalQubit(1.0, 0.0)
    values = [doc.parse(k, float, default=0.0) for k in keys]
    anchor = max(doc.line(k) for k in keys if k in doc)
    try:
        return LogicalQubit(complex(values[0], values[1]), complex(values[2], values[3]))
    except ValueError as exc:
        raise ConfigError(f"line {anchor}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat config document into a validated ExperimentConfig."""
    doc = _Doc(_scan(text))

    code = doc.parse("code", str)
    if code not in CODE_NAMES:
        raise ConfigError(
            f"line {doc.line('code')}: unknown code {code!r}; "
            f"expected one of {', '.join(CODE_NAMES)}"
        )
    kind = doc.parse("error.kind", str)
    if kind not in ERROR_KINDS:
        raise ConfigError(
            f"line {doc.line('error.kind')}: unknown error kind {kind!r}; "
            f"expected one of {', '.join(ERROR_KINDS)}"
        )

    if "error.placement" not in doc:
        raise ConfigError("missing required key 'error.placement'")
    placement_line, placement_raw = doc.entries["error.placement"]
    placement = _parse_placement(placement_raw, placement_line)
    try:
        _check_placement(placement, code, kind)
    except ValueError as exc:
        raise ConfigError(f"line {placement_line}: {exc}") from None

    axis = "y"
    if kind == "rotation":
        axis = doc.parse("error.axis", str, "y")
        if axis not in ROTATION_AXES:
            raise ConfigError(
                f"line {doc.line('error.axis')}: unknown axis {axis!r}"
            )
    else:
        doc.reject("error.axis", "error.axis only applies to rotation errors")

    decay_rate = ExperimentConfig.decay_rate
    if kind == "decay":
        decay_rate = doc.parse("error.lambda", float, default=decay_rate)
        try:
            DecayModel(decay_rate, 0.0)
        except ValueError as exc:
            raise ConfigError(f"line {doc.line('error.lambda')}: {exc}") from None
    else:
        doc.reject("error.lambda", "error.lambda only applies to decay errors")

    general = None
    general_keys = ("error.e1_re", "error.e1_im", "error.e2_re", "error.e2_im")
    if kind == "general_unitary":
        values = [doc.parse(k, float, default=0.0) for k in general_keys]
        anchor = max(
            (doc.line(k) for k in general_keys if k in doc),
            default=doc.line("error.kind"),
        )
        try:
            general = GeneralErrorParams(
                complex(values[0], values[1]), complex(values[2], values[3])
            )
        except ValueError as exc:
            raise ConfigError(f"line {anchor}: {exc}") from None
    else:
        for key in general_keys:
            doc.reject(key, f"{key} only applies to general_unitary errors")

    try:
        return ExperimentConfig(
            code=code,
            error_kind=kind,
            placement=placement,
            theta_grid=_theta_grid_from_doc(doc),
            trials=doc.parse("trials", int, default=ExperimentConfig.trials),
            seed=doc.parse("seed", int, default=ExperimentConfig.seed),
            logical=_logical_from_doc(doc),
            axis=axis,
            general=general,
            decay_rate=decay_rate,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def emit_config(config: ExperimentConfig) -> str:
    """Render a config as the canonical flat document; parse round-trips it."""
    lines = [f"code = {config.code}", f"error.kind = {config.error_kind}"]
    if config.error_kind == "rotation":
        lines.append(f"error.axis = {config.axis}")
    if config.error_kind == "decay":
        lines.append(f"error.lambda = {config.decay_rate!r}")
    if config.error_kind == "general_unitary" and config.general is not None:
        lines.append(f"error.e1_re = {config.general.e1.real!r}")
        lines.append(f"error.e1_im = {config.general.e1.imag!r}")
        lines.append(f"error.e2_re = {config.general.e2.real!r}")
        lines.append(f"error.e2_im = {config.general.e2.imag!r}")
    placement = config.placement
    if placement.rule == "all_qubits":
        lines.append("error.placement = all_qubits")
    elif placement.rule == "fixed":
        lines.append(
            "error.placement = fixed:" + ",".join(str(q) for q in placement.qubits)
        )
    else:
        lines.append(f"error.placement = {placement.rule}:{placement.n_errors}")
    if len(config.theta_grid) == 1:
        lines.append(f"theta = {config.theta_grid[0]!r}")
    else:
        lines.append("theta.list = " + ",".join(repr(t) for t in config.theta_grid))
    lines.append(f"trials = {config.trials}")
    lines.append(f"seed = {config.seed}")
    lines.append(f"logical.alpha_re = {config.logical.alpha.real!r}")
    lines.append(f"logical.alpha_im = {config.logical.alpha.imag!r}")
    lines.append(f"logical.beta_re = {config.logical.beta.real!r}")
    lines.append(f"logical.beta_im = {config.logical.beta.imag!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def format_float(value: float) -> str:
    """Shortest decimal that round-trips the value (nan spelled as nan)."""
    if math.isnan(value):
        return "nan"
    return np.format_float_positional(value, unique=True, trim="-")


def _format_amplitude(re: float, im: float) -> str:
    if abs(im) <= _PRINT_THRESHOLD:
        return f"{re:.10f}"
    return f"{re:.10f}{im:+.10f}i"


def _state_lines(state: StateVector) -> list[str]:
    # np.hypot rounds as abs() of a complex scalar does; np.abs on a complex
    # array can differ in the last bit and move a ket across the threshold.
    amps = state.amps
    kept = np.flatnonzero(np.hypot(amps.real, amps.imag) > _PRINT_THRESHOLD)
    width = state.n_qubits
    return [
        f"|{index:0{width}b}> {_format_amplitude(re, im)}"
        for index, re, im in zip(
            kept.tolist(), amps.real[kept].tolist(), amps.imag[kept].tolist()
        )
    ]


def render_csv(result: SweepResult, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(CSV_HEADER)
    for row in result.rows:
        lines.append(
            ",".join(
                format_float(v)
                for v in (
                    row.theta,
                    row.mean_infid_coded,
                    row.std_coded,
                    row.mean_infid_uncoded,
                    row.std_uncoded,
                    row.mean_support,
                )
            )
        )
    lines.append(f"# slope_coded={format_float(result.slope_coded)}")
    lines.append(f"# slope_uncoded={format_float(result.slope_uncoded)}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    # A unique sibling temp file, so concurrent writers never share one;
    # mode 0o666 under the umask is what open(path, "w") would give.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # Name ``path``, not the random temp file, so that the message is
        # the same from run to run.
        raise OSError(exc.errno, exc.strerror, path) from None


def _deliver(text: str, out_path: str | None) -> None:
    if out_path:
        _write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _parse_logical_flag(value: str) -> LogicalQubit:
    parts = value.split(",")
    if len(parts) not in (2, 4):
        raise ConfigError(
            "--logical takes a_re,a_im or a_re,a_im,b_re,b_im"
        )
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--logical values must be numbers, got {value!r}") from None
    alpha = complex(numbers[0], numbers[1])
    if len(numbers) == 4:
        beta = complex(numbers[2], numbers[3])
    else:
        beta = complex(math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)), 0.0)
    try:
        return LogicalQubit(alpha, beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_experiment(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {"error_kind": "rotation"}
    if getattr(args, "config", None):
        file_config = parse_config(_read_text(args.config))
        fields = {
            f.name: getattr(file_config, f.name)
            for f in dataclasses.fields(ExperimentConfig)
        }
    if getattr(args, "code", None):
        fields["code"] = args.code
    if "code" not in fields:
        raise ConfigError("no code selected: pass --code or --config")
    if getattr(args, "error", None):
        fields["error_kind"] = args.error
    if getattr(args, "placement", None):
        fields["placement"] = _parse_placement(args.placement)
    if getattr(args, "axis", None):
        fields["axis"] = args.axis
    if getattr(args, "theta", None) is not None:
        fields["theta_grid"] = (args.theta,)
    if getattr(args, "trials", None) is not None:
        fields["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    if getattr(args, "logical", None):
        fields["logical"] = _parse_logical_flag(args.logical)
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_encode(args: argparse.Namespace) -> None:
    config = _resolve_experiment(args)
    state = get_code(config.code).encoder(config.logical)
    _deliver("\n".join(_state_lines(state)) + "\n", args.out)


def _cmd_inject(args: argparse.Namespace) -> None:
    config = _resolve_experiment(args)
    code = get_code(config.code)
    rng = np.random.default_rng(config.seed)
    state = apply_error_model(
        code.encoder(config.logical), model_for(config, config.theta_grid[0]), rng
    )
    lines = [f"support = {support_size(state, SUPPORT_THRESHOLD)}"]
    lines.extend(_state_lines(state))
    _deliver("\n".join(lines) + "\n", args.out)


def _cmd_correct(args: argparse.Namespace) -> None:
    config = _resolve_experiment(args)
    code = get_code(config.code)
    rng = np.random.default_rng(config.seed)
    encoded = code.encoder(config.logical)
    state = apply_error_model(encoded, model_for(config, config.theta_grid[0]), rng)
    syndrome = extract_syndrome(state, code, rng)
    corrected = recover(syndrome, code)
    fid = fidelity(corrected, encoded)
    lines = [
        "syndrome = " + "".join(map(str, syndrome.bits)),
        f"fidelity = {format_float(fid)}",
        f"infidelity = {format_float(1.0 - fid)}",
    ]
    _deliver("\n".join(lines) + "\n", args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = _resolve_experiment(args)
    result = sweep_theta(config)
    comments = tuple(emit_config(config).splitlines())
    _deliver(render_csv(result, comments), args.out)


def _cmd_proliferate(args: argparse.Namespace) -> None:
    config = _resolve_experiment(args)
    before, after = proliferation_experiment(config.code, config.theta_grid[0])
    _deliver(f"support_before,support_after\n{before},{after}\n", args.out)


def _cmd_sensitivity(args: argparse.Namespace) -> None:
    theta = args.theta if args.theta is not None else 0.05
    lines = ["p,relative_damage"]
    for p in SENSITIVITY_P_GRID:
        damage = sensitivity_experiment(args.qubits, p, theta)
        lines.append(f"{format_float(p)},{format_float(damage)}")
    _deliver("\n".join(lines) + "\n", args.out)


def _cmd_stats(args: argparse.Namespace) -> None:
    if args.be is None and args.fermi is None:
        raise ConfigError("stats needs --be N n and/or --fermi N n")
    lines = []
    if args.be is not None:
        n_cells, n_errors = args.be
        lines.append(str(bose_einstein_pattern_prob(n_cells, n_errors)))
    if args.fermi is not None:
        n_cells, n_errors = args.fermi
        lines.append(str(fermi_pattern_prob(n_cells, n_errors)))
    _deliver("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--code", choices=CODE_NAMES, help="code name override")
    parser.add_argument("--error", choices=ERROR_KINDS, help="error kind override")
    parser.add_argument("--placement", help="placement override, e.g. fermi:1")
    parser.add_argument("--axis", choices=ROTATION_AXES, help="rotation axis override")
    parser.add_argument("--theta", type=float, help="single angle override (radians)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per grid point")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument(
        "--logical", help="logical amplitudes a_re,a_im[,b_re,b_im]"
    )
    parser.add_argument("--out", help="output file path (default: stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="qeclab",
        description="Quantum error-correction lab: codes, analog errors, sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("encode", _cmd_encode, "print a codeword's nonzero kets and amplitudes"),
        ("inject", _cmd_inject, "encode, apply the error model, print the state"),
        ("correct", _cmd_correct, "encode, inject, measure syndrome, recover"),
        ("sweep", _cmd_sweep, "Monte Carlo infidelity sweep over a theta grid"),
        ("proliferate", _cmd_proliferate, "component counts before/after rotation"),
        ("sensitivity", _cmd_sensitivity, "relative damage across a p grid"),
        ("stats", _cmd_stats, "exact occupancy-pattern probabilities"),
    ]
    for name, func, help_text in specs:
        sub = subparsers.add_parser(name, help=help_text)
        if name == "sensitivity":
            sub.add_argument("--qubits", type=int, default=5, help="register size")
            sub.add_argument("--theta", type=float, help="rotation angle (default 0.05)")
            sub.add_argument("--out", help="output file path (default: stdout)")
        elif name == "stats":
            sub.add_argument(
                "--be", nargs=2, type=int, metavar=("N", "n"),
                help="Bose-Einstein pattern probability for N cells, n errors",
            )
            sub.add_argument(
                "--fermi", nargs=2, type=int, metavar=("N", "n"),
                help="Fermi pattern probability for N cells, n errors",
            )
            sub.add_argument("--out", help="output file path (default: stdout)")
        else:
            _add_common(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # ValueError covers ConfigError; the others are a vanishing measurement
    # branch, a missing recovery-table entry and an unallocatable budget.
    except (ValueError, RuntimeError, LookupError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
