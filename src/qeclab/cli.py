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

The rules of the contract live in ``ExperimentConfig``; this module only
translates keys.  Unknown keys, and any value a file sets that the
contract refuses, are reported with their line number.  Inline flags
override file values: a flag overrides the field its dest names
(``--error`` sets ``error_kind``, ``--theta`` a one-angle ``theta_grid``),
and an empty flag value is refused, never ignored.  A value the file or a
flag sets that the resulting error kind ignores is a config error, even
at its default.  All output is byte-deterministic for a fixed seed; files
are written atomically (temp file + rename), never partially.

Each command registers only the flags it reads, as ``_COMMANDS`` lists
them; any other flag is refused under that command's usage line.
``inject``, ``correct`` and ``proliferate`` run one angle and refuse a
theta grid of several.  A command returns its text, and ``main`` writes it
once, to stdout or atomically to --out.

Exit codes: 0 success, 2 a refused flag, a config/validation error or a
simulation that cannot continue (a trial budget too large to allocate for
a placement with more patterns than trials), 3 I/O error.

``main(argv)`` returns its exit code for every argv, --help included, and
is re-entrant, so tests and notebooks can call it in-process any number of
times.  Every call in a process shares one argument parser, built on the
first call (not at import).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import math
import os
import sys

import numpy as np

from .codes import CODE_NAMES, CodeSpec, LogicalQubit, _draw_syndrome, _overlaps, get_code
from .errors import (
    ALL_QUBITS,
    ERROR_KINDS,
    ROTATION_AXES,
    GeneralErrorParams,
    Placement,
    apply_error_model,
    bose_einstein_pattern_prob,
    fermi_pattern_prob,
)
from .experiments import (
    KIND_FIELDS,
    SUPPORT_THRESHOLD,
    ConfigError,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    _leaves,
    _refuse_kind_fields,
    model_for,
    proliferation_experiment,
    sensitivity_experiment,
    sweep_theta,
)
from .statevec import StateVector, _norm_sq, support_mask, support_size

EXIT_OK, EXIT_CONFIG, EXIT_IO = 0, 2, 3

CSV_HEADER = ",".join(field.name for field in dataclasses.fields(SweepRow))

SENSITIVITY_P_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

# ---------------------------------------------------------------------------
# Config parsing and emission
# ---------------------------------------------------------------------------

# The keys that set each ExperimentConfig field, in the order emit_config
# writes them.  A refused field is reported at the last line among its keys.
_FIELD_KEYS = {
    "code": ("code",),
    "error_kind": ("error.kind",),
    "axis": ("error.axis",),
    "decay_rate": ("error.lambda",),
    "general": ("error.e1_re", "error.e1_im", "error.e2_re", "error.e2_im"),
    "placement": ("error.placement",),
    "theta_grid": (
        "theta", "theta.list", "theta.min", "theta.max", "theta.points", "theta.scale"
    ),
    "trials": ("trials",),
    "seed": ("seed",),
    "logical": ("logical.alpha_re", "logical.alpha_im", "logical.beta_re", "logical.beta_im"),
}
_KEYS = {key for keys in _FIELD_KEYS.values() for key in keys}


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
        if key not in _KEYS:
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

    def line(self, *keys: str) -> int | None:
        """The last line among ``keys`` present, or None if none is."""
        return max((self.entries[k][0] for k in keys if k in self), default=None)

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
        raise ConfigError(f"line {doc.line('theta.scale')}: theta.scale must be linear or log")
    if points < 1:
        raise ConfigError(f"line {doc.line('theta.points')}: theta.points must be >= 1")
    if points == 1 and hi != lo:  # a one-point grid is theta.min; theta.max must say so too
        raise ConfigError(
            f"line {doc.line('theta.points')}: theta.points = 1 grids theta.min alone, "
            f"so theta.max must equal it, got {hi!r} and {lo!r}"
        )
    for key, bound in (("theta.min", lo), ("theta.max", hi)):
        if scale == "log" and bound <= 0:
            raise ConfigError(f"line {doc.line(key)}: log-scaled grids need {key} > 0")
    # A non-finite grid is ExperimentConfig's to refuse, without numpy's warnings.
    with np.errstate(all="ignore"):
        grid = (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)
    return tuple(float(t) for t in grid)


def _complex_pair(doc: _Doc, field: str, build, fallback_line=None):
    """``build(a, b)`` of the complex pair spelled by ``field``'s four float
    keys, absent ones read as 0; a refusal of ``field`` names the last key
    present, else ``fallback_line``."""
    keys = _FIELD_KEYS[field]
    a_re, a_im, b_re, b_im = (doc.parse(k, float, default=0.0) for k in keys)
    try:
        return build(complex(a_re, a_im), complex(b_re, b_im))
    except ValueError as exc:
        raise ConfigError(f"line {doc.line(*keys) or fallback_line}: {exc}", field) from None


def parse_config(text: str) -> ExperimentConfig:
    """Translate a flat config document into an ExperimentConfig.

    Only the grammar is checked here; the rules are ExperimentConfig's, and
    a value it refuses is reported at the line of the key that set it.
    """
    doc = _Doc(_scan(text))
    code = doc.parse("code", str)
    kind = doc.parse("error.kind", str)
    if "error.placement" not in doc:
        raise ConfigError("missing required key 'error.placement'")
    placement_line, placement_raw = doc.entries["error.placement"]
    placement = _parse_placement(placement_raw, placement_line)
    for name, (reader, _) in KIND_FIELDS.items():
        if kind != reader:
            for key in _FIELD_KEYS[name]:
                doc.reject(key, f"{key} only applies to {reader} errors")
    # Read in field order; each read's refusal already names its line.
    fields = dict(
        axis=doc.parse("error.axis", str, ExperimentConfig.axis),
        decay_rate=doc.parse("error.lambda", float, ExperimentConfig.decay_rate),
        general=(
            _complex_pair(doc, "general", GeneralErrorParams, doc.line("error.kind"))
            if kind == KIND_FIELDS["general"][0] else None
        ),
        theta_grid=_theta_grid_from_doc(doc),
        trials=doc.parse("trials", int, ExperimentConfig.trials),
        seed=doc.parse("seed", int, ExperimentConfig.seed),
        logical=(
            _complex_pair(doc, "logical", LogicalQubit)
            if doc.line(*_FIELD_KEYS["logical"]) else ExperimentConfig.logical
        ),
    )
    try:
        return ExperimentConfig(code=code, error_kind=kind, placement=placement, **fields)
    except ConfigError as exc:
        line = doc.line(*_FIELD_KEYS.get(exc.field, ()))
        if line is None:
            raise
        raise ConfigError(f"line {line}: {exc}", exc.field) from None


def emit_config(config: ExperimentConfig) -> str:
    """Render a config as the canonical flat document; parse round-trips it."""
    lines = []
    for name, keys in _FIELD_KEYS.items():
        if name in KIND_FIELDS and KIND_FIELDS[name][0] != config.error_kind:
            continue
        value = getattr(config, name)
        if name == "theta_grid":  # theta for one angle, theta.list for several
            keys = (keys[len(value) > 1],)
            value = ",".join(map(str, value))
        elif name == "placement":
            arg = ",".join(map(str, value.qubits)) if value.rule == "fixed" else value.n_errors
            value = value.rule if value.rule == "all_qubits" else f"{value.rule}:{arg}"
        # A four-key field is a complex pair, written re, im, re, im.
        parts = [value] if len(keys) == 1 else [
            part for z in vars(value).values() for part in (z.real, z.imag)
        ]
        lines.extend(f"{key} = {part}" for key, part in zip(keys, parts))
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
    if abs(im) <= SUPPORT_THRESHOLD:
        return f"{re:.10f}"
    return f"{re:.10f}{im:+.10f}i"


def _state_lines(state: StateVector) -> list[str]:
    # The printed kets are the ones support_size counts.
    amps = state.amps
    kept = np.flatnonzero(support_mask(amps, SUPPORT_THRESHOLD))
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
    lines.extend(",".join(map(format_float, vars(row).values())) for row in result.rows)
    lines.append(f"# slope_coded={format_float(result.slope_coded)}")
    lines.append(f"# slope_uncoded={format_float(result.slope_uncoded)}")
    return "\n".join(lines) + "\n"


def _open_temp(path: str) -> tuple[str, int]:
    # A unique sibling temp file, so concurrent writers never share one;
    # mode 0o666 under the umask is what open(path, "w") would give.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)


def _probe_out(path: str) -> None:
    """Refuse an --out target before any work by trying what ``_write_atomic``
    does first: create its sibling temp file, then remove it.  A directory,
    or a path that names no file, would only fail at the final rename."""
    try:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.path.basename(path):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))
        tmp, fd = _open_temp(path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_atomic(path: str, text: str) -> None:
    try:
        tmp, fd = _open_temp(path)
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
        beta = complex(math.sqrt(max(0.0, 1.0 - _norm_sq(alpha, 0.0))), 0.0)
    return LogicalQubit(alpha, beta)


# Flag values that need converting into their field's value.
_FLAG_VALUES = {
    "placement": _parse_placement,
    "theta_grid": lambda theta: (theta,),
    "logical": _parse_logical_flag,
}


def _resolve_experiment(args: argparse.Namespace) -> ExperimentConfig:
    # The file is read and validated first, so its faults are reported first.
    text = _read_text(args.config) if args.config is not None else None
    config = parse_config(text) if text is not None else None
    if config is None and args.code is None:
        raise ConfigError("no code selected: pass --code or --config")
    # Each flag's dest is the field it overrides.
    flags = {
        name: _FLAG_VALUES[name](value) if name in _FLAG_VALUES else value
        for name in _FIELD_KEYS
        if (value := getattr(args, name, None)) is not None
    }
    if config is None:
        config = ExperimentConfig(**{"error_kind": "rotation", **flags})
    elif flags:
        config = dataclasses.replace(config, **flags)
    # A kind field the file or a flag sets, even to its default, must be one the kind reads.
    doc = _Doc(_scan(text) if text is not None else {})
    _refuse_kind_fields(config.error_kind, [
        name for name in KIND_FIELDS if name in flags or doc.line(*_FIELD_KEYS[name])])
    if args.command in _ONE_ANGLE and len(config.theta_grid) > 1:
        raise ConfigError(
            f"{args.command} runs one angle, but the theta grid has "
            f"{len(config.theta_grid)}; give one theta",
            "theta_grid",
        )
    if args.out is not None:
        _probe_out(args.out)
    return config


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_encode(config: ExperimentConfig) -> str:
    state = get_code(config.code).encoder(config.logical)
    return "\n".join(_state_lines(state)) + "\n"


def _injected(config: ExperimentConfig) -> tuple[CodeSpec, StateVector, np.random.Generator]:
    """The code, its injected state, and the seeded rng, the placement already drawn."""
    code = get_code(config.code)
    rng = np.random.default_rng(config.seed)
    state = apply_error_model(
        code.encoder(config.logical), model_for(config, config.theta_grid[0]), rng
    )
    return code, state, rng


def _cmd_inject(config: ExperimentConfig) -> str:
    _, state, _ = _injected(config)
    lines = [f"support = {support_size(state, SUPPORT_THRESHOLD)}"]
    lines.extend(_state_lines(state))
    return "\n".join(lines) + "\n"


def _cmd_correct(config: ExperimentConfig) -> str:
    code, state, rng = _injected(config)
    # The drawn outcome's leaf among the reached outcomes', as a sweep sums it.
    table = code._syndromes
    _, outcome, overlaps, weight = _overlaps(state.amps[None], table)
    by_outcome = np.zeros(len(table.index))
    by_outcome[outcome] = weight
    bits, row = _draw_syndrome(by_outcome, table, rng)
    infidelity = float(_leaves(overlaps, weight, config.logical)[outcome.searchsorted(row)])
    lines = [
        "syndrome = " + "".join(map(str, bits)),
        f"fidelity = {format_float(1.0 - infidelity)}",
        f"infidelity = {format_float(infidelity)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_sweep(config: ExperimentConfig) -> str:
    return render_csv(sweep_theta(config), tuple(emit_config(config).splitlines()))


def _cmd_proliferate(config: ExperimentConfig) -> str:
    before, after = proliferation_experiment(config.code, config.theta_grid[0])
    return f"support_before,support_after\n{before},{after}\n"


def _cmd_sensitivity(args: argparse.Namespace) -> str:
    lines = ["p,relative_damage"]
    for p in SENSITIVITY_P_GRID:
        damage = sensitivity_experiment(args.qubits, p, args.theta)
        lines.append(f"{format_float(p)},{format_float(damage)}")
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> str:
    requests = ((bose_einstein_pattern_prob, args.be), (fermi_pattern_prob, args.fermi))
    text = "".join(f"{prob(*counts)}\n" for prob, counts in requests if counts is not None)
    if not text:
        raise ConfigError("stats needs --be N n and/or --fermi N n")
    return text


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Every flag by its dest: its spelling and its argparse options.  A config
# flag's dest is the ExperimentConfig field it overrides.
_FLAGS = {
    "config": ("--config", dict(help="config file path")),
    "code": ("--code", dict(choices=CODE_NAMES, help="code name override")),
    "error_kind": ("--error", dict(choices=ERROR_KINDS, help="error kind override")),
    "placement": ("--placement", dict(help="placement override, e.g. fermi:1")),
    "axis": ("--axis", dict(choices=ROTATION_AXES, help="rotation axis override")),
    "theta_grid": ("--theta", dict(
        metavar="THETA", type=float, help="single angle override (radians)")),
    "trials": ("--trials", dict(type=int, help="trials per grid point; a placement with "
                                "no more patterns than this is summed over all of them")),
    "seed": ("--seed", dict(type=int, help="random seed (default 0)")),
    "logical": ("--logical", dict(help="logical amplitudes a_re,a_im[,b_re,b_im]")),
    "qubits": ("--qubits", dict(type=int, default=5, help="register size")),
    "theta": ("--theta", dict(type=float, default=0.05, help="rotation angle (default 0.05)")),
    "be": ("--be", dict(nargs=2, type=int, metavar=("N", "n"),
                        help="Bose-Einstein pattern probability for N cells, n errors")),
    "fermi": ("--fermi", dict(nargs=2, type=int, metavar=("N", "n"),
                              help="Fermi pattern probability for N cells, n errors")),
    "out": ("--out", dict(help="output file path (default: stdout)")),
}
# The commands that run the first angle of the theta grid, and refuse a grid
# of several.
_ONE_ANGLE = ("inject", "correct", "proliferate")
_SWEEP_FLAGS = ("config", "code", "error_kind", "placement", "axis", "theta_grid", "trials",
                "seed", "logical")
_SHOT_FLAGS = tuple(dest for dest in _SWEEP_FLAGS if dest != "trials")

# Each command: its function, its help and the dests it reads, plus --out.  A
# command that reads --config gets the resolved ExperimentConfig, any other its args.
_COMMANDS = {
    "encode": (_cmd_encode, "print a codeword's nonzero kets and amplitudes",
               ("config", "code", "logical")),
    "inject": (_cmd_inject, "encode, apply the error model, print the state", _SHOT_FLAGS),
    "correct": (_cmd_correct, "encode, inject, measure syndrome, recover", _SHOT_FLAGS),
    "sweep": (_cmd_sweep, "Monte Carlo infidelity sweep over a theta grid", _SWEEP_FLAGS),
    "proliferate": (_cmd_proliferate, "component counts before/after rotation",
                    ("config", "code", "theta_grid")),
    "sensitivity": (_cmd_sensitivity, "relative damage across a p grid", ("qubits", "theta")),
    "stats": (_cmd_stats, "exact occupancy-pattern probabilities", ("be", "fermi")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="qeclab",
        description="Quantum error-correction lab: codes, analog errors, sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, dests) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for dest in (*dests, "out"):
            flag, options = _FLAGS[dest]
            sub.add_argument(flag, dest=dest, **options)
        sub.set_defaults(func=func, parser=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unread = _build_parser().parse_known_args(argv)
        if unread:  # refused under the usage line of the command that ran
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:  # a refused argv or --help: argparse has printed
        return exc.code
    try:
        text = args.func(_resolve_experiment(args) if "config" in args else args)
        if args.out is not None:
            _write_atomic(args.out, text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # ValueError covers ConfigError, MemoryError an unallocatable budget.  No
    # code here raises RuntimeError or LookupError; they stay as a backstop, so
    # an unforeseen fault still prints one error line and exits 2, no traceback.
    except (ValueError, RuntimeError, LookupError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
