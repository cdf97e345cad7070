"""The benchmark's three workloads: seeded inputs and the per-op gate.

Every workload is a closed loop with one client: a single process, no
worker threads, and the next op is sent only after the previous one has
returned.  An op is one public call into qeclab, either
``qeclab.experiments.sweep_theta`` or ``qeclab.cli.main``, and its
latency is timed around that call alone.  The correctness gate runs after
the clock has stopped.

An op fails when it raises, when ``cli.main`` returns non-zero, or when
its output disagrees with the references in ``reference.json``, which
were recorded from the code as it stood when the benchmark was defined.
Byte-identity of repeated calls with the same inputs is checked by the
run loop in ``bench.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

import qeclab.cli
import qeclab.experiments
from qeclab.codes import LogicalQubit, get_code
from qeclab.errors import ALL_QUBITS, Placement
from qeclab.experiments import ExperimentConfig

WORKLOADS = ("steane7_coherent", "shor9_bose", "cli_session")

WHY = {
    "steane7_coherent": (
        "the paper's theta^4 headline: all-qubit y-rotation on steane7 |0_L>, "
        "deterministic injection, dominated by apply_1q"
    ),
    "shor9_bose": (
        "sampled bose_einstein:2 placement on shor9, so deterministic-injection "
        "hoisting is bypassed; syndrome extraction on 512 amplitudes weighs as "
        "much as apply_1q"
    ),
    "cli_session": (
        "cli.main in-process: parsing, rendering and atomic writes, the decay "
        "injection path and the 1024-amplitude sensitivity register"
    ),
}

GENERIC_LOGICAL = LogicalQubit(0.6, complex(0.48, 0.64))

# Trials per grid point.  One sweep takes about 0.15 s on a 2-core Xeon,
# so a run of a few seconds holds enough sweeps for a stable median and
# at least ten samples above the 90th percentile.
STEANE7_TRIALS = 20
SHOR9_TRIALS = 50
DECAY_TRIALS = 60

STEANE7_CONFIG = ExperimentConfig(
    code="steane7",
    error_kind="rotation",
    placement=ALL_QUBITS,
    theta_grid=tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 7)),
    trials=STEANE7_TRIALS,
    axis="y",
)

# On |0_L>, x-rotations and decay leave exactly zero residual after
# correction, so the Shor workloads use a generic logical state.
SHOR9_CONFIG = ExperimentConfig(
    code="shor9",
    error_kind="rotation",
    placement=Placement.bose_einstein(2),
    theta_grid=(0.05, 0.2, 0.8),
    trials=SHOR9_TRIALS,
    logical=GENERIC_LOGICAL,
    axis="y",
)

DECAY_CONFIG_TEXT = """\
code = shor9
error.kind = decay
error.lambda = 0.9
error.placement = all_qubits
theta.list = 0.05,0.2,0.8
trials = {trials}
seed = {seed}
logical.alpha_re = 0.6
logical.beta_re = 0.48
logical.beta_im = 0.64
"""

# Input pools of the one-shot commands.  reference.json holds the
# expected output of every pool member.
LOGICAL_FLAGS = ("1,0,0,0", "0,0,1,0", "0.6,0,0.48,0.64", "0.8,0,0,0.6")
ENCODE_CODES = ("shor9", "steane7")
INJECT_THETAS = ("0.01", "0.02", "0.04")
PROLIFERATE_THETAS = ("0.01", "0.05")
SENSITIVITY_THETAS = ("0.02", "0.05", "0.1")
CORRECT_THETAS = ("0.3", "1.0", "2.0")
AXES = ("x", "y", "z")

# One cli_session cycle: one decay sweep, the one-shot commands below in
# shuffled order, and one fermi:2 sweep.  Measured one-shot latencies
# order as stats < encode < proliferate ~ correct < inject < sensitivity,
# and these counts put the 50th percentile inside the
# proliferate/correct block (cumulative share 0.2 to 0.6) and the 90th
# inside the inject block (0.6 to 0.95), away from any boundary between
# command types.
ONE_SHOT_MIX = (
    ("stats", 2),
    ("encode", 2),
    ("proliferate", 2),
    ("correct", 6),
    ("inject", 7),
    ("sensitivity", 1),
)

# Known defect of the code under test, kept in the mix on purpose: a
# fermi:n sweep with n >= 2 passes config validation, then fails on the
# 1-qubit uncoded baseline.  It counts as a failed op and stays out of
# the latency samples.
FERMI_DEFECT = "fermi placement needs n <= N, got n=2, N=1"

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Gate tolerances.  Each Monte Carlo mean must lie within the range of
# infidelities that the exact branches can reach, and within Z_LIMIT
# standard errors of the exact mean.  The standard error uses the larger
# of the row's own std and the exact std: at small theta a short run
# often samples no rare syndrome branch, its own std is then 0, and the
# exact std is the honest spread.  The range test is what catches an
# error confined to rare branches, such as a wrong correction.  The
# slack terms absorb rounding of a mean of identical values, of 1 - F,
# and of a branch value near the 1e-13 floor.
Z_LIMIT = 5.0
MEAN_REL_SLACK = 1e-9
MEAN_ABS_SLACK = 1e-15
RANGE_ABS_SLACK = 1e-12
AMP_TOL = 1e-9
PRINTED_NORM_TOL = 1e-6
CORRECTED_INFID_MAX = 1e-9


@dataclass
class Op:
    """One call into qeclab, with what is needed to judge its output.

    ``run`` returns (seconds spent in the qeclab call, output).  ``check``
    returns None when the output is right, else (reason, known_defect).
    Two ops with the same ``key`` must produce byte-identical ``digest``s.
    """

    kind: str
    key: tuple
    run: Callable[[], tuple[float, object]]
    check: Callable[[object], tuple[str, bool] | None]
    digest: Callable[[object], bytes]
    pairs: int = 0
    sample: str | None = None  # "sweep" or "cmd": which latency set it joins


def load_reference() -> dict:
    with open(_REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Sweep gate
# ---------------------------------------------------------------------------

def result_rows(result) -> list[tuple[float, ...]]:
    return [
        (r.theta, r.mean_infid_coded, r.std_coded, r.mean_infid_uncoded,
         r.std_uncoded, r.mean_support)
        for r in result.rows
    ]


def csv_rows(text: str) -> list[tuple[float, ...]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != qeclab.cli.CSV_HEADER:
        raise ValueError("missing CSV header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def check_rows(rows, reference: list[dict], trials: int) -> str | None:
    """Gate one sweep's rows against the exact per-point reference."""
    if len(rows) != len(reference):
        return f"expected {len(reference)} rows, got {len(rows)}"
    for row, ref in zip(rows, reference):
        if len(row) != 6 or not all(math.isfinite(v) for v in row):
            return f"non-finite or malformed row {row}"
        theta, mean_c, std_c, mean_u, std_u, support = row
        if not all(0.0 <= v <= 1.0 for v in (mean_c, std_c, mean_u, std_u)):
            return f"row at theta={theta} outside [0, 1]: {row}"
        if not math.isclose(theta, ref["theta"], rel_tol=1e-12):
            return f"theta {theta} differs from reference {ref['theta']}"
        if ref["support"] is not None and support != ref["support"]:
            return f"mean_support {support} at theta={theta}, reference {ref['support']}"
        for side, mean, std in (("coded", mean_c, std_c), ("uncoded", mean_u, std_u)):
            exact = ref[side]
            slack = MEAN_REL_SLACK * exact["max"] + RANGE_ABS_SLACK
            if not exact["min"] - slack <= mean <= exact["max"] + slack:
                return (
                    f"{side} mean {mean!r} at theta={theta} is outside the range "
                    f"[{exact['min']!r}, {exact['max']!r}] that any trial can reach"
                )
            tol = (
                Z_LIMIT * max(std, exact["std"]) / math.sqrt(trials)
                + MEAN_REL_SLACK * exact["mean"]
                + MEAN_ABS_SLACK
            )
            if abs(mean - exact["mean"]) > tol:
                return (
                    f"{side} mean {mean!r} at theta={theta} is more than "
                    f"{Z_LIMIT:g} standard errors from the reference {exact['mean']!r}"
                )
    return None


# ---------------------------------------------------------------------------
# Monte Carlo workloads: one op is one sweep_theta call over the whole grid
# ---------------------------------------------------------------------------

def _op_seeds(rng: np.random.Generator):
    """Fresh sweep seeds, except that every fourth op repeats the seed of
    the op three before it, so byte-identity is checked throughout a run."""
    history: list[int] = []
    while True:
        if len(history) % 4 == 3:
            seed = history[-3]
        else:
            seed = int(rng.integers(0, 2**31 - 1))
        history.append(seed)
        yield seed


class MonteCarloWorkload:
    def __init__(self, name: str, base: ExperimentConfig, seed: int, reference: dict):
        self.name = name
        self.base = base
        self.reference = reference[name]
        self.seeds = _op_seeds(np.random.default_rng(seed))

    def cycle(self) -> list[Op]:
        config = replace(self.base, seed=next(self.seeds))

        def run():
            t0 = time.perf_counter()
            result = qeclab.experiments.sweep_theta(config)
            return time.perf_counter() - t0, result

        def check(result):
            reason = check_rows(result_rows(result), self.reference, config.trials)
            return None if reason is None else (reason, False)

        return [
            Op(
                kind="sweep",
                key=(config.seed,),
                run=run,
                check=check,
                digest=lambda result: repr(result).encode(),
                pairs=config.trials * len(config.theta_grid),
                sample="sweep",
            )
        ]


# ---------------------------------------------------------------------------
# cli_session: cli.main in-process
# ---------------------------------------------------------------------------

_KET_LINE = re.compile(r"^\|([01]+)> ([+-]?\d+\.\d+)(?:([+-]\d+\.\d+)i)?$")


def parse_kets(lines: list[str]) -> dict[str, complex]:
    kets = {}
    for line in lines:
        match = _KET_LINE.match(line)
        if match is None:
            raise ValueError(f"unparsable ket line {line!r}")
        kets[match.group(1)] = complex(float(match.group(2)), float(match.group(3) or 0.0))
    return kets


def parse_sensitivity(text: str) -> list[tuple[str, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "p,relative_damage":
        raise ValueError("missing sensitivity header")
    return [(p, float(v)) for p, v in (line.split(",") for line in lines[1:])]


def _content_check(verify: Callable[[str], str | None]):
    """Wrap a text verifier: non-zero exit or unparsable text is a failure."""

    def check(output):
        rc, err, data = output
        if rc != 0:
            return (f"exit code {rc}: {err.strip()}", False)
        try:
            reason = verify(data.decode("utf-8"))
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"malformed output: {exc}"
        return None if reason is None else (reason, False)

    return check


def _verify_encode(expected: dict[str, list[float]]):
    def verify(text):
        kets = parse_kets(text.splitlines())
        if set(kets) != set(expected):
            return f"encoded kets {sorted(kets)} differ from the reference"
        for ket, (re_, im) in expected.items():
            if abs(kets[ket] - complex(re_, im)) > AMP_TOL:
                return f"amplitude of |{ket}> is {kets[ket]}, reference {re_}+{im}i"
        return None

    return verify


def _verify_inject(support: int):
    def verify(text):
        lines = text.splitlines()
        if lines[0] != f"support = {support}":
            return f"{lines[0]!r}, reference support {support}"
        kets = parse_kets(lines[1:])
        if len(kets) != support:
            return f"{len(kets)} rendered kets for support {support}"
        norm = sum(abs(a) ** 2 for a in kets.values())
        if abs(norm - 1.0) > PRINTED_NORM_TOL:
            return f"printed state has norm^2 {norm}"
        return None

    return verify


def _verify_correct(n_stabilizers: int):
    def verify(text):
        fields = dict(line.split(" = ") for line in text.splitlines())
        if len(fields["syndrome"]) != n_stabilizers:
            return f"syndrome {fields['syndrome']!r} has the wrong length"
        fid, infid = float(fields["fidelity"]), float(fields["infidelity"])
        if not (0.0 <= infid <= CORRECTED_INFID_MAX and 1.0 - CORRECTED_INFID_MAX <= fid <= 1.0):
            return f"single-qubit error left infidelity {infid!r} after correction"
        return None

    return verify


def _verify_exact_text(expected: str):
    def verify(text):
        return None if text == expected else f"output {text!r}, reference {expected!r}"

    return verify


def _verify_sensitivity(expected: list[list]):
    def verify(text):
        rows = parse_sensitivity(text)
        if [p for p, _ in rows] != [p for p, _ in expected]:
            return "sensitivity p grid differs from the reference"
        for (p, damage), (_, ref) in zip(rows, expected):
            if not math.isclose(damage, ref, rel_tol=1e-9, abs_tol=1e-15):
                return f"damage {damage!r} at p={p}, reference {ref!r}"
        return None

    return verify


def stats_lines(n_cells: int, be_errors: int, fermi_errors: int) -> str:
    """Independent oracle for ``qeclab stats``: 1/C(N+n-1, n) and 1/C(N, n)."""
    be = Fraction(1, math.comb(n_cells + be_errors - 1, be_errors))
    fermi = Fraction(1, math.comb(n_cells, fermi_errors))
    return f"{be}\n{fermi}\n"


def _check_fermi_defect(output):
    rc, err, data = output
    if rc == 2 and FERMI_DEFECT in err:
        return ("known defect: " + FERMI_DEFECT, True)
    if rc != 0:
        return (f"exit code {rc}: {err.strip()}", False)
    # The defect has been fixed: gate the sweep like any other.
    try:
        rows = csv_rows(data.decode("utf-8"))
    except ValueError as exc:
        return (f"malformed CSV: {exc}", False)
    if len(rows) != 1 or not all(math.isfinite(v) for v in rows[0]):
        return (f"bad fermi:2 sweep rows {rows}", False)
    if not all(0.0 <= v <= 1.0 for v in rows[0][1:5]):
        return (f"fermi:2 sweep row outside [0, 1]: {rows[0]}", False)
    return None


class CliWorkload:
    def __init__(self, seed: int, reference: dict, workdir: str):
        self.reference = reference["cli_session"]
        self.rng = np.random.default_rng(seed)
        self.seeds = _op_seeds(np.random.default_rng([seed, 1]))
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.txt")

    def _cli(self, kind, argv, check, sample="cmd", pairs=0, key=None) -> Op:
        argv = list(argv)
        out_path = self.out_path

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = qeclab.cli.main(argv + ["--out", out_path])
                elapsed = time.perf_counter() - t0
            data = b""
            if os.path.exists(out_path):
                with open(out_path, "rb") as handle:
                    data = handle.read()
                os.unlink(out_path)
            return elapsed, (rc, err.getvalue(), data)

        return Op(
            kind=kind,
            key=tuple(argv) if key is None else key,
            run=run,
            check=check,
            digest=lambda output: repr(output[:1]).encode() + output[2],
            pairs=pairs,
            sample=sample,
        )

    def _pick(self, pool):
        return pool[int(self.rng.integers(len(pool)))]

    def _decay_sweep(self) -> Op:
        seed = next(self.seeds)
        path = os.path.join(self.workdir, f"decay-{seed}.cfg")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(DECAY_CONFIG_TEXT.format(trials=DECAY_TRIALS, seed=seed))
        reference = self.reference["decay_sweep"]

        def verify(text):
            return check_rows(csv_rows(text), reference, DECAY_TRIALS)

        return self._cli(
            "decay_sweep",
            ["sweep", "--config", path],
            _content_check(verify),
            sample="sweep",
            pairs=DECAY_TRIALS * len(reference),
            key=("decay_sweep", seed),
        )

    def _fermi_sweep(self) -> Op:
        seed = next(self.seeds)
        argv = ["sweep", "--code", "steane7", "--error", "rotation", "--placement",
                "fermi:2", "--theta", "0.05", "--trials", "10", "--seed", str(seed)]
        return self._cli("fermi_sweep", argv, _check_fermi_defect, sample=None)

    def _one_shot(self, kind: str) -> Op:
        ref = self.reference
        if kind == "stats":
            n_cells = int(self.rng.integers(1, 13))
            be_errors = int(self.rng.integers(0, 6))
            fermi_errors = int(self.rng.integers(0, n_cells + 1))
            argv = ["stats", "--be", str(n_cells), str(be_errors),
                    "--fermi", str(n_cells), str(fermi_errors)]
            expected = stats_lines(n_cells, be_errors, fermi_errors)
            return self._cli(kind, argv, _content_check(_verify_exact_text(expected)))
        if kind == "encode":
            code, logical = self._pick(ENCODE_CODES), self._pick(LOGICAL_FLAGS)
            argv = ["encode", "--code", code, "--logical", logical]
            expected = ref["encode"][f"{code} {logical}"]
            return self._cli(kind, argv, _content_check(_verify_encode(expected)))
        if kind == "inject":
            theta = self._pick(INJECT_THETAS)
            argv = ["inject", "--code", "shor9", "--error", "rotation", "--theta", theta,
                    "--logical", LOGICAL_FLAGS[2], "--seed", str(next(self.seeds))]
            expected = ref["inject"][theta]
            return self._cli(kind, argv, _content_check(_verify_inject(expected)))
        if kind == "correct":
            code = self._pick(ENCODE_CODES)
            qubit = int(self.rng.integers(get_code(code).n_physical))
            argv = ["correct", "--code", code, "--error", "rotation",
                    "--axis", self._pick(AXES), "--theta", self._pick(CORRECT_THETAS),
                    "--placement", f"fixed:{qubit}", "--logical", self._pick(LOGICAL_FLAGS),
                    "--seed", str(next(self.seeds))]
            n_stab = len(get_code(code).stabilizers)
            return self._cli(kind, argv, _content_check(_verify_correct(n_stab)))
        if kind == "proliferate":
            code, theta = self._pick(ENCODE_CODES), self._pick(PROLIFERATE_THETAS)
            argv = ["proliferate", "--code", code, "--theta", theta]
            expected = ref["proliferate"][f"{code} {theta}"]
            return self._cli(kind, argv, _content_check(_verify_exact_text(expected)))
        if kind == "sensitivity":
            theta = self._pick(SENSITIVITY_THETAS)
            argv = ["sensitivity", "--qubits", "10", "--theta", theta]
            expected = ref["sensitivity"][theta]
            return self._cli(kind, argv, _content_check(_verify_sensitivity(expected)))
        raise ValueError(f"unknown one-shot command {kind!r}")

    def cycle(self) -> list[Op]:
        kinds = [kind for kind, count in ONE_SHOT_MIX for _ in range(count)]
        order = self.rng.permutation(len(kinds))
        one_shots = [self._one_shot(kinds[i]) for i in order]
        return [self._decay_sweep(), *one_shots, self._fermi_sweep()]


def make_workload(name: str, seed: int, workdir: str):
    reference = load_reference()
    if name == "steane7_coherent":
        return MonteCarloWorkload(name, STEANE7_CONFIG, seed, reference)
    if name == "shor9_bose":
        return MonteCarloWorkload(name, SHOR9_CONFIG, seed, reference)
    if name == "cli_session":
        return CliWorkload(seed, reference, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
