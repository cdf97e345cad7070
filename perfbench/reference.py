"""Regenerate ``reference.json``, the values the benchmark gate checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/reference.py

Sweep references are exact rather than sampled.  Every random choice in
a trial is finite: the placement pattern (one for ``all_qubits``,
C(N+n-1, n) equally likely multisets for ``bose_einstein:n``) and the
2^m syndrome outcomes.  For each pattern the post-injection state psi is
projected onto every syndrome sector with prod_k (I +/- S_k)/2; the
branch weight is P(pattern) * ||Pi_s psi||^2, and its infidelity is taken
after the table's correction, floored exactly as a trial floors it.  The
weighted branches give the exact mean and standard deviation of one
trial's infidelity at each grid point, and the range any trial can reach.

One-shot command references are the parsed outputs of ``qeclab.cli.main``
for every member of the input pools in ``workloads.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from qeclab.cli import main as cli_main, parse_config  # noqa: E402
from qeclab.codes import get_code  # noqa: E402
from qeclab.errors import Placement, apply_error_model  # noqa: E402
from qeclab.experiments import NUMERICAL_FLOOR, SUPPORT_THRESHOLD, model_for  # noqa: E402
from qeclab.statevec import StateVector, apply_pauli_string, fidelity, support_size  # noqa: E402

_BRANCH_WEIGHT_FLOOR = 1e-28  # a trial raises on branches with norm < 1e-14


def _patterns(placement: Placement, n_qubits: int) -> list[tuple[float, Placement]]:
    if placement.rule in ("all_qubits", "fixed"):
        return [(1.0, placement)]
    if placement.rule == "bose_einstein":
        cells = list(combinations_with_replacement(range(n_qubits), placement.n_errors))
        return [(1.0 / len(cells), Placement.fixed(c)) for c in cells]
    raise ValueError(f"no exact enumeration for placement {placement.rule!r}")


def _syndrome_branches(state: StateVector, stabilizers: tuple[str, ...]):
    """(syndrome key, unnormalized projection) for every nonzero sector."""
    n = state.n_qubits
    branches = [("", state.amps)]
    for stabilizer in stabilizers:
        split = []
        for bits, amps in branches:
            flipped = apply_pauli_string(StateVector(n, amps), stabilizer).amps
            for bit, sign in (("0", 1.0), ("1", -1.0)):
                projected = (amps + sign * flipped) / 2.0
                if np.vdot(projected, projected).real > _BRANCH_WEIGHT_FLOOR:
                    split.append((bits + bit, projected))
        branches = split
    return branches


def exact_side(config, theta: float) -> dict[str, float]:
    """Exact mean and std of one trial's infidelity at grid value theta,
    and the smallest and largest infidelity any branch can give."""
    code = get_code(config.code)
    reference = code.encoder(config.logical)
    model = model_for(config, theta)
    rng = np.random.default_rng(0)  # unused: every pattern below is fixed
    branches = []  # (probability, infidelity)
    for weight, placement in _patterns(model.placement, code.n_physical):
        state = apply_error_model(reference, replace(model, placement=placement), rng)
        for key, amps in _syndrome_branches(state, code.stabilizers):
            prob = float(np.vdot(amps, amps).real)
            post = StateVector(code.n_physical, amps / math.sqrt(prob))
            corrected = apply_pauli_string(post, code.recovery_table[key])
            infid = 1.0 - fidelity(corrected, reference)
            branches.append((weight * prob, infid if infid >= NUMERICAL_FLOOR else 0.0))
    total = math.fsum(p for p, _ in branches)
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"branch weights sum to {total}, not 1")
    mean = math.fsum(p * x for p, x in branches)
    var = math.fsum(p * (x - mean) ** 2 for p, x in branches)
    values = [x for _, x in branches]
    return {"mean": mean, "std": math.sqrt(var), "min": min(values), "max": max(values)}


def exact_rows(config) -> list[dict]:
    uncoded = replace(config, code="uncoded")
    code = get_code(config.code)
    rows = []
    for theta in config.theta_grid:
        support = None
        if config.placement.rule in ("all_qubits", "fixed"):
            model = model_for(config, theta)
            state = apply_error_model(code.encoder(config.logical), model, np.random.default_rng(0))
            support = float(support_size(state, SUPPORT_THRESHOLD))
        rows.append({
            "theta": theta,
            "coded": exact_side(config, theta),
            "uncoded": exact_side(uncoded, theta),
            "support": support,
        })
    return rows


def _cli_text(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return out.getvalue()


def one_shot_references() -> dict:
    encode = {}
    for code in workloads.ENCODE_CODES:
        for logical in workloads.LOGICAL_FLAGS:
            text = _cli_text(["encode", "--code", code, "--logical", logical])
            kets = workloads.parse_kets(text.splitlines())
            encode[f"{code} {logical}"] = {k: [a.real, a.imag] for k, a in kets.items()}
    inject = {}
    for theta in workloads.INJECT_THETAS:
        text = _cli_text(["inject", "--code", "shor9", "--error", "rotation", "--theta",
                          theta, "--logical", workloads.LOGICAL_FLAGS[2]])
        inject[theta] = int(text.splitlines()[0].split(" = ")[1])
    proliferate = {
        f"{code} {theta}": _cli_text(["proliferate", "--code", code, "--theta", theta])
        for code in workloads.ENCODE_CODES
        for theta in workloads.PROLIFERATE_THETAS
    }
    sensitivity = {
        theta: workloads.parse_sensitivity(
            _cli_text(["sensitivity", "--qubits", "10", "--theta", theta])
        )
        for theta in workloads.SENSITIVITY_THETAS
    }
    return {"encode": encode, "inject": inject, "proliferate": proliferate,
            "sensitivity": sensitivity}


def build() -> dict:
    decay = parse_config(workloads.DECAY_CONFIG_TEXT.format(trials=1, seed=0))
    cli_refs = one_shot_references()
    cli_refs["decay_sweep"] = exact_rows(decay)
    return {
        "steane7_coherent": exact_rows(workloads.STEANE7_CONFIG),
        "shor9_bose": exact_rows(workloads.SHOR9_CONFIG),
        "cli_session": cli_refs,
    }


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
