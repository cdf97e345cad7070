"""Outside-in tracing of qeclab's layers.

The tracer wraps the module-level names that callers look up (for
example ``qeclab.errors.apply_1q``, the name ``apply_error_model`` calls)
so that no file of the package changes.  Each wrapped call records one
span (layer, start, end, parent span, op) in compact arrays in memory;
the spans are written out once the run ends.  A layer's self time is its
span time minus the time of its child spans.

Counters that look at arguments and results (distinct injected states,
nontrivial syndromes, nonzero infidelities, bytes computed) run after the
wrapped call returns, inside a ``trace.count`` span of their own, so their
cost is kept out of every layer's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

from qeclab.codes import CODE_NAMES, get_code

# (layer, module whose namespace is patched, attribute looked up there)
SITES = (
    ("experiments.sweep_theta", "qeclab.experiments", "sweep_theta"),
    ("experiments.sweep_theta", "qeclab.cli", "sweep_theta"),
    ("experiments.run_trial", "qeclab.experiments", "run_trial"),
    ("experiments.trial_rng", "qeclab.experiments", "_trial_rng"),
    ("experiments.proliferation_experiment", "qeclab.cli", "proliferation_experiment"),
    ("experiments.sensitivity_experiment", "qeclab.cli", "sensitivity_experiment"),
    ("errors.apply_error_model", "qeclab.experiments", "apply_error_model"),
    ("errors.apply_error_model", "qeclab.cli", "apply_error_model"),
    ("errors.sample_placement", "qeclab.errors", "sample_placement"),
    ("codes.get_code", "qeclab.experiments", "get_code"),
    ("codes.get_code", "qeclab.cli", "get_code"),
    ("codes.extract_syndrome", "qeclab.experiments", "extract_syndrome"),
    ("codes.extract_syndrome", "qeclab.cli", "extract_syndrome"),
    ("codes.recover", "qeclab.experiments", "recover"),
    ("codes.recover", "qeclab.cli", "recover"),
    ("codes.logical_fidelity", "qeclab.experiments", "logical_fidelity"),
    ("statevec.apply_1q", "qeclab.errors", "apply_1q"),
    ("statevec.apply_1q", "qeclab.experiments", "apply_1q"),
    ("statevec.measure_pauli_string", "qeclab.codes", "measure_pauli_string"),
    ("statevec.apply_pauli_string", "qeclab.codes", "apply_pauli_string"),
    ("statevec.support_size", "qeclab.experiments", "support_size"),
    ("statevec.support_size", "qeclab.cli", "support_size"),
    ("statevec.fidelity", "qeclab.codes", "fidelity"),
    ("statevec.fidelity", "qeclab.cli", "fidelity"),
    ("statevec.StateVector", "qeclab.statevec", "StateVector"),
    ("statevec.StateVector", "qeclab.codes", "StateVector"),
    ("statevec.StateVector", "qeclab.errors", "StateVector"),
    ("statevec.StateVector", "qeclab.experiments", "StateVector"),
    ("statevec.StateVector", "qeclab.cli", "StateVector"),
    ("cli.main", "qeclab.cli", "main"),
    ("cli.build_parser", "qeclab.cli", "_build_parser"),
    ("cli.parse_config", "qeclab.cli", "parse_config"),
    ("cli.emit_config", "qeclab.cli", "emit_config"),
    ("cli.render_csv", "qeclab.cli", "render_csv"),
    ("cli.state_lines", "qeclab.cli", "_state_lines"),
    ("cli.write_atomic", "qeclab.cli", "_write_atomic"),
)

# The encoder is a field of each cached CodeSpec, not a module-level name.
ENCODE_LAYER = "codes.encode"

LAYERS = tuple(dict.fromkeys([layer for layer, _, _ in SITES] + [ENCODE_LAYER]))

OP_SPAN = "bench.op"
COUNT_SPAN = "trace.count"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_index = -1
        self._restore: list = []
        # counters
        self.injections: dict[tuple, set] = {}
        self.injection_calls = 0
        self.syndromes_measured = 0
        self.syndromes_nontrivial = 0
        self.coded_trials = 0
        self.coded_nonzero = 0
        self.bytes_computed = {"statevec.apply_1q": 0, "statevec.measure_pauli_string": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, layer: str, fn, counter=None):
        nid, count_id = self._id(layer), self._id(COUNT_SPAN)
        add_name, add_parent = self.name.append, self.parent.append
        add_op, add_start, add_end = self.op.append, self.start.append, self.end.append
        starts, ends, stack, clock, tracer = self.start, self.end, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.op_index)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                index = len(starts)
                add_name(count_id)
                add_parent(stack[-1])
                add_op(tracer.op_index)
                add_end(0.0)
                add_start(clock())
                counter(args, kwargs, result)
                ends[index] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def op_span(self, op_index: int):
        """Open the root span of one benchmark op; returns its closer."""
        self.op_index = op_index
        index = len(self.start)
        self.name.append(self._id(OP_SPAN))
        self.parent.append(-1)
        self.op.append(op_index)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())

        def close():
            self.end[index] = time.perf_counter()
            self.stack.pop()

        return close

    # -- counters -----------------------------------------------------------

    def _count_injection(self, args, kwargs, result):
        state, model = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "model")
        key = (self.op_index, hash(state.amps.tobytes()), model)
        self.injections.setdefault(key, set()).add(hash(result.amps.tobytes()))
        self.injection_calls += 1

    def _count_syndrome(self, args, kwargs, result):
        if result.bits:
            self.syndromes_measured += 1
            self.syndromes_nontrivial += any(result.bits)

    def _count_trial(self, args, kwargs, result):
        if _arg(args, kwargs, 0, "config").code != "uncoded":
            self.coded_trials += 1
            self.coded_nonzero += result[0] > 0.0

    def _bytes_counter(self, layer):
        def count(args, kwargs, result):
            # the input register is read once and the output written once
            self.bytes_computed[layer] += 2 * _arg(args, kwargs, 0, "state").amps.nbytes

        return count

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        counters = {
            "errors.apply_error_model": self._count_injection,
            "codes.extract_syndrome": self._count_syndrome,
            "experiments.run_trial": self._count_trial,
            "statevec.apply_1q": self._bytes_counter("statevec.apply_1q"),
            "statevec.measure_pauli_string": self._bytes_counter("statevec.measure_pauli_string"),
        }
        for layer, module_name, attr in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"trace: {module_name}.{attr} not found; {layer} not traced there",
                      file=sys.stderr)
                continue
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(layer, original, counters.get(layer)))
            self._restore.append((setattr, module, attr, original))
        for name in CODE_NAMES:
            spec = get_code(name)
            object.__setattr__(spec, "encoder", self.wrap(ENCODE_LAYER, spec.encoder))
            self._restore.append((object.__setattr__, spec, "encoder", spec.encoder.__wrapped__))

    def uninstall(self) -> None:
        for set_attr, target, attr, original in reversed(self._restore):
            set_attr(target, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, tuple[float, str]]:
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        total_s = np.bincount(name, weights=duration, minlength=n_names)

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            i = self._ids.get(layer)
            out[f"{layer}.calls"] = (int(calls[i]) if i is not None else 0, "count")
            out[f"{layer}.self_s"] = (float(self_s[i]) if i is not None else 0.0, "s")

        def per_call_us(layer):
            i = self._ids.get(layer)
            return float(total_s[i] / calls[i] * 1e6) if i is not None and calls[i] else 0.0

        out["statevec.apply_1q.us_per_call"] = (per_call_us("statevec.apply_1q"), "us")
        out["experiments.trial_rng.us_per_call"] = (per_call_us("experiments.trial_rng"), "us")

        distinct = sum(len(v) for v in self.injections.values())
        out["errors.apply_error_model.distinct_ratio"] = (
            distinct / self.injection_calls if self.injection_calls else 0.0, "ratio")
        out["codes.extract_syndrome.nontrivial_ratio"] = (
            self.syndromes_nontrivial / self.syndromes_measured
            if self.syndromes_measured else 0.0, "ratio")
        out["experiments.run_trial.nonzero_ratio"] = (
            self.coded_nonzero / self.coded_trials if self.coded_trials else 0.0, "ratio")

        trial_id = self._ids.get("experiments.run_trial")
        ctor_id = self._ids.get("statevec.StateVector")
        per_trial = 0.0
        if trial_id is not None and ctor_id is not None and calls[trial_id]:
            in_trial = np.zeros(len(name), dtype=bool)
            ancestor = parent.copy()
            while True:
                live = ancestor >= 0
                if not live.any():
                    break
                in_trial[live] |= name[ancestor[live]] == trial_id
                ancestor[live] = parent[ancestor[live]]
            per_trial = float(np.count_nonzero(in_trial & (name == ctor_id)) / calls[trial_id])
        out["statevec.StateVector.per_trial"] = (per_trial, "count")
        for layer, nbytes in self.bytes_computed.items():
            out[f"{layer}.bytes_computed"] = (float(nbytes), "bytes")
        return out


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.calls", "count", "lower"))
        names.append((f"{layer}.self_s", "s", "lower"))
    names += [
        ("statevec.apply_1q.us_per_call", "us", "lower"),
        ("experiments.trial_rng.us_per_call", "us", "lower"),
        ("errors.apply_error_model.distinct_ratio", "ratio", "higher"),
        ("codes.extract_syndrome.nontrivial_ratio", "ratio", "higher"),
        ("experiments.run_trial.nonzero_ratio", "ratio", "higher"),
        ("statevec.StateVector.per_trial", "count", "lower"),
        ("statevec.apply_1q.bytes_computed", "bytes", "lower"),
        ("statevec.measure_pauli_string.bytes_computed", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return names
