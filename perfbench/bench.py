"""One benchmark run of one workload, in one process.

Started by ``run.py``, which pins the BLAS thread count and adds set-up
time.  Prints one JSON object on its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {name: {"value": ..., "unit": ...}}}

With ``--trace 0`` the loop runs untraced for ``--seconds`` and reports
the end-to-end metrics.  With ``--trace 1`` it runs untraced for half
the time, then replays exactly the same ops traced, and reports the
per-layer metrics plus the traced-minus-untraced wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import calibrate
import qeclab
import tracing
import workloads


WARMUP_S = 2.0


class Loop:
    """Runs ops, gates them, and keeps their timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.unexpected: list[str] = []
        self.digests: dict[tuple, bytes] = {}
        # host-speed-adjusted seconds, and raw wall seconds for the log
        self.latency = {"sweep": [], "cmd": []}
        self.raw = {"sweep": [], "cmd": []}
        self.pairs = 0
        self.pairs_s = 0.0
        self.raw_pairs_s = 0.0

    def run_op(self, op: workloads.Op) -> float | None:
        """Run and gate one op; returns its seconds, or None if it failed."""
        self.attempted += 1
        try:
            elapsed, output = op.run()
        except Exception as exc:  # any raise is a failed op, and the run goes on
            self._fail(op, f"raised {type(exc).__name__}: {exc}", known=False)
            return None
        verdict = op.check(output)
        if verdict is None:
            digest = hashlib.sha256(op.digest(output)).digest()
            first = self.digests.setdefault((op.kind, op.key), digest)
            if first != digest:
                verdict = ("output not byte-identical to an earlier call with the same inputs",
                           False)
        if verdict is not None:
            self._fail(op, *verdict)
            return None
        return elapsed

    def record(self, op: workloads.Op, elapsed: float, factor: float) -> None:
        """Keep one op's time, scaled by ``factor`` to the nominal host speed."""
        if op.sample is None:
            return
        self.latency[op.sample].append(elapsed * factor)
        self.raw[op.sample].append(elapsed)
        if op.pairs:
            self.pairs += op.pairs
            self.pairs_s += elapsed * factor
            self.raw_pairs_s += elapsed

    def _fail(self, op: workloads.Op, reason: str, known: bool) -> None:
        self.failed += 1
        if known:
            self.known_failed += 1
        else:
            self.unexpected.append(f"{op.kind} {op.key}: {reason}")

    def run_cycles(self, workload, seconds=None, cycles=None, timed=True, tracer=None) -> int:
        """Run whole cycles until ``seconds`` have passed or ``cycles`` are done.

        Timed cycles are bracketed by host-speed calibrations (calibrate.py).
        """
        t0 = time.perf_counter()
        kernel_before = calibrate.kernel_s() if timed else None
        done = 0
        while True:
            if cycles is not None and done >= cycles:
                break
            if seconds is not None and time.perf_counter() - t0 >= seconds:
                break
            finished = []
            for op in workload.cycle():
                if tracer is None:
                    elapsed = self.run_op(op)
                else:
                    close = tracer.op_span(self.attempted)
                    try:
                        elapsed = self.run_op(op)
                    finally:
                        close()
                if elapsed is not None:
                    finished.append((op, elapsed))
            if timed:
                kernel_after = calibrate.kernel_s()
                factor = 2.0 * calibrate.NOMINAL_S / (kernel_before + kernel_after)
                for op, elapsed in finished:
                    self.record(op, elapsed, factor)
                kernel_before = kernel_after
            done += 1
        return done


def end_to_end(loop: Loop, name: str) -> dict[str, tuple[float, str]]:
    sweep_s = loop.latency["sweep"]
    # One-shot commands on cli_session; on the Monte Carlo workloads the
    # command is the sweep_theta call itself.
    cmd_s = loop.latency["cmd"] if name == "cli_session" else sweep_s
    if len(sweep_s) < 2 or len(cmd_s) < 2:
        raise SystemExit("error: too few successful ops to measure; see the FAILED lines")
    if len(cmd_s) < 100:
        print(f"warning: {len(cmd_s)} command samples leave fewer than ten beyond the "
              "90th percentile; raise --seconds", file=sys.stderr)
    deciles = statistics.quantiles(cmd_s, n=10)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_cmd = loop.raw["cmd"] if name == "cli_session" else loop.raw["sweep"]
    print(
        f"samples: {len(cmd_s)} commands (p90 has {len(cmd_s) // 10} beyond it), "
        f"{len(sweep_s)} sweeps\n"
        f"raw wall clock: trials_per_s {loop.pairs / loop.raw_pairs_s:.2f}, "
        f"cmd_p50_ms {statistics.median(raw_cmd) * 1e3:.4f}, "
        f"cmd_p90_ms {statistics.quantiles(raw_cmd, n=10)[8] * 1e3:.4f}, "
        f"sweep_cmd_s {statistics.median(loop.raw['sweep']):.5f}",
        file=sys.stderr,
    )
    return {
        # Total pairs over total sweep time, not a median: the host's speed
        # moves between fast and slow phases, and a median that falls
        # between the two modes jumps with their mix more than the mean.
        "trials_per_s": (loop.pairs / loop.pairs_s, "1/s"),
        "cmd_p50_ms": (statistics.median(cmd_s) * 1e3, "ms"),
        "cmd_p90_ms": (deciles[8] * 1e3, "ms"),
        "sweep_cmd_s": (statistics.median(sweep_s), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio"),
    }


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def environment(root: str) -> str:
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            fields = [_read(os.path.join(cache_dir, index, f)) for f in ("level", "type", "size")]
        except OSError:
            continue
        caches.append("L{} {} {}".format(*fields))
    return (
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, nproc {os.cpu_count()}, "
        f"caches {', '.join(caches) or 'unknown'}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"src/ lines {src_lines}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()

    print(environment(root), file=sys.stderr)
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}", file=sys.stderr)

    workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        loop = Loop()
        # Warm-up: untimed whole cycles let lazy set-up finish (code tables,
        # cached Pauli actions) and the process settle before any timing.
        # Their ops are still gated.
        loop.run_cycles(workloads.make_workload(args.workload, args.seed, workdir),
                        seconds=WARMUP_S, timed=False)
        if args.trace == 0:
            loop.run_cycles(workloads.make_workload(args.workload, args.seed + 1, workdir),
                            seconds=args.seconds)
        else:
            metrics = traced_metrics(loop, args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in loop.unexpected[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"ops: {loop.attempted} attempted, {loop.failed} failed "
        f"({loop.known_failed} known fermi:2 defect), "
        f"failed_ratio {loop.failed / loop.attempted:.6f}",
        file=sys.stderr,
    )
    if args.trace == 0:
        metrics = end_to_end(loop, args.workload)
    print(json.dumps({
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(loop: Loop, args, root: str, workdir: str) -> dict[str, tuple[float, str]]:
    t0 = time.perf_counter()
    cycles = loop.run_cycles(workloads.make_workload(args.workload, args.seed + 1, workdir),
                             seconds=args.seconds / 2, timed=False)
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        loop.run_cycles(workloads.make_workload(args.workload, args.seed + 1, workdir),
                        cycles=cycles, timed=False, tracer=tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    missing = {name for name, _, _ in tracing.metric_names()} - set(metrics)
    if missing:
        raise SystemExit(f"error: per-layer metrics not computed: {sorted(missing)}")
    print(f"trace: {cycles} cycles, {len(tracer.start)} spans, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    if not os.path.abspath(qeclab.__file__).startswith(os.path.join(os.getcwd(), "src", "")):
        print(f"error: qeclab imported from {qeclab.__file__}, not from ./src", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
