"""Benchmark entry point.  From the root of a qeclab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: qeclab is pure Python and is imported from ./src.  Every
measurement runs in a child process whose BLAS and OpenMP pools are
pinned to one thread; this process only starts them, one at a time, and
merges their results.  With ``--trace 0`` it first starts SETUP_PROBES
fresh set-up probes and reports their median as ``setup_s``, then one
untraced run for the end-to-end metrics.  With ``--trace 1`` it starts one
traced run for the per-layer metrics.  The last stdout line is the
result as one JSON object.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
DEADLINE_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv: list, env: dict, deadline: float) -> str:
    """Run one child to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before starting " + os.path.basename(argv[1]))
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {' '.join(argv[1:3])} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:3])} exited {proc.returncode}")
    return lines[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description="qeclab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qeclab", "__init__.py")):
        print("error: run from the root of a qeclab checkout (no src/qeclab here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    python = sys.executable

    tmp_root = os.path.join(root, ".perfbench_tmp")
    metrics = {}
    if args.trace == 0:
        os.makedirs(tmp_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
            probes = [
                [float(v) for v in run_child(
                    [python, os.path.join(HERE, "probe.py"), args.workload, workdir],
                    env, deadline).split()]
                for _ in range(SETUP_PROBES)
            ]
        print("setup probes (adjusted s / raw s): "
              + " ".join(f"{a:.4f}/{r:.4f}" for a, r in probes), file=sys.stderr)
        metrics["setup_s"] = {"value": statistics.median(a for a, _ in probes), "unit": "s"}

    result = json.loads(run_child(
        [python, os.path.join(HERE, "bench.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, deadline,
    ))
    with contextlib.suppress(OSError):  # rmdir refuses while another run uses it
        os.rmdir(tmp_root)
    metrics.update(result["metrics"])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
