"""Set-up probe: one fresh process imports qeclab, builds the three codes
and runs the workload's first op, then prints the seconds that took,
scaled to the nominal host speed (see calibrate.py), and the raw seconds.

Started several times per run by ``run.py``; the median is ``setup_s``.
Interpreter start-up itself is outside the measured interval.

    python3 perfbench/probe.py WORKLOAD WORKDIR
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import qeclab.cli  # noqa: E402
import qeclab.experiments  # noqa: E402
import workloads  # noqa: E402
from qeclab.codes import CODE_NAMES, get_code  # noqa: E402


def first_op(name: str, workdir: str) -> None:
    if name == "cli_session":
        out = os.path.join(workdir, "probe.txt")
        if qeclab.cli.main(["encode", "--code", "shor9", "--out", out]) != 0:
            raise SystemExit("probe: encode failed")
        os.unlink(out)
    elif name == "steane7_coherent":
        qeclab.experiments.sweep_theta(replace(workloads.STEANE7_CONFIG, trials=1))
    elif name == "shor9_bose":
        qeclab.experiments.sweep_theta(replace(workloads.SHOR9_CONFIG, trials=1))
    else:
        raise SystemExit(f"unknown workload {name!r}; expected one of {workloads.WORKLOADS}")


if __name__ == "__main__":
    for code in CODE_NAMES:
        get_code(code)
    first_op(sys.argv[1], sys.argv[2])
    elapsed = time.perf_counter() - t0
    import calibrate  # after the measured interval

    print(elapsed * calibrate.NOMINAL_S / calibrate.kernel_s(), elapsed)
