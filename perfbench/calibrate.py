"""Host-speed calibration.

The hosts this benchmark runs on change speed by up to 1.8x within a
minute (a plain Python loop measured 2.5 to 4.3 M iterations/s over 48 s),
and a run lasts long enough to land in one phase or the other.  Every
timing the benchmark reports is therefore scaled to a nominal host speed:
just before each cycle of ops it times a fixed kernel that does not touch
qeclab, and after the cycle it times it again; each op's seconds are
multiplied by NOMINAL_S over the mean of the two kernel times.  The
kernel mixes the same kinds of work as the workloads -- numpy calls on
small complex registers and Python-level bookkeeping -- so both slow down
together.  Raw wall times are printed on stderr.
"""

import time

import numpy as np

# About the kernel's time on a 2-vCPU Xeon KVM guest with Python 3.11 and
# numpy 2.4, where it ranged from 1.8 to 3.4 ms.  Only ratios to it
# matter; it is fixed so that figures compare across runs and commits.
NOMINAL_S = 0.003

_REGISTER = np.exp(1j * np.linspace(0.0, 3.0, 512)) / np.sqrt(512.0)
_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=np.complex128)


def _kernel(reps: int = 30) -> float:
    amps = _REGISTER
    total = 0.0
    for i in range(reps):
        axis = i % 9
        moved = np.moveaxis(amps.reshape((2,) * 9), axis, -1) @ _ROTATION.T
        amps = np.array(np.moveaxis(moved, -1, axis).reshape(-1), dtype=np.complex128)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise FloatingPointError("calibration register went non-finite")
        table = {j: 2 * j for j in range(20)}
        total += sum(table.values()) + float(np.abs(np.vdot(amps, amps)))
    return total


def kernel_s() -> float:
    """The kernel's current time in seconds, as the mean of three runs."""
    t0 = time.perf_counter()
    for _ in range(3):
        _kernel()
    return (time.perf_counter() - t0) / 3
