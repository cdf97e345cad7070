"""The scalar Floyd draw, the stream reference for the package's one
array draw (``errors._floyd``), shared by the test modules.

``scalar_placement`` draws one occupancy a draw at a time: Floyd's
k-subset of the slot pool, one ``rng.integers(0, j + 1)`` call per slot j,
read cell by cell (stars and bars under ``bose_einstein``).  Successive
calls on one generator are the stream every placement draw must
reproduce, row for row and word for word.
"""

import numpy as np


def uniform_subset(pool, k, rng):
    """Floyd's algorithm: a uniform k-subset of range(pool) in k draws."""
    chosen = set()
    for j in range(pool - k, pool):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def scalar_placement(n_cells, n_errors, statistics, rng):
    """One occupancy of ``n_errors`` on ``n_cells``: star j in slot p sits
    in cell p - j under ``bose_einstein``, slot p is cell p under ``fermi``."""
    bose = statistics == "bose_einstein"
    pool = n_cells + n_errors - 1 if bose else n_cells
    occupancy = np.zeros(n_cells, dtype=np.int64)
    for j, slot in enumerate(uniform_subset(pool, n_errors, rng)):
        occupancy[slot - j if bose else slot] += 1
    return occupancy
