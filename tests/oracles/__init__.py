"""Per-instance reference implementations of the pipeline's hot layers.

Production runs every layer through the :mod:`repro.columnar` kernels.
The plain Python loops those kernels replaced live here, as the oracle
the parity suites compare production output against:

* :mod:`.selection` — the selection filter (linear scan, or a scalar
  per-partition R-tree) and per-instance partition routing, including the
  duplicate-mode fan-out;
* :mod:`.allocation` — per-instance singular→collective allocation
  through ``Structure.candidate_cells``;
* :mod:`.extraction` — per-cell ``local``/``merge``/``finalize``
  extraction over the same reduce topology as production.
"""

from tests.oracles.allocation import allocate
from tests.oracles.extraction import extract
from tests.oracles.selection import partition, select

__all__ = ["allocate", "extract", "partition", "select"]
