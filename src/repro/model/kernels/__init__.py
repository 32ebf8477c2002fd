"""The observation store's frequency kernel, behind a small registry.

Every estimator in this package bottoms out in two word-level loops over
the bit-packed observation store (:mod:`repro.model.packed`):

* the **union popcount** — gather a path set's uint64 rows, OR them, and
  popcount the union (the batched Eq. 1 numerator,
  ``ObservationMatrix.all_good_frequencies``);
* the **row popcount** — per-path congested-interval counts
  (``ObservationMatrix.path_congestion_frequency``).

:class:`~repro.model.kernels.numpy_kernel.NumpyKernel` serves both
(chunked gather + ``np.bitwise_or.reduce`` + ``np.bitwise_count``). The
:data:`KERNELS` registry and the :func:`use_kernel` scope exist so a
caller can swap in a wrapper around it — a profiler registers a kernel
that times and counts the numpy kernel's calls, then scopes it with
:func:`use_kernel`. A registered kernel must be bit-identical to the
numpy kernel on every input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.model.kernels.base import FrequencyKernel
from repro.model.kernels.numpy_kernel import NumpyKernel

#: Registered kernels by name.
KERNELS: Dict[str, FrequencyKernel] = {"numpy": NumpyKernel()}

#: Name of the kernel every observation query dispatches to.
_selected = "numpy"


def active_kernel() -> FrequencyKernel:
    """The kernel every observation query dispatches to right now."""
    return KERNELS[_selected]


@contextmanager
def use_kernel(name: str) -> Iterator[FrequencyKernel]:
    """Scope the selection of the registered kernel ``name``.

    The previous selection is restored on exit.
    """
    global _selected
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {list(KERNELS)}")
    previous = _selected
    _selected = name
    try:
        yield KERNELS[name]
    finally:
        _selected = previous


__all__ = [
    "KERNELS",
    "FrequencyKernel",
    "NumpyKernel",
    "active_kernel",
    "use_kernel",
]
