"""Hot per-trace analysis kernels: one implementation each.

The pipeline's categorization fidelity lives in a handful of inner
loops: the neighbor-merge pass, concurrent interval fusion, operation
segmentation, the flat-kernel Mean Shift step, the ACF/DFT peak scans,
and activity-signal binning.  The merge and segmentation kernels are
the segmented kernels of :mod:`repro.kernels.batched`, called with one
segment per trace; the others are the NumPy kernels of
:mod:`repro.kernels.vectorized`.  :func:`~repro.kernels.backend.get_backend`
returns them as one frozen :class:`~repro.kernels.backend.KernelBackend`.
The pure-Python specification of every kernel is the test oracle in
:mod:`repro.testing.reference`, not a runtime option.
"""

from .backend import KernelBackend, get_backend

__all__ = ["KernelBackend", "get_backend"]
