"""Unit tests for the kernel bundles: the runtime one ``get_backend``
returns and the pure-Python oracle of ``repro.testing``."""

import dataclasses

import numpy as np
import pytest

from repro.kernels import KernelBackend, get_backend
from repro.kernels.backend import RUNTIME
from repro.testing import reference as ref
from repro.testing.reference import REFERENCE, reference_kernels

BUNDLES = (REFERENCE, RUNTIME)


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="numba"):
            get_backend("numba")

    def test_backends_are_frozen(self):
        for backend in BUNDLES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                backend.name = "other"

    def test_reference_backend_binds_reference_functions(self):
        with reference_kernels():
            backend = get_backend()
        assert backend.neighbor_pass is ref.neighbor_pass
        assert backend.bin_activity is ref.bin_activity

    def test_reference_swap_is_scoped(self):
        assert get_backend() is RUNTIME
        with reference_kernels() as oracle:
            assert get_backend() is oracle is REFERENCE
        assert get_backend() is RUNTIME

    def test_reference_swap_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with reference_kernels():
                raise RuntimeError("boom")
        assert get_backend() is RUNTIME


class TestShiftStepKernels:
    """The Mean Shift step must reject unknown kernels in both bundles."""

    def test_unknown_kernel_name(self):
        seeds = np.zeros((2, 2))
        X = np.ones((3, 2))
        for backend in BUNDLES:
            with pytest.raises(ValueError, match="triweight"):
                backend.shift_step(seeds, X, 1.0, "triweight")

    def test_gaussian_agrees_across_backends(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        seeds = X[:7].copy()
        a = REFERENCE.shift_step(seeds, X, 0.8, "gaussian")
        b = RUNTIME.shift_step(seeds, X, 0.8, "gaussian")
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_backend_dataclass_shape():
    # Every slot of the backend record is a callable kernel (or the name).
    fields = dataclasses.fields(KernelBackend)
    names = {f.name for f in fields}
    assert "name" in names
    for backend in BUNDLES:
        for f in fields:
            if f.name == "name":
                continue
            assert callable(getattr(backend, f.name))
