"""The numba kernels and their numpy twins must agree bit for bit."""

import numpy as np
import pytest

from pjdna import kernels

pytestmark = pytest.mark.skipif(not kernels.JIT_AVAILABLE, reason="numba not installed")


def test_harmonic_fill_paths_agree(rng):
    for shape in [(5, 5), (30, 17), (64, 64)]:
        img = rng.random(shape) * 255
        mask = rng.random(shape) < 0.35
        if not mask.any() or mask.all():
            continue
        a = kernels.NUMPY_IMPL["harmonic_fill"](img, mask, 0.5, 10_000)
        b = kernels.JIT_IMPL["harmonic_fill"](img, mask, 0.5, 10_000)
        assert np.array_equal(a, b)


def test_active_path_matches_env(monkeypatch):
    assert kernels.JIT_ENABLED == kernels._env_wants_jit() and kernels.JIT_AVAILABLE
    monkeypatch.setenv("PJDNA_JIT", "0")
    assert not kernels._env_wants_jit()
    monkeypatch.setenv("PJDNA_JIT", "1")
    assert kernels._env_wants_jit()
