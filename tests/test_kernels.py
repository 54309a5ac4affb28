"""The numba kernels and their numpy twins must agree bit for bit."""

import pytest

from pjdna import kernels

pytestmark = pytest.mark.skipif(not kernels.JIT_AVAILABLE, reason="numba not installed")


def test_active_path_matches_env(monkeypatch):
    assert kernels.JIT_ENABLED == kernels._env_wants_jit() and kernels.JIT_AVAILABLE
    monkeypatch.setenv("PJDNA_JIT", "0")
    assert not kernels._env_wants_jit()
    monkeypatch.setenv("PJDNA_JIT", "1")
    assert kernels._env_wants_jit()
