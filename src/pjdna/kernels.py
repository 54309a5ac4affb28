"""Hot array kernels with a numba path and a pure-numpy twin.

Every kernel exists twice: a loop form compiled with ``numba.njit`` and a
vectorized numpy form.  Both consume the same inputs and produce
bit-identical outputs, so the selected path never changes results, only
speed.

Selection: the numba path is used when numba imports cleanly and the
environment variable ``PJDNA_JIT`` is not set to ``0``/``false``/``off``/``no``.
``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "JIT_AVAILABLE",
    "encode_positions",
    "decode_positions",
    "harmonic_fill",
    "NUMPY_IMPL",
    "JIT_IMPL",
]


def _env_wants_jit() -> bool:
    return os.environ.get("PJDNA_JIT", "1").strip().lower() not in {"0", "false", "off", "no"}


# ---------------------------------------------------------------------------
# loop forms (numba-compilable)
# ---------------------------------------------------------------------------

def _encode_positions_loop(digits, rot, prev0):
    n, width = digits.shape
    out = np.empty((n, width), np.uint8)
    for i in range(n):
        prev = prev0[i]
        for j in range(width):
            if rot[j]:
                c = (prev + 1 + digits[i, j]) % 4
            else:
                c = digits[i, j]
            out[i, j] = c
            prev = c
    return out


def _decode_positions_loop(codes, rot, prev0):
    n, width = codes.shape
    digits = np.empty((n, width), np.uint8)
    viol = np.full(n, -1, np.int32)
    for i in range(n):
        prev = prev0[i]
        for j in range(width):
            c = codes[i, j]
            if rot[j]:
                if c == prev and viol[i] < 0:
                    viol[i] = j
                # (c - prev - 1) mod 4, kept in unsigned arithmetic
                digits[i, j] = (c + 3 - prev) % 4
            else:
                digits[i, j] = c
            prev = c
    return digits, viol


def _harmonic_fill_loop(pixels, mask, tol, max_iter):
    h, w = pixels.shape
    cur = np.empty((h, w), np.float64)
    for i in range(h):
        for j in range(w):
            cur[i, j] = 0.0 if mask[i, j] else pixels[i, j]
    nxt = cur.copy()
    for _ in range(max_iter):
        delta = 0.0
        for i in range(h):
            for j in range(w):
                if not mask[i, j]:
                    continue
                s = 0.0
                c = 0.0
                if i > 0:
                    s += cur[i - 1, j]
                    c += 1.0
                if i < h - 1:
                    s += cur[i + 1, j]
                    c += 1.0
                if j > 0:
                    s += cur[i, j - 1]
                    c += 1.0
                if j < w - 1:
                    s += cur[i, j + 1]
                    c += 1.0
                v = s / c
                d = abs(v - cur[i, j])
                if d > delta:
                    delta = d
                nxt[i, j] = v
        tmp = cur
        cur = nxt
        nxt = tmp
        if delta < tol:
            break
    return cur


# ---------------------------------------------------------------------------
# numpy twins
# ---------------------------------------------------------------------------

def _encode_positions_np(digits, rot, prev0):
    n, width = digits.shape
    out = np.empty((n, width), np.uint8)
    prev = prev0.astype(np.uint8, copy=True)
    for j in range(width):
        if rot[j]:
            out[:, j] = (prev + 1 + digits[:, j]) % 4
        else:
            out[:, j] = digits[:, j]
        prev = out[:, j]
    return out


def _decode_positions_np(codes, rot, prev0):
    # walk the rows of the transpose: a column of a row-major matrix is strided
    cols = np.ascontiguousarray(codes.T)
    digits = np.empty_like(cols)
    viol = np.full(codes.shape[0], -1, np.int32)
    prev = prev0.astype(np.uint8, copy=False)
    for j, c in enumerate(cols):
        if rot[j]:
            hit = (c == prev) & (viol < 0)
            viol[hit] = j
            digits[j] = (c + 3 - prev) % 4
        else:
            digits[j] = c
        prev = c
    return digits.T, viol


def _harmonic_fill_np(pixels, mask, tol, max_iter):
    h, w = pixels.shape
    cur = np.where(mask, 0.0, pixels.astype(np.float64))
    cnt = np.zeros((h, w), np.float64)
    cnt[1:, :] += 1.0
    cnt[:-1, :] += 1.0
    cnt[:, 1:] += 1.0
    cnt[:, :-1] += 1.0
    for _ in range(max_iter):
        s = np.zeros((h, w), np.float64)
        s[1:, :] += cur[:-1, :]
        s[:-1, :] += cur[1:, :]
        s[:, 1:] += cur[:, :-1]
        s[:, :-1] += cur[:, 1:]
        v = s / cnt
        delta = float(np.abs(v[mask] - cur[mask]).max())
        cur = np.where(mask, v, cur)
        if delta < tol:
            break
    return cur


NUMPY_IMPL = {
    "encode_positions": _encode_positions_np,
    "decode_positions": _decode_positions_np,
    "harmonic_fill": _harmonic_fill_np,
}

try:
    from numba import njit

    JIT_AVAILABLE = True
    JIT_IMPL = {
        "encode_positions": njit(cache=True)(_encode_positions_loop),
        "decode_positions": njit(cache=True)(_decode_positions_loop),
        "harmonic_fill": njit(cache=True)(_harmonic_fill_loop),
    }
except ImportError:  # pragma: no cover - exercised only without numba
    JIT_AVAILABLE = False
    JIT_IMPL = None

JIT_ENABLED = JIT_AVAILABLE and _env_wants_jit()

_ACTIVE = JIT_IMPL if JIT_ENABLED else NUMPY_IMPL

encode_positions = _ACTIVE["encode_positions"]
decode_positions = _ACTIVE["decode_positions"]
harmonic_fill = _ACTIVE["harmonic_fill"]


def warmup() -> None:
    """Trigger JIT compilation on tiny inputs so later calls run at full speed."""
    digits = np.zeros((1, 2), np.uint8)
    rot = np.array([False, True])
    prev0 = np.zeros(1, np.uint8)
    codes = encode_positions(digits, rot, prev0)
    decode_positions(codes, rot, prev0)
    harmonic_fill(
        np.zeros((3, 3), np.float64),
        np.array([[False] * 3, [False, True, False], [False] * 3]),
        0.5,
        10,
    )
