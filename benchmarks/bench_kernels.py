"""Benchmark the numba kernels against their pure-numpy twins.

Run:  python benchmarks/bench_kernels.py

The workload mirrors the hot path: whole-library codec passes on a
10,660-strand image.  Outputs are asserted equal between paths before
timing, so the numbers compare identical work.
"""

import time

import numpy as np

from pjdna import jr
from pjdna.kernels import JIT_AVAILABLE, JIT_IMPL, NUMPY_IMPL

CFG = jr.JrConfig()
N_STRANDS = 10_660
STREAM_NT = 100
REPS = 5


def timeit(fn, *args):
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_codec(rng):
    radii = np.tile(np.array(CFG.group_radices, np.uint8), STREAM_NT // CFG.group_size)
    digits = np.empty((N_STRANDS, STREAM_NT), np.uint8)
    for j in range(STREAM_NT):
        digits[:, j] = rng.integers(0, radii[j], N_STRANDS)
    rot = CFG.rotating_mask(STREAM_NT // CFG.group_size)
    prev0 = rng.integers(0, 4, N_STRANDS).astype(np.uint8)
    codes = NUMPY_IMPL["encode_positions"](digits, rot, prev0)
    assert np.array_equal(codes, JIT_IMPL["encode_positions"](digits, rot, prev0))
    yield "encode_positions", (digits, rot, prev0)
    d_np, v_np = NUMPY_IMPL["decode_positions"](codes, rot, prev0)
    d_nb, v_nb = JIT_IMPL["decode_positions"](codes, rot, prev0)
    assert np.array_equal(d_np, d_nb) and np.array_equal(v_np, v_nb)
    yield "decode_positions", (codes, rot, prev0)


def main():
    if not JIT_AVAILABLE:
        print("numba is not installed; nothing to compare")
        return
    rng = np.random.default_rng(0)
    rows = []
    for name, args in bench_codec(rng):
        t_np = timeit(NUMPY_IMPL[name], *args)
        t_nb = timeit(JIT_IMPL[name], *args)
        rows.append((name, t_np, t_nb))
    print(f"{'kernel':<24} {'numpy':>10} {'numba':>10} {'speedup':>9}")
    for name, t_np, t_nb in rows:
        print(f"{name:<24} {t_np * 1e3:>8.2f}ms {t_nb * 1e3:>8.2f}ms {t_np / t_nb:>8.1f}x")


if __name__ == "__main__":
    main()
