"""Seeded inputs of the benchmark workloads.

Every input is a function of the workload, the seed and the size class
alone.  Run as a script this module is the benchmark's set-up step, the
work ``setup_s`` times: a fresh interpreter imports pjdna, generates one
workload's input and writes it with pjdna's own writers.

    python3 pjbench/inputs.py --workload sweep-inpaint --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# "full" is what the benchmark runs; "toy" keeps the self-test to seconds.
SIZES = {
    "full": {"image_side": 256, "raw_bytes": 256 * 1024, "dataset_images": 1000},
    "toy": {"image_side": 48, "raw_bytes": 4096, "dataset_images": 40},
}

DATASET_SIDE = 28

INPUT_FILE = {
    "roundtrip-aging": "image.pgm",
    "archive-raw": "data.bin",
    "sweep-inpaint": "image.pgm",
    "dataset-degrade": "images.idx",
}

# (period in pixels, amplitude in gray levels) of the bands of plane waves
# summed into the textured image.  Each band holds waves at evenly spread
# orientations with a seeded offset and seeded phases, so the texture is
# alike in every direction and its fill and SSIM figures are alike across
# seeds; several scales keep harmonic fill from reproducing it exactly, as
# it would a linear ramp.
_TEXTURE_BANDS = ((61.0, 34.0), (23.0, 24.0), (9.0, 16.0), (4.5, 10.0))
_TEXTURE_ORIENTATIONS = 4
_TEXTURE_NOISE = 6.0


def textured_image(seed: int, side: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:side, 0:side].astype(np.float64)
    field = np.full((side, side), 128.0)
    for period, amp in _TEXTURE_BANDS:
        offset = rng.uniform(0.0, np.pi)
        for k in range(_TEXTURE_ORIENTATIONS):
            theta = offset + k * np.pi / _TEXTURE_ORIENTATIONS
            wave = (x * np.cos(theta) + y * np.sin(theta)) * (2.0 * np.pi / period)
            field += amp / np.sqrt(_TEXTURE_ORIENTATIONS) * np.sin(wave + rng.uniform(0.0, 2.0 * np.pi))
    field += rng.normal(0.0, _TEXTURE_NOISE, (side, side))
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def raw_stream(seed: int, nbytes: int) -> bytes:
    return np.random.default_rng(seed).bytes(nbytes)


def stroke_stack(seed: int, count: int, side: int = DATASET_SIDE) -> np.ndarray:
    """Handwriting-like images: three soft strokes on a black ground."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float32)
    ink = np.zeros((count, side, side), np.float32)
    for _ in range(3):
        p = rng.uniform(6, side - 6, (count, 2)).astype(np.float32)[:, :, None, None]
        q = rng.uniform(6, side - 6, (count, 2)).astype(np.float32)[:, :, None, None]
        d = q - p
        length2 = (d * d).sum(axis=1) + np.float32(1e-6)
        t = np.clip(((xx - p[:, 0]) * d[:, 0] + (yy - p[:, 1]) * d[:, 1]) / length2, 0, 1)
        dist2 = (xx - p[:, 0] - t * d[:, 0]) ** 2 + (yy - p[:, 1] - t * d[:, 1]) ** 2
        ink = np.maximum(ink, np.exp(-dist2 / np.float32(2 * 1.2**2)))
    return np.rint(ink * 255).astype(np.uint8)


def generate(workload: str, seed: int, size: str = "full"):
    """The workload's input: a uint8 image, a byte string or an image stack."""
    s = SIZES[size]
    if workload in ("roundtrip-aging", "sweep-inpaint"):
        return textured_image(seed, s["image_side"])
    if workload == "archive-raw":
        return raw_stream(seed, s["raw_bytes"])
    if workload == "dataset-degrade":
        return stroke_stack(seed, s["dataset_images"])
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, data, directory: str) -> str:
    """Write ``data`` as the file a user would hand to pjdna; returns its path."""
    from pjdna.idx import write_idx_images
    from pjdna.images import write_pgm

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, INPUT_FILE[workload])
    if workload == "archive-raw":
        with open(path, "wb") as fh:
            fh.write(data)
    elif workload == "dataset-degrade":
        write_idx_images(path, data)
    else:
        write_pgm(path, data)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUT_FILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import pjdna  # noqa: F401  (importing the package is part of set-up)

    write(args.workload, generate(args.workload, args.seed, args.size), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
