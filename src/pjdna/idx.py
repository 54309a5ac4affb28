"""IDX container I/O and whole-dataset degradation.

IDX is the big-endian binary container used by MNIST-style datasets: magic
0x00000803 followed by (count, rows, cols) for image stacks, 0x00000801
followed by (count,) for label vectors, then raw uint8 data.  Labels may
also arrive as plain text, one integer per line.  Degrading a dataset drops
strands and nothing else, so it zeroes each image's lost tiles
(:func:`~pjdna.partition.drop_tiles`) and never builds a strand.
"""

from __future__ import annotations

import os
import stat
import struct
from typing import Sequence

import numpy as np

from . import jr
from .errors import FormatError
from .channel import check_drop_rate, keep_mask
from .partition import TileManifest, drop_tiles
from .strand import DEFAULT_LAYOUT, StrandLayout

__all__ = [
    "read_idx_images",
    "write_idx_images",
    "read_idx_labels",
    "write_idx_labels",
    "read_labels",
    "degrade_dataset",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801

# Strands degraded together, in whole images; bounds a chunk's temporaries
# to a few MiB.
_DEGRADE_CHUNK = 640


def _read_promised(fh, size: int, path) -> bytes:
    """The ``size`` data bytes a header promises.

    A regular file's size is checked before reading, so a hostile header
    cannot ask for a huge buffer; a pipe has no size up front, so it is read
    to its end, which never asks for more than it holds.
    """
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        data = fh.read(size) if st.st_size - fh.tell() >= size else b""
    else:
        data = fh.read()[:size]
    if len(data) != size:
        raise FormatError(f"{path}: IDX data shorter than its header promises")
    return data


def read_idx_images(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise FormatError(f"{path}: truncated IDX header")
        magic, n, rows, cols = struct.unpack(">IIII", head)
        if magic != _IMAGE_MAGIC:
            raise FormatError(f"{path}: bad IDX image magic 0x{magic:08x}")
        data = _read_promised(fh, n * rows * cols, path)
    return np.frombuffer(data, np.uint8).reshape(n, rows, cols).copy()


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.ascontiguousarray(images, np.uint8)
    if images.ndim != 3:
        raise FormatError("IDX image stacks must be (count, rows, cols)")
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise FormatError(f"{path}: truncated IDX header")
        magic, n = struct.unpack(">II", head)
        if magic != _LABEL_MAGIC:
            raise FormatError(f"{path}: bad IDX label magic 0x{magic:08x}")
        data = _read_promised(fh, n, path)
    return np.frombuffer(data, np.uint8).copy()


def write_idx_labels(path, labels: Sequence[int]) -> None:
    arr = np.ascontiguousarray(labels, np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", _LABEL_MAGIC, arr.size))
        fh.write(arr.tobytes())


def read_labels(path) -> np.ndarray:
    """Read labels from an IDX label file or a one-integer-per-line text file.

    A text file must be ASCII and its labels must fit in int64; anything
    else raises :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if len(head) == 4 and struct.unpack(">I", head)[0] == _LABEL_MAGIC:
        return read_idx_labels(path)
    values = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(int(line))
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: not an integer label") from None
    except UnicodeDecodeError:
        raise FormatError(f"{path}: text labels must be ASCII") from None
    try:
        return np.asarray(values, np.int64)
    except OverflowError:
        raise FormatError(f"{path}: a label lies outside the int64 range") from None


def degrade_dataset(
    images_in,
    rate: float,
    seed: int,
    images_out,
    masks_out=None,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
    tile_pixels: int | None = None,
) -> dict:
    """Degrade every image of an IDX stack by strand loss, each on its own.

    ``images_in``/``images_out`` are IDX paths; ``masks_out`` (optional)
    receives the per-image missing masks as a 0/1 uint8 IDX stack.  Image i
    loses the strands ``channel.drop_strands(strands, rate, (seed, i))``
    would drop, so the dataset can be regenerated one image at a time.
    Loss is the only damage here, and decoding what survives gives back the
    image with each lost tile zeroed and masked, so
    :func:`~pjdna.partition.drop_tiles` zeroes those tiles without building
    a strand.  The stack is worked in chunks of whole images.  Returns a
    summary with the masked-fraction distribution across images.
    """
    check_drop_rate(rate)
    images = read_idx_images(images_in)
    n, rows, cols = images.shape
    out = np.empty_like(images)
    masks = np.empty_like(images) if masks_out is not None else None
    fractions = np.empty(n, np.float64)
    strands_per_image = 0
    if n:
        manifest = TileManifest.for_image(cols, rows, cfg, layout, tile_pixels)
        strands_per_image = manifest.strand_count
        step = max(1, _DEGRADE_CHUNK // strands_per_image)
        for a in range(0, n, step):
            chunk = slice(a, a + step)
            out[chunk], missing = _degrade_images(images[chunk], a, rate, seed, manifest)
            fractions[chunk] = missing.reshape(missing.shape[0], -1).mean(axis=1)
            if masks is not None:
                masks[chunk] = missing
    write_idx_images(images_out, out)
    if masks is not None:
        write_idx_images(masks_out, masks)
    return {
        "images": int(n),
        "shape": [int(rows), int(cols)],
        "rate": float(rate),
        "seed": int(seed),
        "strands_per_image": int(strands_per_image),
        "masked_fraction_mean": float(fractions.mean()) if n else 0.0,
        "masked_fraction_std": float(fractions.std()) if n else 0.0,
        "masked_fraction_min": float(fractions.min()) if n else 0.0,
        "masked_fraction_max": float(fractions.max()) if n else 0.0,
    }


def _degrade_images(
    images: np.ndarray, first: int, rate: float, seed: int, manifest: TileManifest
) -> tuple[np.ndarray, np.ndarray]:
    """Degraded images and missing masks of ``images``, stack images
    ``first, first + 1, ...``."""
    k, n = images.shape[0], manifest.strand_count
    keep = np.concatenate([keep_mask(n, rate, (seed, first + j)) for j in range(k)])
    pixels, missing = drop_tiles(images.reshape(k, -1), keep, manifest, 8)
    return pixels.reshape(images.shape), missing.reshape(images.shape)
