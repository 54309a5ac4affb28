"""IDX container I/O and whole-dataset degradation.

IDX is the big-endian binary container used by MNIST-style datasets: magic
0x00000803 followed by (count, rows, cols) for image stacks, 0x00000801
followed by (count,) for label vectors, then raw uint8 data.  Labels may
also arrive as plain text, one integer per line.
"""

from __future__ import annotations

import os
import stat
import struct
from typing import Sequence

import numpy as np

from . import jr
from .errors import FormatError
from .partition import decode_image, encode_image
from .channel import drop_strands
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
    """Read labels from an IDX label file or a one-integer-per-line text file."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if len(head) == 4 and struct.unpack(">I", head)[0] == _LABEL_MAGIC:
        return read_idx_labels(path)
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: not an integer label") from None
    return np.asarray(values, np.int64)


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
    """Run every image through encode -> strand loss -> decode independently.

    ``images_in``/``images_out`` are IDX paths; ``masks_out`` (optional)
    receives the per-image missing masks as a 0/1 uint8 IDX stack.  Image i
    uses the derived seed (seed, i), so the dataset can be regenerated one
    image at a time.  Returns a summary with the masked-fraction
    distribution across images.
    """
    images = read_idx_images(images_in)
    n, rows, cols = images.shape
    out = np.empty_like(images)
    masks = np.empty_like(images) if masks_out is not None else None
    fractions = np.empty(n, np.float64)
    strands_per_image = None
    for i in range(n):
        strands, manifest = encode_image(images[i], cfg, layout, tile_pixels)
        strands_per_image = manifest.strand_count
        survivors = drop_strands(strands, rate, (seed, i))
        recovered = decode_image(((s.index_value, s.payload) for s in survivors), manifest)
        out[i] = recovered.image
        fractions[i] = recovered.masked_fraction
        if masks is not None:
            masks[i] = recovered.missing_mask.astype(np.uint8)
    write_idx_images(images_out, out)
    if masks is not None:
        write_idx_images(masks_out, masks)
    return {
        "images": int(n),
        "shape": [int(rows), int(cols)],
        "rate": float(rate),
        "seed": int(seed),
        "strands_per_image": int(strands_per_image) if strands_per_image else 0,
        "masked_fraction_mean": float(fractions.mean()) if n else 0.0,
        "masked_fraction_std": float(fractions.std()) if n else 0.0,
        "masked_fraction_min": float(fractions.min()) if n else 0.0,
        "masked_fraction_max": float(fractions.max()) if n else 0.0,
    }
