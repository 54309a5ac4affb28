"""IDX container I/O and whole-dataset degradation.

IDX is the big-endian binary container used by MNIST-style datasets: magic
0x00000803 followed by (count, rows, cols) for image stacks, 0x00000801
followed by (count,) for label vectors, then raw uint8 data.  Labels may
also arrive as plain text, one integer per line.  Degrading a dataset maps
an image stack in memory to its degraded stack and masks: it drops strands
and nothing else, so it zeroes each image's lost tiles
(:func:`~pjdna.partition.drop_tiles`) and never builds a strand.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Iterator, Sequence

import numpy as np

from . import jr
from .errors import FormatError
from .channel import _streams, check_drop_rate
from .partition import TileManifest, drop_tiles
from .strand import DEFAULT_LAYOUT

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


def read_idx_images(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _parse_idx(fh.read(), _IMAGE_MAGIC, path)


def _parse_idx(data: bytes, magic: int, path) -> np.ndarray:
    """The uint8 array of an IDX file's bytes: an image stack for
    ``_IMAGE_MAGIC``, a label vector for ``_LABEL_MAGIC``.  The data is only
    sliced from the bytes read, so a hostile header cannot ask for a huge
    buffer; trailing bytes are ignored."""
    ndim = 3 if magic == _IMAGE_MAGIC else 1
    head = 4 + 4 * ndim
    if len(data) < head:
        raise FormatError(f"{path}: truncated IDX header")
    found, *shape = struct.unpack_from(f">{1 + ndim}I", data)
    if found != magic:
        kind = "image" if magic == _IMAGE_MAGIC else "label"
        raise FormatError(f"{path}: bad IDX {kind} magic 0x{found:08x}")
    size = math.prod(shape)
    if len(data) - head < size:
        raise FormatError(f"{path}: IDX data shorter than its header promises")
    return np.frombuffer(data, np.uint8, size, head).reshape(shape).copy()


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
        return _parse_idx(fh.read(), _LABEL_MAGIC, path)


def write_idx_labels(path, labels: Sequence[int]) -> None:
    arr = np.ascontiguousarray(labels, np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", _LABEL_MAGIC, arr.size))
        fh.write(arr.tobytes())


def read_labels(path) -> np.ndarray:
    """Read labels from an IDX label file or a one-integer-per-line text file.

    A text file must be ASCII and its labels must fit in int64; anything
    else raises :class:`FormatError`.  The file is read once, so it may be a
    pipe or a FIFO.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == struct.pack(">I", _LABEL_MAGIC):
        return _parse_idx(data, _LABEL_MAGIC, path)
    values = []
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
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
    images: np.ndarray, rate: float, seed: int
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Degrade every image of a (count, rows, cols) uint8 stack by strand
    loss, each on its own, under the default codec.

    Image i loses the strands ``channel.drop_strands(strands, rate, (seed, i))``
    would drop, so the dataset can be regenerated one image at a time.
    Loss is the only damage here, and decoding what survives gives back the
    image with each lost tile zeroed and masked, so
    :func:`~pjdna.partition.drop_tiles` zeroes those tiles without building
    a strand.  The stack is worked in chunks of whole images, and every
    image's stream is seeded in one pass up front.  Returns the degraded
    stack, the per-image missing masks as a 0/1 uint8 stack, and a summary
    with the masked-fraction distribution across images.
    """
    check_drop_rate(rate)
    n, rows, cols = images.shape
    out = np.empty_like(images)
    masks = np.empty_like(images)
    fractions = np.empty(n, np.float64)
    strands_per_image = 0
    if n:
        manifest = TileManifest.for_image(cols, rows, jr.DEFAULT_CONFIG, DEFAULT_LAYOUT)
        strands_per_image = manifest.strand_count
        step = max(1, _DEGRADE_CHUNK // strands_per_image)
        # image i's stream is keep_mask's for seed (seed, i)
        streams = _streams((seed,), np.arange(n), (0,))
        for a in range(0, n, step):
            chunk = slice(a, a + step)
            out[chunk], missing = _degrade_images(images[chunk], streams, rate, manifest)
            masks[chunk] = missing
            fractions[chunk] = missing.reshape(missing.shape[0], -1).mean(axis=1)
    summary = {
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
    return out, masks, summary


def _degrade_images(
    images: np.ndarray, streams: Iterator, rate: float, manifest: TileManifest
) -> tuple[np.ndarray, np.ndarray]:
    """Degraded images and missing masks of ``images``, each image dropping
    its strands by the next of ``streams`` as :func:`~pjdna.channel.keep_mask`
    does."""
    k, n = images.shape[0], manifest.strand_count
    keep = np.concatenate([next(streams).random(n) >= rate for _ in range(k)])
    pixels, missing = drop_tiles(images.reshape(k, -1), keep, manifest)
    return pixels.reshape(images.shape), missing.reshape(images.shape)
