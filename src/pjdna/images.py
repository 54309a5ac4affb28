"""Binary PGM (P5, maxval 255) and PBM (P4) image files."""

from __future__ import annotations

import numpy as np

from .errors import FormatError

__all__ = ["read_pgm", "write_pgm", "read_pbm", "write_pbm"]

# Longest header number read: 19 digits hold any size a 64-bit index can
# reach, and int() refuses text of more than 4,300 digits with a ValueError.
_MAX_HEADER_DIGITS = 19


def _read_header_tokens(data: bytes, count: int, path) -> tuple[list[int], int]:
    """Parse `count` whitespace/comment-separated integers after the magic."""
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError(f"{path}: truncated header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise FormatError(f"{path}: bad header token {tok!r}")
            if len(tok) > _MAX_HEADER_DIGITS:
                raise FormatError(f"{path}: header number of {len(tok)} digits")
            tokens.append(int(tok))
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise FormatError(f"{path}: header not terminated")
    return tokens, i + 1


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    (width, height, maxval), offset = _read_header_tokens(data, 3, path)
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")
    need = width * height
    raster = data[offset : offset + need]
    if len(raster) != need:
        raise FormatError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    return np.frombuffer(raster, np.uint8).reshape(height, width).copy()


def write_pgm(path, img: np.ndarray) -> None:
    img = np.ascontiguousarray(img, np.uint8)
    if img.ndim != 2:
        raise FormatError("PGM images must be 2-D")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pbm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] != b"P4":
        raise FormatError(f"{path}: not a binary PBM (P4) file")
    (width, height), offset = _read_header_tokens(data, 2, path)
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    raster = data[offset : offset + need]
    if len(raster) != need:
        raise FormatError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    rows = np.frombuffer(raster, np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :width]
    return bits.astype(bool)


def write_pbm(path, mask: np.ndarray) -> None:
    mask = np.ascontiguousarray(mask, bool)
    if mask.ndim != 2:
        raise FormatError("PBM masks must be 2-D")
    h, w = mask.shape
    packed = np.packbits(mask.astype(np.uint8), axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode("ascii"))
        fh.write(packed.tobytes())
