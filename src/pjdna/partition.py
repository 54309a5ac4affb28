"""Tile partition mapping: files <-> independent per-strand payloads.

An image (or raw byte stream) is cut into fixed-size tiles, one strand per
tile, so losing a strand blanks exactly one tile and touches nothing else.
Tiles are 1-D row-major pixel runs; the manifest is a required JSON sidecar
binding geometry and codec parameters to the strand library, keeping the
payloads themselves free of any structural metadata.

Image tiles hold ``tile_pixels`` 8-bit pixels packed MSB-first followed by
zero pad bits up to the payload capacity.  With the default codec that is
20 pixels = 160 bits + 2 pad bits in 162.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import jr
from .errors import CapacityError, ConfigError, FormatError, require_int
from .strand import DEFAULT_LAYOUT, ParseBatch, StrandLayout, StrandSet, assemble_many

__all__ = [
    "TileManifest",
    "RecoveredImage",
    "encode_image",
    "decode_image",
    "encode_raw",
    "decode_raw",
    "default_tile_pixels",
]

_MANIFEST_KEYS = {
    "mode",
    "width",
    "height",
    "tile_pixels",
    "total_bits",
    "cfg",
    "layout",
    "pad_bits_per_tile",
    "strand_count",
}


def default_tile_pixels(layout: StrandLayout, cfg: jr.JrConfig) -> int:
    """Largest whole-pixel tile the payload can hold (20 for the defaults)."""
    return layout.payload_bits(cfg) // 8


def _require_tile_fit(tile_pixels, capacity: int) -> None:
    """Raise :class:`ConfigError` unless ``tile_pixels`` is an int >= 1 that fits ``capacity``."""
    require_int("tile_pixels", tile_pixels, 1)
    if tile_pixels * 8 > capacity:
        raise ConfigError(
            f"tile_pixels {tile_pixels} needs {tile_pixels * 8} bits, payload holds {capacity}"
        )


@dataclass(frozen=True)
class TileManifest:
    mode: str  # "image" | "raw"
    cfg: jr.JrConfig
    layout: StrandLayout
    strand_count: int
    pad_bits_per_tile: int
    width: int | None = None
    height: int | None = None
    tile_pixels: int | None = None
    total_bits: int | None = None

    def __post_init__(self):
        for name, minimum in (("strand_count", 0), ("pad_bits_per_tile", 0), ("width", 1),
                              ("height", 1), ("tile_pixels", 1), ("total_bits", 0)):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), minimum)
        self.layout.validate(self.cfg)
        capacity = self.layout.payload_bits(self.cfg)
        if self.mode == "image":
            if not (self.width and self.height and self.tile_pixels):
                raise ConfigError("image manifests need width, height and tile_pixels")
            if self.total_bits is not None:
                raise ConfigError("image manifests must not carry total_bits")
            _require_tile_fit(self.tile_pixels, capacity)
            expect = -(-self.width * self.height // self.tile_pixels)
            if self.strand_count != expect:
                raise ConfigError(f"strand_count must be {expect}, got {self.strand_count}")
            if self.pad_bits_per_tile != capacity - 8 * self.tile_pixels:
                raise ConfigError("pad_bits_per_tile does not match tile_pixels and capacity")
        elif self.mode == "raw":
            if self.total_bits is None:
                raise ConfigError("raw manifests need total_bits")
            if self.width is not None or self.height is not None or self.tile_pixels is not None:
                raise ConfigError("raw manifests must not carry image geometry")
            expect = -(-self.total_bits // capacity) if self.total_bits else 0
            if self.strand_count != expect:
                raise ConfigError(f"strand_count must be {expect}, got {self.strand_count}")
            if self.pad_bits_per_tile != 0:
                raise ConfigError(f"pad_bits_per_tile must be 0, got {self.pad_bits_per_tile}")
        else:
            raise ConfigError(f"unknown manifest mode {self.mode!r}")
        if self.strand_count > self.layout.index_capacity(self.cfg):
            raise CapacityError(
                f"{self.strand_count} strands exceed the index capacity "
                f"{self.layout.index_capacity(self.cfg)}"
            )

    @classmethod
    def for_image(
        cls,
        width: int,
        height: int,
        cfg: jr.JrConfig,
        layout: StrandLayout,
        tile_pixels: int | None = None,
    ) -> "TileManifest":
        if tile_pixels is None:
            tile_pixels = default_tile_pixels(layout, cfg)
        capacity = layout.payload_bits(cfg)
        _require_tile_fit(tile_pixels, capacity)
        return cls(
            mode="image",
            cfg=cfg,
            layout=layout,
            width=width,
            height=height,
            tile_pixels=tile_pixels,
            strand_count=-(-width * height // tile_pixels),
            pad_bits_per_tile=capacity - 8 * tile_pixels,
        )

    @classmethod
    def for_raw(cls, total_bits: int, cfg: jr.JrConfig, layout: StrandLayout) -> "TileManifest":
        capacity = layout.payload_bits(cfg)
        return cls(
            mode="raw",
            cfg=cfg,
            layout=layout,
            total_bits=total_bits,
            strand_count=-(-total_bits // capacity) if total_bits else 0,
            pad_bits_per_tile=0,
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "width": self.width,
            "height": self.height,
            "tile_pixels": self.tile_pixels,
            "total_bits": self.total_bits,
            "cfg": self.cfg.to_dict(),
            "layout": self.layout.to_dict(),
            "pad_bits_per_tile": self.pad_bits_per_tile,
            "strand_count": self.strand_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TileManifest":
        if not isinstance(d, dict):
            raise FormatError("manifest must be a JSON object")
        unknown = set(d) - _MANIFEST_KEYS
        if unknown:
            raise FormatError(f"manifest has unknown keys: {sorted(unknown)}")
        missing = _MANIFEST_KEYS - set(d)
        if missing:
            raise FormatError(f"manifest is missing keys: {sorted(missing)}")
        try:
            return cls(
                mode=d["mode"],
                cfg=jr.JrConfig.from_dict(d["cfg"]),
                layout=StrandLayout.from_dict(d["layout"]),
                width=d["width"],
                height=d["height"],
                tile_pixels=d["tile_pixels"],
                total_bits=d["total_bits"],
                pad_bits_per_tile=d["pad_bits_per_tile"],
                strand_count=d["strand_count"],
            )
        except (TypeError, ValueError) as exc:  # ConfigError, or a field of the wrong type
            raise FormatError(f"inconsistent manifest: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TileManifest":
        with open(path, "r", encoding="ascii") as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, over-long int
                raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(d)

    @property
    def payload_capacity(self) -> int:
        return self.layout.payload_bits(self.cfg)


@dataclass
class RecoveredImage:
    image: np.ndarray  # uint8 (height, width)
    missing_mask: np.ndarray  # bool, True where the covering tile never arrived
    stats: dict

    @property
    def masked_fraction(self) -> float:
        return float(self.missing_mask.mean()) if self.missing_mask.size else 0.0


def _zero_pad(a: np.ndarray, shape) -> np.ndarray:
    """``a`` in the leading corner of a zero uint8 array of ``shape``."""
    out = np.zeros(shape, np.uint8)
    out[tuple(map(slice, a.shape))] = a
    return out


def _image_tile_blocks(images: np.ndarray, manifest: TileManifest) -> np.ndarray:
    """Payload blocks of a ``(k, height, width)`` uint8 stack: tile ``t`` of
    image ``i`` is row ``i * strand_count + t``."""
    k = images.shape[0]
    n, tp = manifest.strand_count, manifest.tile_pixels
    pixels = _zero_pad(images.reshape(k, -1), (k, n * tp)).reshape(k * n, tp)
    bits = _zero_pad(np.unpackbits(pixels, axis=1), (k * n, manifest.payload_capacity))
    cfg = manifest.cfg
    return jr.bit_rows_to_blocks(bits, cfg.groups_per_payload, cfg.bits_per_block)


def _image_from_tiles(
    tiles: np.ndarray, seen: np.ndarray, manifest: TileManifest
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_image_tile_blocks` on the tile bits of
    :func:`_scatter_tiles`: the ``(k, height, width)`` images and their
    missing masks, True under every tile not ``seen``."""
    tp = manifest.tile_pixels
    seen = seen.reshape(-1, manifest.strand_count)
    shape = (seen.shape[0], manifest.height, manifest.width)
    hw = manifest.height * manifest.width
    # a tile's pixels are the leading bytes of its payload
    pixels = np.packbits(tiles[:, : 8 * tp], axis=1).reshape(shape[0], -1)
    images = pixels[:, :hw].reshape(shape)
    missing = np.repeat(~seen, tp, axis=1)[:, :hw].reshape(shape)
    return images, missing


def _scatter_tiles(
    rows: np.ndarray, bits: np.ndarray, n_rows: int, capacity: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Place payload bit rows ``bits`` (m, capacity) at tile rows ``rows``.

    Returns the ``(n_rows, capacity)`` tile bits, zero where nothing
    arrived, the mask of tiles that arrived, and the number of entries whose
    row lies outside ``[0, n_rows)``, which are dropped.  When a row repeats,
    its last entry wins.
    """
    backwards = np.flatnonzero((rows >= 0) & (rows < n_rows))[::-1]
    _, first = np.unique(rows[backwards], return_index=True)
    keep = backwards[first]
    tiles = np.zeros((n_rows, capacity), np.uint8)
    seen = np.zeros(n_rows, bool)
    tiles[rows[keep]] = bits[keep]
    seen[rows[keep]] = True
    return tiles, seen, int(rows.size - backwards.size)


def _decode_tiles(
    accepted: ParseBatch | Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Tile bits, seen mask and stats of a vote result or of (index,
    packed payload) pairs."""
    cfg, capacity = manifest.cfg, manifest.payload_capacity
    if isinstance(accepted, ParseBatch):
        rows = accepted.indices
        bits = jr.block_rows_to_bits(accepted.payload_blocks, cfg.bits_per_block)
    else:
        pairs = list(accepted)
        rows = np.fromiter((i for i, _ in pairs), np.int64, len(pairs))
        packed = np.frombuffer(b"".join(p for _, p in pairs), np.uint8)
        nbytes = manifest.layout.payload_bytes_len(cfg)
        bits = np.unpackbits(packed.reshape(len(pairs), nbytes), axis=1)[:, :capacity]
    tiles, seen, stray = _scatter_tiles(rows, bits, manifest.strand_count, capacity)
    recovered = int(seen.sum())
    stats = {
        "strands_expected": manifest.strand_count,
        "strands_recovered": recovered,
        "tiles_missing": manifest.strand_count - recovered,
        "stray_indices": stray,
        **(parse_stats or {}),
    }
    return tiles, seen, stats


def encode_image(
    img: np.ndarray,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
    tile_pixels: int | None = None,
) -> tuple[StrandSet, TileManifest]:
    """Encode an 8-bit grayscale image, one tile per strand.

    Tile ``t`` covers the row-major pixel run ``[t*tile_pixels, (t+1)*tile_pixels)``;
    the final tile is zero padded.  No strand depends on any other.  Strand
    ``t`` is row ``t`` of the returned :class:`~pjdna.strand.StrandSet`.
    """
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ConfigError("image must be a 2-D uint8 array")
    h, w = img.shape
    manifest = TileManifest.for_image(w, h, cfg, layout, tile_pixels)
    blocks = _image_tile_blocks(img[None], manifest)
    strands = assemble_many(np.arange(manifest.strand_count, dtype=np.int64), blocks, layout, cfg)
    return strands, manifest


def decode_image(
    accepted: ParseBatch | Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None = None,
) -> RecoveredImage:
    """Rebuild the image from whatever tiles arrived; never fails on loss.

    ``accepted`` is the :class:`~pjdna.strand.ParseBatch` of
    :func:`pjdna.channel.vote`, or (index, packed payload) pairs.  Tiles
    with no accepted strand decode to zeros and are flagged in the missing
    mask.  Duplicate indices resolve to the last entry; indices outside the
    manifest are counted and ignored.
    """
    if manifest.mode != "image":
        raise ConfigError("decode_image needs an image-mode manifest")
    tiles, seen, stats = _decode_tiles(accepted, manifest, parse_stats)
    image, missing = _image_from_tiles(tiles, seen, manifest)
    return RecoveredImage(image=image[0], missing_mask=missing[0], stats=stats)


def encode_raw(
    data: bytes,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
) -> tuple[StrandSet, TileManifest]:
    """Encode an arbitrary byte stream into capacity-sized payload slices,
    slice ``t`` in row ``t`` of the returned :class:`~pjdna.strand.StrandSet`."""
    manifest = TileManifest.for_raw(8 * len(data), cfg, layout)
    n, capacity = manifest.strand_count, manifest.payload_capacity
    bits = _zero_pad(np.unpackbits(np.frombuffer(data, np.uint8)), (n * capacity,))
    blocks = jr.bit_rows_to_blocks(bits.reshape(n, capacity), cfg.groups_per_payload,
                                   cfg.bits_per_block)
    strands = assemble_many(np.arange(n, dtype=np.int64), blocks, layout, cfg)
    return strands, manifest


def decode_raw(
    accepted: ParseBatch | Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None = None,
) -> tuple[bytes, np.ndarray, dict]:
    """Rebuild the byte stream; returns (data, missing bit mask, stats).

    ``accepted`` is as for :func:`decode_image`.  Missing strands leave
    zero-filled, mask-flagged gaps of exactly one payload capacity at their
    offset.
    """
    if manifest.mode != "raw":
        raise ConfigError("decode_raw needs a raw-mode manifest")
    tiles, seen, stats = _decode_tiles(accepted, manifest, parse_stats)
    total_bits = manifest.total_bits
    data = np.packbits(tiles.reshape(-1)[:total_bits]).tobytes()
    mask = np.repeat(~seen, manifest.payload_capacity)[:total_bits]
    return data, mask, stats
