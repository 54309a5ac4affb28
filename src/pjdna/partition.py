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
from .errors import CapacityError, ConfigError, FormatError
from .strand import DEFAULT_LAYOUT, Strand, StrandLayout, assemble_many

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
        self.layout.validate(self.cfg)
        capacity = self.layout.payload_bits(self.cfg)
        if self.mode == "image":
            if not (self.width and self.height and self.tile_pixels):
                raise ConfigError("image manifests need width, height and tile_pixels")
            if self.total_bits is not None:
                raise ConfigError("image manifests must not carry total_bits")
            if self.tile_pixels * 8 > capacity:
                raise ConfigError(
                    f"tile_pixels {self.tile_pixels} needs {self.tile_pixels * 8} bits, "
                    f"payload holds {capacity}"
                )
            expect = -(-self.width * self.height // self.tile_pixels)
            if self.strand_count != expect:
                raise ConfigError(f"strand_count must be {expect}, got {self.strand_count}")
            if self.pad_bits_per_tile != capacity - 8 * self.tile_pixels:
                raise ConfigError("pad_bits_per_tile does not match tile_pixels and capacity")
        elif self.mode == "raw":
            if self.total_bits is None or self.total_bits < 0:
                raise ConfigError("raw manifests need total_bits >= 0")
            if self.width is not None or self.height is not None or self.tile_pixels is not None:
                raise ConfigError("raw manifests must not carry image geometry")
            expect = -(-self.total_bits // capacity) if self.total_bits else 0
            if self.strand_count != expect:
                raise ConfigError(f"strand_count must be {expect}, got {self.strand_count}")
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
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _tile_bits_to_blocks(bits: np.ndarray, manifest: TileManifest) -> np.ndarray:
    n = bits.shape[0]
    cfg = manifest.cfg
    groups = cfg.groups_per_payload
    return bits.reshape(n, groups, cfg.bits_per_block).astype(np.int64) @ (
        1 << np.arange(cfg.bits_per_block - 1, -1, -1, dtype=np.int64)
    )


def encode_image(
    img: np.ndarray,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
    tile_pixels: int | None = None,
) -> tuple[list[Strand], TileManifest]:
    """Encode an 8-bit grayscale image, one tile per strand.

    Tile ``t`` covers the row-major pixel run ``[t*tile_pixels, (t+1)*tile_pixels)``;
    the final tile is zero padded.  No strand depends on any other.
    """
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ConfigError("image must be a 2-D uint8 array")
    h, w = img.shape
    manifest = TileManifest.for_image(w, h, cfg, layout, tile_pixels)
    n, tp = manifest.strand_count, manifest.tile_pixels
    flat = np.zeros(n * tp, np.uint8)
    flat[: h * w] = img.reshape(-1)
    tile_bytes = flat.reshape(n, tp)
    bits = np.unpackbits(tile_bytes, axis=1)
    if manifest.pad_bits_per_tile:
        bits = np.concatenate(
            [bits, np.zeros((n, manifest.pad_bits_per_tile), np.uint8)], axis=1
        )
    blocks = _tile_bits_to_blocks(bits, manifest)
    strands = assemble_many(np.arange(n, dtype=np.int64), blocks, layout, cfg)
    return strands, manifest


def _payloads_to_bits(payloads: list[bytes], manifest: TileManifest) -> np.ndarray:
    nbytes = manifest.layout.payload_bytes_len(manifest.cfg)
    mat = np.frombuffer(b"".join(payloads), np.uint8).reshape(len(payloads), nbytes)
    return np.unpackbits(mat, axis=1)[:, : manifest.payload_capacity]


def _dedupe_sorted(indices: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each index after a stable sort."""
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    last = np.nonzero(np.append(sorted_idx[1:] != sorted_idx[:-1], True))[0]
    return order[last]


def decode_image(
    accepted: Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None = None,
) -> RecoveredImage:
    """Rebuild the image from whatever tiles arrived; never fails on loss.

    Tiles with no accepted strand decode to zeros and are flagged in the
    missing mask.  Duplicate indices resolve to the last entry after sorting
    by index; indices outside the manifest are counted and ignored.
    """
    if manifest.mode != "image":
        raise ConfigError("decode_image needs an image-mode manifest")
    pairs = list(accepted)
    n, tp = manifest.strand_count, manifest.tile_pixels
    h, w = manifest.height, manifest.width
    flat = np.zeros(n * tp, np.uint8)
    seen = np.zeros(n, bool)
    stray = 0
    if pairs:
        idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        valid = (idx >= 0) & (idx < n)
        stray = int((~valid).sum())
        pairs = [p for p, v in zip(pairs, valid) if v]
    if pairs:
        idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        keep = _dedupe_sorted(idx)
        idx = idx[keep]
        payloads = [pairs[i][1] for i in keep]
        bits = _payloads_to_bits(payloads, manifest)
        tile_bytes = np.packbits(bits[:, : 8 * tp], axis=1)
        flat[(idx[:, None] * tp + np.arange(tp)).reshape(-1)] = tile_bytes.reshape(-1)
        seen[idx] = True
    image = flat[: h * w].reshape(h, w)
    mask_flat = np.repeat(~seen, tp)[: h * w]
    stats = {
        "strands_expected": n,
        "strands_recovered": int(seen.sum()),
        "tiles_missing": int(n - seen.sum()),
        "stray_indices": stray,
    }
    if parse_stats:
        stats.update(parse_stats)
    return RecoveredImage(image=image, missing_mask=mask_flat.reshape(h, w), stats=stats)


def encode_raw(
    data: bytes,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
) -> tuple[list[Strand], TileManifest]:
    """Encode an arbitrary byte stream into capacity-sized payload slices."""
    manifest = TileManifest.for_raw(8 * len(data), cfg, layout)
    n = manifest.strand_count
    if n == 0:
        return [], manifest
    capacity = manifest.payload_capacity
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    padded = np.zeros(n * capacity, np.uint8)
    padded[: bits.size] = bits
    blocks = _tile_bits_to_blocks(padded.reshape(n, capacity), manifest)
    strands = assemble_many(np.arange(n, dtype=np.int64), blocks, layout, cfg)
    return strands, manifest


def decode_raw(
    accepted: Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None = None,
) -> tuple[bytes, np.ndarray, dict]:
    """Rebuild the byte stream; returns (data, missing bit mask, stats).

    Missing strands leave zero-filled, mask-flagged gaps of exactly one
    payload capacity at their offset.
    """
    if manifest.mode != "raw":
        raise ConfigError("decode_raw needs a raw-mode manifest")
    pairs = list(accepted)
    n = manifest.strand_count
    capacity = manifest.payload_capacity
    total_bits = manifest.total_bits
    bits = np.zeros(n * capacity, np.uint8)
    seen = np.zeros(n, bool)
    stray = 0
    if pairs:
        idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        valid = (idx >= 0) & (idx < n)
        stray = int((~valid).sum())
        pairs = [p for p, v in zip(pairs, valid) if v]
    if pairs:
        idx = np.fromiter((p[0] for p in pairs), np.int64, len(pairs))
        keep = _dedupe_sorted(idx)
        idx = idx[keep]
        rows = _payloads_to_bits([pairs[i][1] for i in keep], manifest)
        starts = idx * capacity
        pos = (starts[:, None] + np.arange(capacity)).reshape(-1)
        bits[pos] = rows.reshape(-1)
        seen[idx] = True
    mask = np.repeat(~seen, capacity)[:total_bits]
    data = np.packbits(bits[:total_bits]).tobytes() if total_bits else b""
    stats = {
        "strands_expected": n,
        "strands_recovered": int(seen.sum()),
        "tiles_missing": int(n - seen.sum()),
        "stray_indices": stray,
    }
    if parse_stats:
        stats.update(parse_stats)
    return data, mask, stats
