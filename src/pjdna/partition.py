"""Tile partition mapping: files <-> independent per-strand payloads.

An image (or raw byte stream) is cut into fixed-size tiles, one strand per
tile, so losing a strand blanks exactly one tile and touches nothing else.
Tiles are 1-D row-major pixel runs; the manifest is a required JSON sidecar
binding geometry and codec parameters to the strand library, keeping the
payloads themselves free of any structural metadata.

Image and raw mode share one tile model (:class:`TileManifest`): the file is
one bit stream cut into tiles, each tile's bits followed by zero pad bits up
to the payload capacity.  An image tile holds ``tile_pixels`` 8-bit pixels
packed MSB-first; with the default codec that is 20 pixels = 160 bits + 2
pad bits in 162.  A raw tile fills the whole payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from . import jr
from .errors import CapacityError, ConfigError, FormatError, require_derived, require_int
from .strand import DEFAULT_LAYOUT, ParseBatch, StrandLayout, StrandSet, assemble_many

__all__ = [
    "TileManifest",
    "RecoveredImage",
    "encode_image",
    "decode_image",
    "encode_raw",
    "decode_raw",
    "drop_tiles",
    "default_tile_pixels",
]

# Manifest keys derived from the others: written for readers, checked on load.
_DERIVED_KEYS = ("strand_count", "pad_bits_per_tile")


def default_tile_pixels(layout: StrandLayout, cfg: jr.JrConfig) -> int:
    """Largest whole-pixel tile the payload can hold (20 for the defaults)."""
    return layout.payload_bits(cfg) // 8


@dataclass(frozen=True)
class TileManifest:
    """The structure of one encoded file: a bit stream of ``stream_bits``
    cut into tiles of ``tile_bits``, one strand per tile.

    An image's stream is its ``8 * width * height`` pixel bits, cut into
    tiles of ``8 * tile_pixels``; a raw stream is its ``total_bits``, cut
    into tiles of the whole payload capacity.  ``strand_count`` and
    ``pad_bits_per_tile`` are derived from these fields.  :meth:`to_dict`
    still writes them, and :meth:`from_dict` rejects a stored value that is
    not the derived one.
    """

    mode: str  # "image" | "raw"
    cfg: jr.JrConfig
    layout: StrandLayout
    width: int | None = None
    height: int | None = None
    tile_pixels: int | None = None
    total_bits: int | None = None

    def __post_init__(self):
        for name, minimum in (("width", 1), ("height", 1), ("tile_pixels", 1), ("total_bits", 0)):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), minimum)
        self.layout.validate(self.cfg)
        if self.mode == "image":
            if not (self.width and self.height and self.tile_pixels):
                raise ConfigError("image manifests need width, height and tile_pixels")
            if self.total_bits is not None:
                raise ConfigError("image manifests must not carry total_bits")
            if self.pad_bits_per_tile < 0:
                raise ConfigError(
                    f"tile_pixels {self.tile_pixels} needs {self.tile_bits} bits, "
                    f"payload holds {self.payload_capacity}"
                )
        elif self.mode == "raw":
            if self.total_bits is None:
                raise ConfigError("raw manifests need total_bits")
            if self.width is not None or self.height is not None or self.tile_pixels is not None:
                raise ConfigError("raw manifests must not carry image geometry")
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
        return cls(mode="image", cfg=cfg, layout=layout, width=width, height=height,
                   tile_pixels=tile_pixels)

    @classmethod
    def for_raw(cls, total_bits: int, cfg: jr.JrConfig, layout: StrandLayout) -> "TileManifest":
        return cls(mode="raw", cfg=cfg, layout=layout, total_bits=total_bits)

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
        keys = {*(f.name for f in fields(cls)), *_DERIVED_KEYS}
        unknown = set(d) - keys
        if unknown:
            raise FormatError(f"manifest has unknown keys: {sorted(unknown)}")
        missing = keys - set(d)
        if missing:
            raise FormatError(f"manifest is missing keys: {sorted(missing)}")
        try:
            manifest = cls(
                mode=d["mode"],
                cfg=jr.JrConfig.from_dict(d["cfg"]),
                layout=StrandLayout.from_dict(d["layout"]),
                width=d["width"],
                height=d["height"],
                tile_pixels=d["tile_pixels"],
                total_bits=d["total_bits"],
            )
            for name in _DERIVED_KEYS:
                require_derived(name, d[name], getattr(manifest, name))
        except (TypeError, ValueError) as exc:  # ConfigError, or a field of the wrong type
            raise FormatError(f"inconsistent manifest: {exc}") from exc
        return manifest

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TileManifest":
        with open(path, "rb") as fh:
            return cls.parse(fh.read(), path)

    @classmethod
    def parse(cls, data: bytes, path) -> "TileManifest":
        """The manifest of a JSON file's ASCII bytes; ``path`` names the
        file in errors."""
        try:
            d = json.loads(data.decode("ascii"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, over-long int
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(d)

    @property
    def payload_capacity(self) -> int:
        return self.layout.payload_bits(self.cfg)

    @property
    def stream_bits(self) -> int:
        return 8 * self.width * self.height if self.mode == "image" else self.total_bits

    @property
    def tile_bits(self) -> int:
        return 8 * self.tile_pixels if self.mode == "image" else self.payload_capacity

    @property
    def strand_count(self) -> int:
        return -(-self.stream_bits // self.tile_bits)

    @property
    def pad_bits_per_tile(self) -> int:
        return self.payload_capacity - self.tile_bits


@dataclass
class RecoveredImage:
    image: np.ndarray  # uint8 (height, width)
    missing_mask: np.ndarray  # bool, True where the covering tile never arrived
    stats: dict

    @property
    def masked_fraction(self) -> float:
        return float(self.missing_mask.mean()) if self.missing_mask.size else 0.0


def _zero_pad(a: np.ndarray, shape) -> np.ndarray:
    """``a`` in the leading corner of a zero uint8 array of ``shape``, or
    ``a`` itself when it has that shape."""
    if a.shape == shape:
        return a
    out = np.zeros(shape, np.uint8)
    out[tuple(map(slice, a.shape))] = a
    return out


def _tile_bits(streams: np.ndarray, manifest: TileManifest) -> np.ndarray:
    """Tile bits of ``k`` streams, a ``(k, stream_bits // 8)`` uint8 array:
    tile ``t`` of stream ``i`` is row ``i * strand_count + t`` of ``tile_bits``
    bits, the last tile of a stream zero padded."""
    k = streams.shape[0]
    n, tile_bits = manifest.strand_count, manifest.tile_bits
    bits = np.unpackbits(_zero_pad(streams, (k, -(-n * tile_bits // 8))), axis=1)
    return bits[:, : n * tile_bits].reshape(k * n, tile_bits)


def drop_tiles(
    streams: np.ndarray, keep: np.ndarray, manifest: TileManifest, unit: int
) -> tuple[np.ndarray, np.ndarray]:
    """What decoding ``k`` streams returns when strand loss is the only
    damage: the streams with every tile not flagged in ``keep`` zeroed, and
    their missing masks of one flag per ``unit`` stream bits (8 for pixels).

    ``streams`` is ``(k, stream_bits // 8)`` uint8 and ``keep`` holds one
    flag per tile, tile ``t`` of stream ``i`` at ``i * strand_count + t``.
    No strand carries another's data, so this equals encoding, dropping the
    strands ``keep`` does not flag and decoding the rest.
    """
    tiles = _tile_bits(streams, manifest)
    tiles[~keep] = 0
    return _streams_from_tiles(tiles, keep, streams.shape[0], manifest, unit)


def _streams_from_tiles(
    tiles: np.ndarray, seen: np.ndarray, k: int, manifest: TileManifest, unit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_tile_bits` on the tile bits of
    :func:`_scatter_tiles`: the ``(k, stream_bits // 8)`` streams, and their
    missing masks of one flag per ``unit`` stream bits, True under every
    tile not ``seen``."""
    n, tile_bits, stream_bits = manifest.strand_count, manifest.tile_bits, manifest.stream_bits
    streams = np.packbits(tiles[:, :tile_bits].reshape(k, n * tile_bits)[:, :stream_bits], axis=1)
    missing = np.repeat(~seen.reshape(k, n), tile_bits // unit, axis=1)[:, : stream_bits // unit]
    return streams, missing


def _scatter_tiles(
    rows: np.ndarray, bits: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Place tile bit rows ``bits`` (m, tile_bits) at tile rows ``rows``.

    Returns the ``(n_rows, tile_bits)`` tile bits, zero where nothing
    arrived, the mask of tiles that arrived, and the number of entries whose
    row lies outside ``[0, n_rows)``, which are dropped.  When a row repeats,
    its last entry wins.
    """
    backwards = np.flatnonzero((rows >= 0) & (rows < n_rows))[::-1]
    _, first = np.unique(rows[backwards], return_index=True)
    keep = backwards[first]
    tiles = np.zeros((n_rows, bits.shape[1]), np.uint8)
    seen = np.zeros(n_rows, bool)
    tiles[rows[keep]] = bits[keep]
    seen[rows[keep]] = True
    return tiles, seen, int(rows.size - backwards.size)


def _decode_stream(
    accepted: ParseBatch | Iterable[tuple[int, bytes]],
    manifest: TileManifest,
    parse_stats: dict | None,
    unit: int,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Stream bytes, missing mask of one flag per ``unit`` bits, and stats
    of a vote result or of (index, packed payload) pairs."""
    cfg, n, tile_bits = manifest.cfg, manifest.strand_count, manifest.tile_bits
    if isinstance(accepted, ParseBatch):
        rows = accepted.indices
        bits = jr.block_rows_to_bits(accepted.payload_blocks, cfg.bits_per_block)
    else:
        pairs = list(accepted)
        rows = np.fromiter((i for i, _ in pairs), np.int64, len(pairs))
        packed = np.frombuffer(b"".join(p for _, p in pairs), np.uint8)
        nbytes = manifest.layout.payload_bytes_len(cfg)
        bits = np.unpackbits(packed.reshape(len(pairs), nbytes), axis=1)
    tiles, seen, stray = _scatter_tiles(rows, bits[:, :tile_bits], n)
    stream, missing = _streams_from_tiles(tiles, seen, 1, manifest, unit)
    recovered = int(seen.sum())
    stats = {
        "strands_expected": n,
        "strands_recovered": recovered,
        "tiles_missing": n - recovered,
        "stray_indices": stray,
        **(parse_stats or {}),
    }
    return stream[0], missing[0], stats


def _encode_stream(stream: np.ndarray, manifest: TileManifest) -> StrandSet:
    """Strands of one stream of bytes, tile ``t`` in row ``t``."""
    n, cfg = manifest.strand_count, manifest.cfg
    bits = _zero_pad(_tile_bits(stream[None], manifest), (n, manifest.payload_capacity))
    blocks = jr.bit_rows_to_blocks(bits, cfg.groups_per_payload, cfg.bits_per_block)
    return assemble_many(np.arange(n, dtype=np.int64), blocks, manifest.layout, cfg)


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
    manifest = _image_manifest(img, cfg, layout, tile_pixels)
    return _encode_stream(img.reshape(-1), manifest), manifest


def _image_manifest(img: np.ndarray, cfg: jr.JrConfig, layout: StrandLayout,
                    tile_pixels: int | None) -> TileManifest:
    """The manifest :func:`encode_image` gives ``img``, without encoding it;
    a :class:`ConfigError` unless ``img`` is 2-D uint8 and a tile fits a
    payload."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ConfigError("image must be a 2-D uint8 array")
    h, w = img.shape
    return TileManifest.for_image(w, h, cfg, layout, tile_pixels)


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
    pixels, missing, stats = _decode_stream(accepted, manifest, parse_stats, 8)
    shape = (manifest.height, manifest.width)
    return RecoveredImage(image=pixels.reshape(shape), missing_mask=missing.reshape(shape),
                          stats=stats)


def encode_raw(
    data: bytes,
    cfg: jr.JrConfig = jr.DEFAULT_CONFIG,
    layout: StrandLayout = DEFAULT_LAYOUT,
) -> tuple[StrandSet, TileManifest]:
    """Encode an arbitrary byte stream into capacity-sized payload slices,
    slice ``t`` in row ``t`` of the returned :class:`~pjdna.strand.StrandSet`."""
    manifest = TileManifest.for_raw(8 * len(data), cfg, layout)
    return _encode_stream(np.frombuffer(data, np.uint8), manifest), manifest


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
    data, mask, stats = _decode_stream(accepted, manifest, parse_stats, 1)
    return data.tobytes(), mask, stats
