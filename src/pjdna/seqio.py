"""FASTA / FASTQ reading and writing.

FASTA headers follow the grammar ``>pj|<decimal index>`` with an optional
``|free text`` suffix.  The reader accepts FASTA with arbitrary line
wrapping and plain 4-line FASTQ (quality lines ignored), uppercases
sequences, and skips any record containing characters outside ACGT.

Both are read as bytes into one :class:`~pjdna.strand.ReadPool`, in the
format the first non-blank byte names.  A FASTA line ends at ``\n``, ``\r``
or ``\r\n``, edge whitespace ignored; a FASTQ line ends at ``\n`` and one
``\r`` before it is dropped (CRLF), so a lone ``\r`` is content.

Reading holds the file's bytes once, as the buffer the pool points into,
plus a start and an end per line; everything else is a temporary of one
``_SCAN_BYTES`` window.  FASTQ reads point at their lines in the buffer, and
FASTA records are joined in place at its front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyLibraryError, FormatError, RangeError
from .strand import ReadPool, StrandSet

__all__ = ["ReadFileResult", "write_fasta", "write_fastq", "read_sequences"]

# Per byte: bit 0 unless ``str.strip`` removes it (a line without it is
# blank), bit 1 unless it is A, C, G or T in either case.
_BYTE_CLASS = np.array(
    [(c >= 128 or not chr(c).isspace()) | (chr(c & 0xDF) not in "ACGT") << 1 for c in range(256)],
    np.uint8,
)
_FIRST_BYTE_FORMAT = {ord(">"): "fasta", ord("@"): "fastq"}
# Bytes of a file scanned at a time for line ends, line classes and the
# FASTA gather; the window's temporaries are a few bytes per byte.
_SCAN_BYTES = 1 << 20
# Bytes classed per call of ``np.take``, which copies its indices as intp.
_TAKE_CHUNK = 1 << 16
# Records per write: about 80 KiB of FASTQ or 40 KiB of FASTA text at
# 141 nt, so a write never holds the whole file.
_WRITE_CHUNK = 256


@dataclass
class ReadFileResult:
    pool: ReadPool
    skipped_alphabet: int = 0
    format: str | None = None  # "fasta" or "fastq": how the file was read

    @cached_property
    def sequences(self) -> list[str]:
        """The reads as strings, built from the pool on first use."""
        return self.pool.to_strings()

    @property
    def total_records(self) -> int:
        return len(self.pool) + self.skipped_alphabet


def write_fasta(path, strands: StrandSet) -> int:
    """Write one record ``>pj|<index>`` per strand; returns the record count.

    Records are laid out ``_WRITE_CHUNK`` rows at a time in a byte matrix,
    the index right-aligned with its leading zeros masked out, and the kept
    bytes are written with one boolean compress per chunk.
    """
    index_values, rows = strands.index_values, strands.rows
    if index_values.min(initial=0) < 0:
        raise RangeError("FASTA index values must be non-negative")
    digits = len(str(int(index_values.max(initial=0))))
    powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    lead = np.append(powers[:-1], 0)  # a digit shows once the value reaches it
    seq_at = 4 + digits + 1  # after ">pj|", the digits and a newline
    with open(path, "wb") as fh:
        for a in range(0, index_values.size, _WRITE_CHUNK):
            b = a + _WRITE_CHUNK
            idx = index_values[a:b, None]
            out = np.empty((idx.shape[0], seq_at + rows.shape[1] + 1), np.uint8)
            keep = np.ones(out.shape, bool)
            out[:, :4] = np.frombuffer(b">pj|", np.uint8)
            out[:, 4 : seq_at - 1] = idx // powers % 10 + ord("0")
            keep[:, 4 : seq_at - 1] = idx >= lead
            out[:, seq_at - 1] = out[:, -1] = ord("\n")
            out[:, seq_at:-1] = rows[a:b]
            fh.write(out[keep].tobytes())
    return int(index_values.size)


def write_fastq(
    path, reads: ReadPool | Sequence[str], origins: Sequence[int] | None = None
) -> int:
    """Write reads with a constant quality line.

    ``reads`` is a :class:`~pjdna.strand.ReadPool`, turned into strings
    ``_WRITE_CHUNK`` reads at a time, or a sequence of strings.  ``origins``
    (per-read source strand ids, a sequence or an array) go into the header
    as a comment for diagnostics only; decoding never reads them.
    """
    if isinstance(origins, np.ndarray):
        origins = origins.tolist()  # a list indexes to an int far faster
    quality: dict[int, str] = {}  # one quality line per read length
    with open(path, "w", encoding="ascii") as fh:
        for a in range(0, len(reads), _WRITE_CHUNK):
            if isinstance(reads, ReadPool):
                part = reads.rows(slice(a, a + _WRITE_CHUNK)).to_strings()
            else:
                part = reads[a : a + _WRITE_CHUNK]
            ids = range(a, a + len(part))
            lines = ["+"] * (4 * len(part))
            if origins is None:
                lines[0::4] = [f"@pj.read.{k}" for k in ids]
            else:
                lines[0::4] = [f"@pj.read.{k} origin={origins[k]}" for k in ids]
            lines[1::4] = part
            lines[3::4] = [quality.get(n) or quality.setdefault(n, "I" * n) for n in map(len, part)]
            lines.append("")  # the newline after the last line
            fh.write("\n".join(lines))
    return len(reads)


def _format_of(path, buf: np.ndarray) -> str:
    """"fasta" or "fastq" from the first non-blank byte of ``buf``."""
    for k in range(0, buf.size, _TAKE_CHUNK):
        part = buf[k : k + _TAKE_CHUNK]
        solid = part[_BYTE_CLASS[part] & 1 == 1]
        if solid.size:
            if solid[0] not in _FIRST_BYTE_FORMAT:
                raise FormatError(f"{path}: neither FASTA nor FASTQ")
            return _FIRST_BYTE_FORMAT[solid[0]]
    raise EmptyLibraryError(f"{path}: no records")


def _classify(part: np.ndarray, out: np.ndarray) -> None:
    """Write ``_BYTE_CLASS`` of each byte of ``part`` to ``out``."""
    for k in range(0, part.size, _TAKE_CHUNK):
        chunk = part[k : k + _TAKE_CHUNK]
        np.take(_BYTE_CLASS, chunk, out=out[k : k + chunk.size], mode="clip")


def _windows(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray):
    """Each ``_SCAN_BYTES`` window of ``buf`` with the lines that overlap it.

    Yields ``(part, lines, lo, hi)``: the window, the slice of the lines
    (``begins`` and ``ends`` ascending) that overlap it, and their bounds
    clipped to it and counted from its start.
    """
    for a in range(0, buf.size, _SCAN_BYTES):
        part = buf[a : a + _SCAN_BYTES]
        lines = slice(np.searchsorted(ends, a, "right"), np.searchsorted(begins, a + part.size))
        lo = np.maximum(begins[lines] - a, 0)
        hi = np.minimum(ends[lines] - a, part.size)
        yield part, lines, lo, hi


def _or_lines(classes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """OR of ``classes`` over each non-empty span ``[lo, hi)``: reduceat
    reduces from one index to the next, so it takes the bounds interleaved,
    and a spare last entry of ``classes`` keeps the final bound in range."""
    return np.bitwise_or.reduceat(classes, np.column_stack([lo, hi]).ravel())[::2]


def _scan_lines(buf: np.ndarray, fastq: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounds ``[begins, ends)`` of the non-blank lines of ``buf`` and the
    OR of their bytes' ``_BYTE_CLASS``.

    A FASTQ line ends at ``\\n`` and drops one ``\\r`` before it; a FASTA
    line ends at ``\\n`` or ``\\r``.  The file is scanned ``_SCAN_BYTES`` at a
    time, once for the line ends and once for the classes, so only the
    per-line arrays grow with the file.
    """
    found = [np.empty(0, np.int64)]
    for a in range(0, buf.size, _SCAN_BYTES):
        part = buf[a : a + _SCAN_BYTES]
        hit = part == ord("\n")
        if not fastq:
            hit |= part == ord("\r")
        at = np.flatnonzero(hit)
        at += a
        found.append(at)
    if buf.size and not hit[-1]:  # the last line has no line end
        found.append(np.array([buf.size]))
    ends = np.concatenate(found)
    del found
    begins = np.empty_like(ends)
    begins[:1] = 0
    np.add(ends[:-1], 1, out=begins[1:])
    if fastq:
        # in place: a per-line temporary would be as large as ends; an empty
        # line may end before it begins, and is dropped as blank either way
        ends -= 1
        ends += buf[ends] != ord("\r")

    line_class = np.zeros(ends.size, np.uint8)
    classes = np.empty(min(buf.size, _SCAN_BYTES) + 1, np.uint8)
    for part, lines, lo, hi in _windows(buf, begins, ends):
        if lo.size:
            _classify(part, classes)
            # an empty line ORs in one stray class, and is dropped below
            line_class[lines] |= _or_lines(classes[: part.size + 1], lo, hi)
    keep = (ends > begins) & (line_class & 1 == 1)  # not blank
    if keep.all():
        return begins, ends, line_class
    return begins[keep], ends[keep], line_class[keep]


def _strip_edges(buf, begins, ends, line_class, lines: np.ndarray) -> None:
    """``str.strip`` on ``lines``: move their bounds onto their outer non-blank
    bytes and class them again.  Only these lines' bytes are classed, about
    ``_TAKE_CHUNK`` of them at a time."""
    sizes = ends[lines] - begins[lines]
    reach = np.cumsum(sizes)
    k = 0
    while k < lines.size:
        stop = max(k + 1, int(np.searchsorted(reach, reach[k] - sizes[k] + _TAKE_CHUNK, "right")))
        at, n = lines[k:stop], sizes[k:stop]
        offset = np.cumsum(n) - n  # each line's start in the joined bytes
        shift = begins[at] - offset
        classes = np.zeros(int(n.sum()) + 1, np.uint8)
        _classify(buf[np.repeat(shift, n) + np.arange(classes.size - 1)], classes)
        solid = np.flatnonzero(classes & 1)  # every line holds a non-blank byte
        first = solid[np.searchsorted(solid, offset)]
        last = solid[np.searchsorted(solid, offset + n) - 1] + 1
        line_class[at] = _or_lines(classes, first, last)
        begins[at] = shift + first
        ends[at] = shift + last
        k = stop


def _read_fasta(path, buf: np.ndarray) -> ReadFileResult:
    begins, ends, line_class = _scan_lines(buf, fastq=False)
    edge = (_BYTE_CLASS[buf[begins]] & _BYTE_CLASS[buf[ends - 1]] & 1) == 0
    if edge.any():
        _strip_edges(buf, begins, ends, line_class, np.flatnonzero(edge))

    head = buf[begins] == ord(">")
    if head.size and not head[0]:
        raise FormatError(f"{path}: sequence data before the first FASTA header")
    n = int(head.sum())
    record = np.cumsum(head)[~head] - 1  # the record of each sequence line
    begins, ends, line_class = begins[~head], ends[~head], line_class[~head]
    lengths = np.bincount(record, ends - begins, n).astype(np.int64)
    ok = (lengths > 0) & (np.bincount(record, line_class & 2, n) == 0)
    begins, ends = begins[ok[record]], ends[ok[record]]

    # move the kept lines to the front of ``buf``, upper-cased, a window at
    # a time: a running sum of +1 at begins and -1 at ends marks their bytes,
    # and what a window keeps never reaches past the window's start
    size = 0
    mark = np.empty(min(buf.size, _SCAN_BYTES) + 1, np.int8)
    for part, _, lo, hi in _windows(buf, begins, ends):
        if lo.size:
            window = mark[: part.size + 1]
            window[:] = 0
            window[lo] = 1
            window[hi] = -1
            kept = part[np.cumsum(window[:-1], dtype=np.int8).view(bool)]
            kept &= 0xDF
            buf[size : size + kept.size] = kept
            size += kept.size
    lengths = lengths[ok]
    pool = ReadPool(buf[:size], np.cumsum(lengths) - lengths, lengths)
    return ReadFileResult(pool, n - int(ok.sum()), "fasta")


def _read_fastq(path, buf: np.ndarray) -> ReadFileResult:
    begins, ends, line_class = _scan_lines(buf, fastq=True)
    if begins.size % 4:
        raise FormatError(f"{path}: FASTQ record count is not a multiple of 4 lines")
    bad = (buf[begins[0::4]] != ord("@")) | (buf[begins[2::4]] != ord("+"))
    if bad.any():
        k = 4 * int(bad.argmax())
        raise FormatError(f"{path}: malformed FASTQ record near line {k + 1}")

    ok = line_class[1::4] & 2 == 0
    starts = begins[1::4]
    buf &= 0xDF  # upper-cases a-z; the pool keeps only the ACGT lines
    pool = ReadPool(buf, starts[ok], (ends[1::4] - starts)[ok])
    return ReadFileResult(pool, int(ok.size - ok.sum()), "fastq")


def read_sequences(path, fmt: str = "auto") -> ReadFileResult:
    """Read all parseable sequences from a FASTA or FASTQ file.

    ``fmt`` "auto" takes the format from the content, not the file name.
    Raises :class:`EmptyLibraryError` when no record survives; records with
    non-ACGT characters are skipped and counted, not fatal.
    """
    readers = {"fasta": _read_fasta, "fastq": _read_fastq}
    if fmt != "auto" and fmt not in readers:
        raise FormatError(f"unknown sequence format {fmt!r}")
    buf = np.fromfile(path, np.uint8)
    if fmt == "auto":
        fmt = _format_of(path, buf)
    result = readers[fmt](path, buf)
    if not len(result.pool):
        raise EmptyLibraryError(f"{path}: no parseable records")
    return result
