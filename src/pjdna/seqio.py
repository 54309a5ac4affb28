"""FASTA / FASTQ reading and writing.

FASTA headers follow the grammar ``>pj|<decimal index>`` with an optional
``|free text`` suffix.  The reader accepts FASTA with arbitrary line
wrapping and plain 4-line FASTQ (quality lines ignored), uppercases
sequences, and skips any record containing characters outside ACGT.

Both are read as bytes into one :class:`~pjdna.strand.ReadPool`, in the
format the first non-blank byte names.  A FASTA line ends at ``\n``, ``\r``
or ``\r\n``, edge whitespace ignored; a FASTQ line ends at ``\n`` and one
``\r`` before it is dropped (CRLF), so a lone ``\r`` is content.
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


def _classes(buf: np.ndarray) -> np.ndarray:
    """``_BYTE_CLASS`` of each byte, and a spare last byte for ``_or_lines``."""
    classes = np.zeros(buf.size + 1, np.uint8)
    for k in range(0, buf.size, _TAKE_CHUNK):
        part = buf[k : k + _TAKE_CHUNK]
        np.take(_BYTE_CLASS, part, out=classes[k : k + part.size], mode="clip")
    return classes


def _or_lines(classes: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """OR of the byte classes over each non-empty line ``[begin, end)``:
    reduceat reduces from one index to the next, so it takes the line bounds
    interleaved, and the spare last byte keeps the final bound in range."""
    return np.bitwise_or.reduceat(classes, np.column_stack([begins, ends]).ravel())[::2]


def _read_fasta(path, buf: np.ndarray) -> ReadFileResult:
    # a line ends at \n, \r or \r\n (which leaves a blank line between)
    ends = np.append(np.flatnonzero((buf == ord("\n")) | (buf == ord("\r"))), buf.size)
    begins = np.append(0, ends[:-1] + 1)
    classes = _classes(buf)
    line_class = _or_lines(classes, begins, ends)
    keep = (ends > begins) & (line_class & 1 == 1)  # not blank
    begins, ends, line_class = begins[keep], ends[keep], line_class[keep]
    # str.strip: move the blank edges of a line onto its outer non-blank bytes
    edge = classes[begins] & classes[ends - 1] & 1 == 0
    if edge.any():
        # over the blank bytes only, few where non-blank ones fill the file:
        # a blank edge reaches to the end of its run of blank bytes
        blank = np.flatnonzero(classes[:-1] & 1 == 0)
        starts = np.diff(blank, prepend=-2) != 1
        run = np.cumsum(starts) - 1  # the run of each blank byte
        run_first = blank[starts]
        run_last = blank[np.append(starts[1:], True)]
        at = edge & (classes[begins] & 1 == 0)
        begins[at] = run_last[run[np.searchsorted(blank, begins[at])]] + 1
        at = edge & (classes[ends - 1] & 1 == 0)
        ends[at] = run_first[run[np.searchsorted(blank, ends[at] - 1)]]
        line_class[edge] = _or_lines(classes, begins[edge], ends[edge])
    del classes

    head = buf[begins] == ord(">")
    if head.size and not head[0]:
        raise FormatError(f"{path}: sequence data before the first FASTA header")
    n = int(head.sum())
    record = np.cumsum(head)[~head] - 1  # the record of each sequence line
    begins, ends, line_class = begins[~head], ends[~head], line_class[~head]
    lengths = np.bincount(record, ends - begins, n).astype(np.int64)
    ok = (lengths > 0) & (np.bincount(record, line_class & 2, n) == 0)

    # gather the kept records' lines: a running sum of +1 at begins, -1 at ends
    mark = np.zeros(buf.size + 1, np.int8)
    mark[begins[ok[record]]] = 1
    mark[ends[ok[record]]] = -1
    seq = buf[np.cumsum(mark[:-1], dtype=np.int8).view(bool)] & 0xDF  # upper-cased ACGT
    lengths = lengths[ok]
    pool = ReadPool(seq, np.cumsum(lengths) - lengths, lengths)
    return ReadFileResult(pool, n - int(ok.sum()), "fasta")


def _read_fastq(path, buf: np.ndarray) -> ReadFileResult:
    if not buf.size:
        return ReadFileResult(ReadPool.from_strings([]), 0, "fastq")
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    begins = np.append(0, ends[:-1] + 1)
    ends -= (ends > begins) & (buf[ends - 1] == ord("\r"))
    line_class = _or_lines(_classes(buf), begins, ends)
    keep = (ends > begins) & (line_class & 1 == 1)  # not blank
    begins, ends, line_class = begins[keep], ends[keep], line_class[keep]
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
    buf = np.fromfile(path, np.uint8)
    if fmt == "auto":
        fmt = _format_of(path, buf)
    if fmt == "fasta":
        result = _read_fasta(path, buf)
    elif fmt == "fastq":
        result = _read_fastq(path, buf)
    else:
        raise FormatError(f"unknown sequence format {fmt!r}")
    if not len(result.pool):
        raise EmptyLibraryError(f"{path}: no parseable records")
    return result
