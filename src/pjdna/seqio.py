"""FASTA / FASTQ reading and writing.

FASTA headers follow the grammar ``>pj|<decimal index>`` with an optional
``|free text`` suffix.  The reader accepts FASTA with arbitrary line
wrapping and plain 4-line FASTQ (quality lines ignored), uppercases
sequences, and skips any record containing characters outside ACGT.

FASTQ is read as bytes: a line ends at ``\n`` and one ``\r`` before it is
dropped (CRLF), so a lone ``\r`` is content.  Either reader returns its
reads as one :class:`~pjdna.strand.ReadPool`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyLibraryError, FormatError
from .strand import ReadPool, Strand

__all__ = ["ReadFileResult", "write_fasta", "write_fastq", "read_sequences", "sniff_format"]

_DROP_ACGT = str.maketrans("", "", "ACGT")

# Per byte: bit 0 unless ``str.strip`` removes it (a line without it is
# blank), bit 1 unless it is A, C, G or T in either case.
_BYTE_CLASS = np.array(
    [(c >= 128 or not chr(c).isspace()) | (chr(c & 0xDF) not in "ACGT") << 1 for c in range(256)],
    np.uint8,
)
# Bytes classed per call of ``np.take``, which copies its indices as intp.
_TAKE_CHUNK = 1 << 16
# Records joined per write: about 80 KiB of FASTQ text at 141 nt, so a
# write never holds the whole file.
_WRITE_CHUNK = 256


@dataclass
class ReadFileResult:
    pool: ReadPool
    skipped_alphabet: int = 0

    @cached_property
    def sequences(self) -> list[str]:
        """The reads as strings, built from the pool on first use."""
        return self.pool.to_strings()

    @property
    def total_records(self) -> int:
        return len(self.pool) + self.skipped_alphabet


def write_fasta(path, strands: Iterable[Strand]) -> int:
    """Write one record per strand; returns the record count."""
    strands = iter(strands)
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        while chunk := list(islice(strands, _WRITE_CHUNK)):
            fh.write("".join([f">pj|{s.index_value}\n{s.sequence}\n" for s in chunk]))
            n += len(chunk)
    return n


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


def sniff_format(path) -> str:
    """Return "fasta" or "fastq" from the first non-blank byte."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if not line.strip():
                continue
            if line.startswith(">"):
                return "fasta"
            if line.startswith("@"):
                return "fastq"
            raise FormatError(f"{path}: neither FASTA nor FASTQ")
    raise EmptyLibraryError(f"{path}: no records")


def _clean(record_lines: list[str]) -> str | None:
    seq = "".join(record_lines).upper()
    if not seq or seq.translate(_DROP_ACGT):  # anything left is outside ACGT
        return None
    return seq


def _read_fasta(path) -> ReadFileResult:
    sequences: list[str] = []
    skipped = 0
    current: list[str] | None = None

    def flush():
        nonlocal skipped
        if current is None:
            return
        seq = _clean(current)
        if seq is None:
            skipped += 1
        else:
            sequences.append(seq)

    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                flush()
                current = []
            elif current is not None:
                current.append(line)
            else:
                raise FormatError(f"{path}: sequence data before the first FASTA header")
    flush()
    return ReadFileResult(ReadPool.from_strings(sequences), skipped)


def _read_fastq(path) -> ReadFileResult:
    buf = np.fromfile(path, np.uint8)
    if not buf.size:
        return ReadFileResult(ReadPool.from_strings([]))
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    begins = np.append(0, ends[:-1] + 1)
    ends -= (ends > begins) & (buf[ends - 1] == ord("\r"))

    # OR of the byte classes over each line: reduceat reduces from one index
    # to the next, so it takes the line bounds interleaved, and a spare last
    # byte keeps the final bound in range
    classes = np.zeros(buf.size + 1, np.uint8)
    for k in range(0, buf.size, _TAKE_CHUNK):
        part = buf[k : k + _TAKE_CHUNK]
        np.take(_BYTE_CLASS, part, out=classes[k : k + part.size], mode="clip")
    line_class = np.bitwise_or.reduceat(classes, np.column_stack([begins, ends]).ravel())[::2]
    del classes
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
    return ReadFileResult(pool, int(ok.size - ok.sum()))


def read_sequences(path, fmt: str = "auto") -> ReadFileResult:
    """Read all parseable sequences from a FASTA or FASTQ file.

    Raises :class:`EmptyLibraryError` when no record survives; records with
    non-ACGT characters are skipped and counted, not fatal.
    """
    if fmt == "auto":
        fmt = sniff_format(path)
    if fmt == "fasta":
        result = _read_fasta(path)
    elif fmt == "fastq":
        result = _read_fastq(path)
    else:
        raise FormatError(f"unknown sequence format {fmt!r}")
    if not len(result.pool):
        raise EmptyLibraryError(f"{path}: no parseable records")
    return result
