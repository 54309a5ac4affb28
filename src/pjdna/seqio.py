"""FASTA / FASTQ reading and writing.

FASTA headers follow the grammar ``>pj|<decimal index>`` with an optional
``|free text`` suffix.  The reader accepts FASTA with arbitrary line
wrapping and plain 4-line FASTQ (quality lines ignored), uppercases
sequences, and skips any record containing characters outside ACGT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyLibraryError, FormatError
from .strand import Strand

__all__ = ["ReadFileResult", "write_fasta", "write_fastq", "read_sequences", "sniff_format"]

_DROP_ACGT = str.maketrans("", "", "ACGT")


@dataclass
class ReadFileResult:
    sequences: list[str]
    skipped_alphabet: int = 0

    @property
    def total_records(self) -> int:
        return len(self.sequences) + self.skipped_alphabet


def write_fasta(path, strands: Iterable[Strand]) -> int:
    """Write one record per strand; returns the record count."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for s in strands:
            fh.write(f">pj|{s.index_value}\n{s.sequence}\n")
            n += 1
    return n


def write_fastq(path, reads: Sequence[str], origins: Sequence[int] | None = None) -> int:
    """Write reads with a constant quality line.

    ``origins`` (per-read source strand ids) go into the header as a comment
    for diagnostics only; decoding never reads them.
    """
    with open(path, "w", encoding="ascii") as fh:
        for k, seq in enumerate(reads):
            tag = f" origin={origins[k]}" if origins is not None else ""
            fh.write(f"@pj.read.{k}{tag}\n{seq}\n+\n{'I' * len(seq)}\n")
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
    result = ReadFileResult([])
    current: list[str] | None = None

    def flush():
        if current is None:
            return
        seq = _clean(current)
        if seq is None:
            result.skipped_alphabet += 1
        else:
            result.sequences.append(seq)

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
    return result


def _read_fastq(path) -> ReadFileResult:
    result = ReadFileResult([])
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) % 4:
        raise FormatError(f"{path}: FASTQ record count is not a multiple of 4 lines")
    for k in range(0, len(lines), 4):
        head, seq, plus = lines[k], lines[k + 1], lines[k + 2]
        if not head.startswith("@") or not plus.startswith("+"):
            raise FormatError(f"{path}: malformed FASTQ record near line {k + 1}")
        cleaned = _clean([seq])
        if cleaned is None:
            result.skipped_alphabet += 1
        else:
            result.sequences.append(cleaned)
    return result


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
    if not result.sequences:
        raise EmptyLibraryError(f"{path}: no parseable records")
    return result
