"""FASTA / FASTQ reading and writing.

FASTA headers follow the grammar ``>pj|<decimal index>`` with an optional
``|free text`` suffix.  The reader accepts FASTA with arbitrary line
wrapping and plain 4-line FASTQ (quality lines ignored), uppercases
sequences, and skips any record containing characters outside ACGT.

Both are read as bytes, in the format the first non-blank byte names.  A
FASTA line ends at ``\n``, ``\r`` or ``\r\n``, edge whitespace ignored; a
FASTQ line ends at ``\n`` and one ``\r`` before it is dropped (CRLF), so a
lone ``\r`` is content.

A :class:`ReadStream` reads the file front to back, one ``_SCAN_BYTES``
window into one reused buffer at a time, so a pipe reads like a file.  A
window holds its bytes, a start and an end per line, and temporaries of a
few bytes per byte; it yields its reads as a :class:`~pjdna.strand.ReadPool`
over the buffer.  What a window cannot finish is carried to the front of the
next: the lines from the first of an unfinished FASTQ record, or from the
last FASTA header, and a line without its line end.  FASTQ reads point at
their lines in the buffer, and FASTA records are joined in place at its
front.  :func:`read_sequences` appends each window's distinct reads to one
buffer, so it holds the sequences, not the file.

In a FASTQ window only the search for line ends and the upper-casing read
every byte.  A line's first byte shows that it is not blank, unless that
byte is whitespace, and only lines that start with whitespace are classed
in full.  A sequence line is compared with the one before it, and one equal
to it is the same read: its start is that of the first line of their run,
so in a FASTQ pool a repeated start is a repeated read, and only the first
line of each run is checked for characters outside ACGT.

Both writers go through ``_write_records``, which lays out
``_WRITE_CHUNK`` records at a time in a uint8 matrix, one record a row:
header bytes, decimal fields as wide as the chunk's largest value and read
cells as wide as its longest read, gathered from the pool's buffer without
copying it.  A chunk whose cells are all used (every chunk of strands, or
of a noiseless channel) is written as it is; otherwise one boolean compress
drops the leading zeros and the cells past each read's end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyLibraryError, FormatError, RangeError, ShapeError
from .strand import ReadPool, StrandSet, _run_starts

__all__ = ["ReadFileResult", "ReadStream", "write_fasta", "write_fastq", "read_sequences"]

# Per byte: bit 0 unless ``str.strip`` removes it (a line without it is
# blank), bit 1 unless it is A, C, G or T in either case.
_BYTE_CLASS = np.array(
    [(c >= 128 or not chr(c).isspace()) | (chr(c & 0xDF) not in "ACGT") << 1 for c in range(256)],
    np.uint8,
)
_CLASS_TABLE = _BYTE_CLASS.tobytes()
_FIRST_BYTE_FORMAT = {ord(">"): "fasta", ord("@"): "fastq"}
# Bytes a read window starts at: read into one buffer, scanned for line
# ends and line classes, and gathered; its temporaries are a few bytes per
# byte.  A record carried over that fills more than half the buffer
# doubles it.
_SCAN_BYTES = 1 << 20
# Bytes classed per ``bytes.translate``, which takes a copy of them as bytes.
_CLASS_CHUNK = 1 << 16
# Records per write: about 320 KiB of FASTQ or 150 KiB of FASTA text at
# 141 nt, so a write never holds the whole file, and few enough array
# calls per record (256 records a chunk took half again as long).
_WRITE_CHUNK = 1024


@dataclass
class ReadFileResult:
    pool: ReadPool
    skipped_alphabet: int = 0
    format: str | None = None  # "fasta" or "fastq": how the file was read
    sha256: str | None = None  # hex digest of the bytes read

    @cached_property
    def sequences(self) -> list[str]:
        """The reads as strings, built from the pool on first use."""
        return self.pool.to_strings()

    @property
    def total_records(self) -> int:
        return len(self.pool) + self.skipped_alphabet


def write_fasta(path, strands: StrandSet) -> int:
    """Write one record ``>pj|<index>`` per strand; returns the record count."""
    index_values = strands.index_values
    if index_values.min(initial=0) < 0:
        raise RangeError("FASTA index values must be non-negative")
    _write_records(path, strands.pool, [(b">pj|", index_values)], quality=False)
    return int(index_values.size)


def write_fastq(
    path, reads: ReadPool | Sequence[str], origins: Sequence[int] | None = None
) -> int:
    """Write reads with a constant quality line; returns the record count.

    Record ``k`` is ``@pj.read.<k> origin=<origins[k]>``, the read, ``+``
    and ``I`` once per base, each line ending in ``\n``; without
    ``origins`` (per-read source strand ids, a comment for diagnostics
    that decoding never reads) the header ends at the id.  ``reads`` is a
    :class:`~pjdna.strand.ReadPool`; a sequence of strings is joined into
    one first.
    """
    if not isinstance(reads, ReadPool):
        reads = ReadPool.from_strings(reads)
    n = len(reads)
    fields = [(b"@pj.read.", np.arange(n))]
    if origins is not None:
        origins = np.asarray(origins, np.int64)
        if origins.shape != (n,):
            raise ShapeError(f"{origins.size} origins for {n} reads")
        if origins.min(initial=0) < 0:
            raise RangeError("FASTQ origins must be non-negative")
        fields.append((b" origin=", origins))
    _write_records(path, reads, fields, quality=True)
    return n


def _write_records(path, pool: ReadPool, fields: list, quality: bool) -> None:
    """Write one record per read of ``pool``: a header line of each
    ``(label, values)`` field's label and its non-negative value in
    decimal, the read, and with ``quality`` a ``+`` line and ``I`` once per
    base, each line ending in ``\n``."""
    with open(path, "wb") as fh:
        for a in range(0, len(pool), _WRITE_CHUNK):
            part = pool.rows(slice(a, a + _WRITE_CHUNK))
            decimals = [_Decimal(values[a : a + _WRITE_CHUNK]) for _, values in fields]
            head, at = b"", []  # the header, and where each field starts in it
            for (label, _), f in zip(fields, decimals):
                head += label
                at.append(len(head))
                head += b"0" * f.width
            width = int(part.lengths.max())
            template = head + b"\n" + b"N" * width + b"\n"
            if quality:
                template += b"+\n" + b"I" * width + b"\n"
            out = np.empty((len(part), len(template)), np.uint8)
            out[:] = np.frombuffer(template, np.uint8)
            for f, col in zip(decimals, at):
                out[:, col : col + f.width] = f.digits()
            seq_at = len(head) + 1
            out[:, seq_at : seq_at + width] = _read_rows(part, width)
            if all(f.full for f in decimals) and part.lengths.min() == width:
                fh.write(out.data)
                continue
            keep = np.ones(out.shape, bool)
            for f, col in zip(decimals, at):
                keep[:, col : col + f.width] = f.shown()
            if part.lengths.min() < width:
                keep[:, seq_at : seq_at + width] = np.arange(width) < part.lengths[:, None]
            if quality:
                qual_at = seq_at + width + 3
                keep[:, qual_at : qual_at + width] = keep[:, seq_at : seq_at + width]
            fh.write(out[keep].data)


# The four ASCII digits of 0..9999, zero-padded, one uint32 per number.
_DIGITS4 = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
_DIGITS4 = np.ascontiguousarray(_DIGITS4, np.uint8).view(np.uint32).ravel()


class _Decimal:
    """Non-negative int64 values written in a decimal field as wide as the
    largest."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.width = len(str(int(values.max())))
        # a digit shows once the value reaches its place; the last always
        self.lead = np.append(10 ** np.arange(self.width - 1, 0, -1, dtype=np.int64), 0)
        self.full = int(values.min()) >= self.lead[0]

    def digits(self) -> np.ndarray:
        """The (n, width) ASCII digits, zero-padded on the left, four per
        table lookup."""
        limbs = -(-self.width // 4)
        out = np.empty((self.values.size, limbs), np.uint32)
        rest = self.values
        for j in range(limbs - 1, 0, -1):
            rest, low = np.divmod(rest, 10_000)
            out[:, j] = _DIGITS4[low]
        out[:, 0] = _DIGITS4[rest]
        return out.view(np.uint8)[:, 4 * limbs - self.width :]

    def shown(self) -> np.ndarray:
        """Per value, which cells of the field hold a digit, not a leading zero."""
        return self.values[:, None] >= self.lead


def _read_rows(pool: ReadPool, width: int) -> np.ndarray:
    """The first ``width`` bytes at each read's start, as a (n, width)
    matrix; the bytes past a read's end are any.  Reads that start
    ``width`` bytes apart, as a strand set's rows do, are one view of the
    pool's buffer; otherwise rows are windows of it, gathered byte by byte
    only for the reads near its end, where a window would run past it."""
    n = len(pool)
    if n and (np.diff(pool.starts) == width).all():
        a = int(pool.starts[0])
        if a + n * width <= pool.buf.size:
            return pool.buf[a : a + n * width].reshape(n, width)
    fits = pool.starts <= pool.buf.size - width
    if fits.all():
        return sliding_window_view(pool.buf, width)[pool.starts]
    rows = np.empty((len(pool), width), np.uint8)
    if fits.any():
        rows[fits] = sliding_window_view(pool.buf, width)[pool.starts[fits]]
    late = pool.starts[~fits]
    rows[~fits] = np.take(pool.buf, late[:, None] + np.arange(width), mode="clip")
    return rows


def _format_of(path, part: np.ndarray, fmt: str) -> str | None:
    """``fmt``, or for "auto" the format the first non-blank byte of ``part``
    names; None when ``part`` is blank."""
    for k in range(0, part.size, _CLASS_CHUNK):
        chunk = part[k : k + _CLASS_CHUNK]
        solid = chunk[_BYTE_CLASS[chunk] & 1 == 1]
        if solid.size:
            if fmt != "auto":
                return fmt
            if solid[0] not in _FIRST_BYTE_FORMAT:
                raise FormatError(f"{path}: neither FASTA nor FASTQ")
            return _FIRST_BYTE_FORMAT[solid[0]]
    return None


def _classify(part: np.ndarray, out: np.ndarray) -> None:
    """Write ``_BYTE_CLASS`` of each byte of ``part`` to ``out``, which may
    be ``part`` itself.  (``np.take`` on the table took a third longer: it
    copies its indices as intp.)"""
    for k in range(0, part.size, _CLASS_CHUNK):
        chunk = part[k : k + _CLASS_CHUNK]
        out[k : k + chunk.size] = np.frombuffer(chunk.tobytes().translate(_CLASS_TABLE), np.uint8)


def _or_lines(classes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """OR of ``classes`` over each non-empty span ``[lo, hi)``: reduceat
    reduces from one index to the next, so it takes the bounds interleaved,
    and a spare last entry of ``classes`` keeps the final bound in range."""
    return np.bitwise_or.reduceat(classes, np.column_stack([lo, hi]).ravel())[::2]


def _line_bounds(
    part: np.ndarray, fastq: bool, eof: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """The bounds ``[begins, ends)`` of the complete lines of ``part``, blank
    ones included, and where the unterminated last line starts
    (``part.size`` at the end of the file, where that line is complete).

    A FASTQ line ends at ``\\n`` and drops one ``\\r`` before it, so an
    empty line may end before it begins; a FASTA line ends at ``\\n`` or
    ``\\r``.
    """
    hit = part == ord("\n")
    if not fastq:
        hit |= part == ord("\r")
    ends = np.flatnonzero(hit)
    del hit
    tail = int(ends[-1]) + 1 if ends.size else 0
    if eof and tail < part.size:  # the last line has no line end
        ends = np.append(ends, part.size)
        tail = part.size
    begins = np.empty_like(ends)
    begins[:1] = 0
    np.add(ends[:-1], 1, out=begins[1:])
    if fastq:
        ends -= 1
        ends += part[ends] != ord("\r")
    return begins, ends, tail


def _class_lines(buf, begins, ends, lines: np.ndarray, strip: bool = False) -> np.ndarray:
    """The OR of ``_BYTE_CLASS`` over the bytes of each of the non-empty
    ``lines``.  Only these lines' bytes are classed, about ``_CLASS_CHUNK``
    of them at a time.  With ``strip``, ``str.strip`` them first: move their
    bounds onto their outer non-blank bytes (each must hold one) and OR only
    between them."""
    out = np.empty(lines.size, np.uint8)
    sizes = ends[lines] - begins[lines]
    reach = np.cumsum(sizes)
    k = 0
    while k < lines.size:
        stop = max(k + 1, int(np.searchsorted(reach, reach[k] - sizes[k] + _CLASS_CHUNK, "right")))
        at, n = lines[k:stop], sizes[k:stop]
        offset = np.cumsum(n) - n  # each line's start in the joined bytes
        shift = begins[at] - offset
        classes = np.zeros(int(n.sum()) + 1, np.uint8)
        _classify(buf[np.repeat(shift, n) + np.arange(classes.size - 1)], classes)
        first, last = offset, offset + n
        if strip:
            solid = np.flatnonzero(classes & 1)
            first = solid[np.searchsorted(solid, first)]
            last = solid[np.searchsorted(solid, last) - 1] + 1
            begins[at], ends[at] = shift + first, shift + last
        out[k:stop] = _or_lines(classes, first, last)
        k = stop
    return out


def _span_mask(size: int, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flags of the bytes in the ascending, disjoint spans ``[begins, ends)``
    of ``size`` bytes, repeated from their run lengths: a clear run before
    each span, the span set, and a clear tail.  (A running sum over the
    bytes took 30 times as long.)"""
    runs = np.empty(2 * begins.size + 1, np.int64)
    runs[0:-1:2] = begins
    runs[2:-1:2] -= ends[:-1]
    runs[1::2] = ends - begins
    runs[-1] = size - (ends[-1] if ends.size else 0)
    return np.repeat(np.arange(runs.size) % 2 == 1, runs)


def _fasta_window(path, part: np.ndarray, eof: bool) -> tuple[ReadPool, int, int]:
    """The records of ``part`` that end in it, joined in place at its front
    and upper-cased, as a pool; the count of records skipped; and where the
    unfinished record, carried to the next window, starts.  Every byte is
    classed: every sequence line's bytes decide whether its record is
    skipped."""
    begins, ends, tail = _line_bounds(part, False, eof)
    classes = np.empty(part.size + 1, np.uint8)
    _classify(part, classes)
    # an empty line ORs in one stray class, and is dropped below
    line_class = _or_lines(classes, begins, ends)
    del classes
    keep = (ends > begins) & (line_class & 1 == 1)  # not blank
    begins, ends, line_class = begins[keep], ends[keep], line_class[keep]
    edge = np.flatnonzero((_BYTE_CLASS[part[begins]] & _BYTE_CLASS[part[ends - 1]] & 1) == 0)
    line_class[edge] = _class_lines(part, begins, ends, edge, strip=True)

    head = part[begins] == ord(">")
    # a window after the first starts at the header carried into it
    if head.size and not head[0]:
        raise FormatError(f"{path}: sequence data before the first FASTA header")
    cut = tail
    if not eof and head.any():  # the last header's record may go on in the next window
        last = int(np.flatnonzero(head)[-1])
        cut = int(begins[last])
        begins, ends, line_class, head = begins[:last], ends[:last], line_class[:last], head[:last]
    n = int(head.sum())
    record = np.cumsum(head)[~head] - 1  # the record of each sequence line
    begins, ends, line_class = begins[~head], ends[~head], line_class[~head]
    lengths = np.bincount(record, ends - begins, n).astype(np.int64)
    ok = (lengths > 0) & (np.bincount(record, line_class & 2, n) == 0)
    kept = part[:cut][_span_mask(cut, begins[ok[record]], ends[ok[record]])]
    kept &= 0xDF
    part[: kept.size] = kept
    lengths = lengths[ok]
    return ReadPool(part[: kept.size], np.cumsum(lengths) - lengths, lengths), n - int(ok.sum()), cut


def _equal_runs(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each non-empty line ``buf[starts : starts + lengths]``, the first
    line of its run of equal lines, and whether that first line is all ACGT
    in either case.

    A line is compared with the line before it only where their lengths
    are equal, and only the first line of each run is classed, both over
    the lines gathered as rows as wide as the longest and masked by length,
    with at most about ``buf.size`` cells at a time."""
    n = starts.size
    fresh = np.ones(n, bool)  # the line starts a run
    acgt = np.ones(n, bool)  # set where the line that starts a run is all ACGT
    k = 0
    while k < n:
        lo = max(k - 1, 0)  # the line before the chunk, compared with its first
        cells = np.maximum.accumulate(lengths[lo:]) * np.arange(1, n - lo + 1)
        stop = max(k + 1, lo + int(np.searchsorted(cells, buf.size, "right")))
        length = lengths[lo:stop]
        width = int(length.max())
        rows = _read_rows(ReadPool(buf, starts[lo:stop], length), width)
        kind = np.min_scalar_type(width)
        within = np.arange(width, dtype=kind) < length.astype(kind)[:, None]
        differ = rows[1:] != rows[:-1]
        differ &= within[1:]
        fresh[lo + 1 : stop] = differ.any(axis=1) | (length[1:] != length[:-1])
        heads = np.flatnonzero(fresh[k:stop]) + (k - lo)
        classes = rows[heads]
        del differ, rows
        _classify(classes.ravel(), classes.ravel())
        classes >>= 1  # bit 1 of a class: the byte is outside ACGT
        classes &= within[heads]
        acgt[lo + heads] = ~classes.any(axis=1)
        k = stop
    first = np.maximum.accumulate(np.where(fresh, np.arange(n), 0))
    return first, acgt[first]


def _fastq_window(part: np.ndarray, eof: bool) -> tuple[ReadPool, int, int, np.ndarray]:
    """The reads of the whole records of ``part`` as a pool over it,
    upper-cased; the count of records skipped; where the unfinished record,
    carried to the next window, starts (before ``part.size`` at the end of
    the file only if the line count is not whole); and a flag per whole
    record, set where it is malformed.

    A line's first byte shows that it is not blank, unless that byte is
    whitespace; only such lines are classed in full.  A read equal to the
    read before it starts where that read starts, and only the first read
    of each run of equal reads is classed."""
    begins, ends, tail = _line_bounds(part, True, eof)
    lead = _BYTE_CLASS[part[begins]]
    spaced = np.flatnonzero((ends > begins) & (lead & 1 == 0))
    lead[spaced] = _class_lines(part, begins, ends, spaced)
    keep = (ends > begins) & (lead & 1 == 1)  # not blank
    begins, ends = begins[keep], ends[keep]
    whole = begins.size - begins.size % 4
    cut = int(begins[whole]) if whole < begins.size else tail
    bad = (part[begins[0:whole:4]] != ord("@")) | (part[begins[2:whole:4]] != ord("+"))
    starts = begins[1:whole:4]
    lengths = ends[1:whole:4] - starts
    first, ok = _equal_runs(part, starts, lengths)
    part[:cut] &= 0xDF  # upper-cases a-z; the pool keeps only the ACGT lines
    return ReadPool(part, starts[first][ok], lengths[ok]), int(ok.size - ok.sum()), cut, bad


class ReadStream:
    """The reads of a FASTA or FASTQ file, one :class:`~pjdna.strand.ReadPool`
    per window of about ``_SCAN_BYTES``, for one pass.

    A pool points into the stream's one buffer, so it holds only until the
    next is drawn.  Records that straddle a window are carried into the
    next, and a window reads as many new bytes as the buffer has room for;
    the buffer doubles only when a record fills half of it.  ``path`` may
    be a pipe: the file is read once, front to back.  Once drawn out,
    ``format`` is "fasta" or "fastq" (None for a file with no non-blank
    byte), ``skipped_alphabet`` counts the records skipped for characters
    outside ACGT or, in FASTA, for being empty, and ``sha256`` is the hex
    digest of the bytes read.  ``fmt`` "auto" takes the format from the
    first non-blank byte.  FASTQ errors are raised at the end of the file:
    a line count that is not a multiple of 4 before the first malformed
    record.

    A FASTQ read equal to the read before it shares its start, which
    :func:`pjdna.channel.vote` and :func:`read_sequences` use to handle it
    once.  ``simulate`` writes the copies of a read next to each other, so
    runs are the common case: 90 % of the reads of a noiseless channel at
    coverage 10 repeat the read before them.  A shuffled file has no runs:
    it pays one row comparison per read and still skips classing its
    headers and quality lines.
    """

    def __init__(self, path, fmt: str = "auto") -> None:
        if fmt not in ("auto", "fasta", "fastq"):
            raise FormatError(f"unknown sequence format {fmt!r}")
        self.path, self._fmt = path, fmt
        self.format: str | None = None
        self.skipped_alphabet = 0
        self.sha256: str | None = None

    def __iter__(self) -> Iterator[ReadPool]:
        path, digest = self.path, hashlib.sha256()
        buf = np.empty(_SCAN_BYTES, np.uint8)
        carry, eof, lines, malformed = 0, False, 0, None
        with open(path, "rb", buffering=0) as fh:
            while not eof:
                if 2 * carry > buf.size:
                    buf = np.concatenate([buf[:carry], np.empty(buf.size, np.uint8)])
                size = carry
                while size < buf.size:
                    got = fh.readinto(buf[size:].data)
                    if not got:
                        eof = True
                        break
                    digest.update(buf[size : size + got].data)
                    size += got
                part = buf[:size]
                if self.format is None:
                    self.format = _format_of(path, part, self._fmt)
                if self.format is None:  # blank so far: carry its last line
                    newlines = np.flatnonzero(part == ord("\n"))
                    cut = int(newlines[-1]) + 1 if newlines.size else 0
                else:
                    if self.format == "fasta":
                        pool, skipped, cut = _fasta_window(path, part, eof)
                    else:
                        pool, skipped, cut, bad = _fastq_window(part, eof)
                        if eof and cut < size:
                            raise FormatError(
                                f"{path}: FASTQ record count is not a multiple of 4 lines")
                        if malformed is None and bad.any():
                            malformed = lines + 4 * int(bad.argmax())
                        lines += 4 * bad.size
                    self.skipped_alphabet += skipped
                    yield pool
                carry = size - cut
                buf[:carry] = buf[cut:size]
        self.sha256 = digest.hexdigest()
        if malformed is not None:
            raise FormatError(f"{path}: malformed FASTQ record near line {malformed + 1}")


def read_sequences(path, fmt: str = "auto") -> ReadFileResult:
    """Read all parseable sequences from a FASTA or FASTQ file.

    The reads of each window of a :class:`ReadStream` are appended to one
    buffer, so only the sequences are held, and a read at a repeated start
    once: the reads of a run of equal reads share one start there too.
    ``fmt`` "auto" takes the format from the content, not the file name.
    Raises :class:`EmptyLibraryError` when no record survives; records with
    non-ACGT characters are skipped and counted, not fatal.
    """
    stream = ReadStream(path, fmt)
    joined, lengths, fresh = bytearray(), [np.empty(0, np.int64)], [np.empty(0, bool)]
    for pool in stream:
        new = np.diff(pool.starts, prepend=-1) != 0  # a repeated start is a repeated read
        starts, ends = pool.starts[new], (pool.starts + pool.lengths)[new]
        end = int(ends.max(initial=0))
        joined += pool.buf[:end][_span_mask(end, starts, ends)].data
        lengths.append(pool.lengths)
        fresh.append(new)
    lengths, fresh = np.concatenate(lengths), np.concatenate(fresh)
    if not lengths.size:
        blank = fmt == "auto" and stream.format is None
        raise EmptyLibraryError(f"{path}: no records" if blank else f"{path}: no parseable records")
    pool = ReadPool(np.frombuffer(joined, np.uint8), _run_starts(lengths, fresh), lengths)
    return ReadFileResult(pool, stream.skipped_alphabet, stream.format, stream.sha256)
