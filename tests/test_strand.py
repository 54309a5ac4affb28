"""Strand assembly/parsing and sequence file I/O."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pjdna import jr, seqio, strand as strand_module
from pjdna.channel import vote
from pjdna.errors import (
    CapacityError,
    ConfigError,
    EmptyLibraryError,
    FormatError,
    LayoutError,
    RangeError,
    ShapeError,
    StrandReject,
)
from pjdna.seqio import ReadStream, read_sequences, write_fasta, write_fastq
from pjdna.strand import (
    DEFAULT_LAYOUT,
    DEFAULT_PRIMER3,
    DEFAULT_PRIMER5,
    ReadPool,
    StrandLayout,
    StrandSet,
    assemble_many,
    assemble_strand,
    parse_many,
    parse_strand,
)

CFG = jr.JrConfig()
CAP = DEFAULT_LAYOUT.index_capacity(CFG)
GROUPS = DEFAULT_LAYOUT.payload_groups(CFG)


def random_payload(rng, cfg=CFG, layout=DEFAULT_LAYOUT):
    nbits = layout.payload_bits(cfg)
    bits = rng.integers(0, 2, nbits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_default_layout_dimensions():
    assert len(DEFAULT_PRIMER5) == 20
    assert len(DEFAULT_PRIMER3) == 21
    assert DEFAULT_LAYOUT.data_nt == 100
    assert DEFAULT_LAYOUT.total_nt == 141
    assert DEFAULT_LAYOUT.index_capacity(CFG) == 2 ** 18
    assert DEFAULT_LAYOUT.payload_bits(CFG) == 162
    DEFAULT_LAYOUT.validate(CFG)


def test_default_primers_are_repeat_free_and_non_self_complementary():
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    for p in (DEFAULT_PRIMER5, DEFAULT_PRIMER3):
        assert jr.max_homopolymer_run(p) == 1
    kmers = set()
    for p in (DEFAULT_PRIMER5, DEFAULT_PRIMER3):
        kmers |= {p[i : i + 8] for i in range(len(p) - 7)}
    for k in kmers:
        rc = "".join(comp[c] for c in reversed(k))
        assert rc not in kmers


def test_layout_validation_errors():
    with pytest.raises(ConfigError):
        StrandLayout(index_nt=7).validate(CFG)  # not a multiple of 5
    with pytest.raises(ConfigError):
        StrandLayout(payload_nt=87).validate(CFG)  # not a multiple of 5
    # any whole number of groups makes a payload
    layout = StrandLayout(payload_nt=85)
    layout.validate(CFG)
    assert layout.payload_groups(CFG) == 17
    with pytest.raises(LayoutError):
        StrandLayout(primer5="ACGTNACGTA" * 2).validate(CFG)
    with pytest.raises(LayoutError):
        # internal run of 4 exceeds the bound of 3
        StrandLayout(primer5="ACGTAAAACGTACGTACGTA").validate(CFG)
    # trailing GG + a leading direct position reaches exactly the bound of 3
    StrandLayout(primer5="ACGTACGTACGTACGTACGG").validate(CFG)
    with pytest.raises(LayoutError):
        # trailing GGG + a leading direct position can run to 4
        StrandLayout(primer5="ACGTACGTACGTACGTAGGG").validate(CFG)
    with pytest.raises(LayoutError):
        # head run of 3 meeting a data tail can run to 4
        StrandLayout(primer3="GGGACGTACGTACGTACGTAC").validate(CFG)


def test_layout_presets_all_validate():
    for jump in (0, 1, 2):
        DEFAULT_LAYOUT.validate(jr.JrConfig.for_jump(jump))


# ---------------------------------------------------------------------------
# assemble / parse
# ---------------------------------------------------------------------------

def test_assemble_structure(rng):
    payload = random_payload(rng)
    s = assemble_strand(42, payload)
    assert len(s.sequence) == 141
    assert s.sequence.startswith(DEFAULT_PRIMER5)
    assert s.sequence.endswith(DEFAULT_PRIMER3)
    assert s.index_value == 42
    assert s.payload == payload


def test_assemble_zero_payload_pattern():
    payload = bytes(21)
    s = assemble_strand(0, payload)
    data = s.sequence[20:120]
    # all-zero blocks encode as repeated "?C??C" groups whose rotating
    # positions chain off the previous emitted nucleotide
    prev0 = np.array([jr.ALPHABET.index(DEFAULT_PRIMER5[-1])], np.uint8)
    codes = jr.encode_block_rows(np.zeros((1, 20), np.int64), CFG, prev0)
    assert data == codes.tobytes().translate(jr._CODE_TRANSLATE).decode("ascii")
    assert data == "ACAAC" * 20


def test_assemble_capacity_error(rng):
    payload = random_payload(rng)
    with pytest.raises(CapacityError):
        assemble_strand(2 ** 18, payload)
    assemble_strand(2 ** 18 - 1, payload)


def test_assemble_payload_validation(rng):
    with pytest.raises(RangeError):
        assemble_strand(0, bytes(20))  # wrong byte length
    bad = bytearray(21)
    bad[-1] = 0x3F  # the 6 spare bits must stay zero
    with pytest.raises(RangeError):
        assemble_strand(0, bytes(bad))


def test_strand_set_items_are_the_strands(rng):
    indices = np.array([5, 0, 77, 3], np.int64)
    blocks = rng.integers(0, CFG.block_limit, (4, GROUPS), dtype=np.int64)
    payloads = [row.tobytes() for row in jr.pack_block_rows(blocks, CFG.bits_per_block)]
    strands = [assemble_strand(int(i), p) for i, p in zip(indices, payloads)]
    batch = assemble_many(indices, blocks)
    assert isinstance(batch, StrandSet) and len(batch) == 4
    assert batch.rows.dtype == np.uint8 and batch.rows.shape == (4, DEFAULT_LAYOUT.total_nt)
    assert [batch[k] for k in range(4)] == list(batch) == strands
    assert batch[np.int64(-1)] == strands[-1]
    with pytest.raises(IndexError):
        batch[4]
    part = batch[np.array([True, False, True, True])]
    assert isinstance(part, StrandSet) and list(part) == [strands[0], strands[2], strands[3]]
    assert list(batch[1:3]) == strands[1:3]
    pool = batch.pool
    assert np.shares_memory(pool.buf, batch.rows)
    assert pool.to_strings() == [s.sequence for s in strands]
    empty = assemble_many(np.empty(0, np.int64), blocks[:0])
    assert len(empty) == 0 and list(empty) == [] and len(empty.pool) == 0


def test_ascii_codes_match_the_table_on_every_byte():
    table = np.full(256, 255, np.uint8)
    table[list(b"ACGT")] = [0, 1, 2, 3]
    every = np.arange(256, dtype=np.uint8)
    assert np.array_equal(jr.ascii_codes(every), table)
    assert np.array_equal(jr.ascii_codes(every.reshape(16, 16)), table.reshape(16, 16))
    assert np.array_equal(every, np.arange(256))  # the input is left alone
    codes = jr.ascii_codes(np.frombuffer(b"ACGTTGCA", np.uint8))
    assert codes.dtype == np.uint8 and codes.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]


def test_parse_round_trip_fuzz(rng):
    for _ in range(300):
        idx = int(rng.integers(0, 2 ** 18))
        payload = random_payload(rng)
        s = assemble_strand(idx, payload)
        assert parse_strand(s.sequence) == (idx, payload)


def test_parse_round_trip_bulk(rng):
    """10^4 random (index, payload) pairs survive assembly and parsing."""
    from pjdna.strand import assemble_many

    n = 10_000
    indices = rng.integers(0, 2 ** 18, n)
    payload_blocks = rng.integers(0, 512, (n, 18), dtype=np.int64)
    strands = assemble_many(indices, payload_blocks)
    batch = parse_many([s.sequence for s in strands])
    assert batch.counts["accepted"] == n
    assert np.array_equal(batch.indices, indices)
    assert np.array_equal(batch.payload_blocks, payload_blocks)


def test_parse_round_trip_all_jumps(rng):
    for jump in (0, 1, 2):
        cfg = jr.JrConfig.for_jump(jump)
        cap = DEFAULT_LAYOUT.index_capacity(cfg)
        for _ in range(50):
            idx = int(rng.integers(0, cap))
            payload = random_payload(rng, cfg)
            s = assemble_strand(idx, payload, DEFAULT_LAYOUT, cfg)
            assert len(s.sequence) == 141
            assert parse_strand(s.sequence, DEFAULT_LAYOUT, cfg) == (idx, payload)


def test_parse_rejects_length(rng):
    s = assemble_strand(5, random_payload(rng))
    with pytest.raises(StrandReject) as exc:
        parse_strand(s.sequence[:60] + s.sequence[61:])  # one deletion
    assert exc.value.reason == "length"


def test_parse_rejects_primer(rng):
    s = assemble_strand(5, random_payload(rng))
    seq = "A" + s.sequence[1:] if s.sequence[0] != "A" else "C" + s.sequence[1:]
    with pytest.raises(StrandReject) as exc:
        parse_strand(seq)
    assert exc.value.reason == "primer"
    # a tolerance of one mismatch accepts the same read
    assert parse_strand(seq, primer_tolerance=1) == (5, s.payload)


def test_parse_rejects_corrupt_substitution(rng):
    # brute-force search: some single substitution inside the data region
    # must trip the rotating check
    s = assemble_strand(6, random_payload(rng))
    hit = None
    for pos in range(20, 120):
        for alt in jr.ALPHABET:
            if alt == s.sequence[pos]:
                continue
            mutant = s.sequence[:pos] + alt + s.sequence[pos + 1 :]
            try:
                parse_strand(mutant)
            except StrandReject as exc:
                if exc.reason == "corrupt":
                    hit = mutant
                    break
        if hit:
            break
    assert hit is not None


def test_full_strand_homopolymer_bound_default_layout(rng):
    bound = CFG.jump_length + 1
    for _ in range(200):
        s = assemble_strand(int(rng.integers(0, 2 ** 18)), random_payload(rng))
        assert jr.max_homopolymer_run(s.sequence) <= bound


def test_parse_many_reject_accounting(rng):
    strands = [assemble_strand(i, random_payload(rng)) for i in range(20)]
    seqs = [s.sequence for s in strands]
    seqs[3] = seqs[3][:-1]  # length
    seqs[7] = "T" + seqs[7][1:] if seqs[7][0] != "T" else "A" + seqs[7][1:]  # primer
    # rotating violation at the first payload rotating position
    s = seqs[11]
    seqs[11] = s[:21] + s[20] + s[22:]
    batch = parse_many(seqs)
    c = batch.counts
    assert c["reads_total"] == 20
    assert c["reject_length"] == 1
    assert c["reject_primer"] == 1
    assert c["reject_corrupt"] >= 1
    assert c["accepted"] + c["reject_length"] + c["reject_primer"] + c["reject_corrupt"] == 20


def test_parse_many_parses_each_run_of_equal_reads_once_and_repeats_it(rng, monkeypatch):
    """A run of equal reads, accepted or rejected, is parsed as one read and
    counted as many: the rows and counters are each read's own parse, in
    input order, whole or with runs split across parse chunks of 3."""
    strands = [assemble_strand(i, random_payload(rng)) for i in range(6)]
    seqs = [s.sequence for s in strands]
    seqs[1] = seqs[1][:-1]  # length
    seqs[2] = ("T" if seqs[2][0] != "T" else "A") + seqs[2][1:]  # primer
    seqs[3] = seqs[3][:21] + seqs[3][20] + seqs[3][22:]  # rotating violation
    reads = [seqs[k] for k in (0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 0, 0, 5, 5, 5, 5)]
    expect = []
    for read in reads:
        try:
            expect.append(parse_strand(read))
        except StrandReject:
            pass
    for chunk in (8192, 3):
        monkeypatch.setattr(strand_module, "_PARSE_CHUNK", chunk)
        batch = parse_many(reads)
        assert list(zip(batch.indices.tolist(), batch.payload_bytes(CFG))) == expect
        assert batch.counts == {"reads_total": 17, "accepted": 10, "reject_length": 2,
                                "reject_primer": 3, "reject_corrupt": 2}


def test_from_strings_gives_adjacent_equal_strings_one_start():
    """A string equal to the one before it shares its start, so the buffer
    holds each run of equal strings once; an equal string after another
    starts a run of its own."""
    seqs = ["ACGT", "ACGT", "ACGT", "GG", "ACGT", "ACGT", "", "", "TTA"]
    pool = ReadPool.from_strings(seqs)
    assert pool.buf.tobytes() == b"ACGTGGACGTTTA"
    assert pool.starts.tolist() == [0, 0, 0, 4, 6, 6, 10, 10, 10]
    assert pool.lengths.tolist() == [4, 4, 4, 2, 4, 4, 0, 0, 3]
    assert pool.to_strings() == seqs
    assert len(ReadPool.from_strings([])) == 0


@pytest.mark.parametrize("tolerance", [0, 2])
def test_parse_handles_reads_sharing_a_start_as_their_copies(rng, monkeypatch, tolerance):
    """Reads that share a start, taken from one pool or joined from equal
    adjacent strings, give the same accepted rows and weights; they parse
    and vote as the same reads each held in bytes of its own, with the same
    counters, with runs of equal reads straddling parse chunks of 7 and the
    same read coming back after others."""
    monkeypatch.setattr(strand_module, "_PARSE_CHUNK", 7)
    seqs = [assemble_strand(k % 3, random_payload(rng)).sequence for k in range(7)]
    seqs[1] = seqs[1][:-1]  # length
    seqs[2] = ("T" if seqs[2][0] != "T" else "A") + seqs[2][1:]  # one primer mismatch
    seqs[3] = seqs[3][:21] + seqs[3][20] + seqs[3][22:]  # rotating violation
    runs = rng.integers(1, 10, 16)
    which = np.repeat(rng.integers(0, len(seqs), runs.size), runs)
    shared = ReadPool.from_strings(seqs).rows(which)
    copies = ReadPool.from_strings([seqs[k] for k in which])
    lengths = copies.lengths
    own = ReadPool(np.frombuffer("".join(seqs[k] for k in which).encode(), np.uint8),
                   np.cumsum(lengths) - lengths, lengths)
    assert np.unique(shared.starts).size < len(shared)
    args = (DEFAULT_LAYOUT, CFG, tolerance, np.int64)
    got = strand_module._parse_reads([shared], *args)
    want = strand_module._parse_reads([copies], *args)
    for part, expect in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(np.concatenate(part), np.concatenate(expect))
    assert got[3] == want[3]
    assert (got[3]["reject_primer"] > 0) == (tolerance == 0)
    for run in (parse_many, vote):
        a = run(shared, primer_tolerance=tolerance)
        for pool in (copies, own):
            b = run(pool, primer_tolerance=tolerance)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.payload_blocks, b.payload_blocks)
            assert a.counts == b.counts


def test_parse_rejects_an_index_past_63_bits():
    """An index region of 8 blocks of 9 bits holds 72 bits, more than an
    int64 index holds.  A read that sets any bit above the 63rd is corrupt:
    index blocks [256, 0, ..., 5] used to parse as index 5, a real tile,
    and [1, 0, ..., 5] as a negative index.  Indices of up to 63 bits still
    parse, up to 2**63 - 1."""
    cfg = jr.JrConfig.for_jump(2)
    layout = StrandLayout(index_nt=40)
    assert layout.index_groups(cfg) * cfg.bits_per_block == 72
    index_blocks = np.array([[256, 0, 0, 0, 0, 0, 0, 5],
                             [1, 0, 0, 0, 0, 0, 0, 5],
                             [0, 1, 0, 0, 0, 0, 0, 5],
                             [0, 511, 511, 511, 511, 511, 511, 511]])
    n = len(index_blocks)
    blocks = np.concatenate([index_blocks, np.zeros((n, layout.payload_groups(cfg)), int)], axis=1)
    prev0 = np.full(n, jr.ALPHABET.index(layout.prev_init()), np.uint8)
    data = jr.encode_block_rows(blocks, cfg, prev0).tobytes().translate(jr._CODE_TRANSLATE)
    seqs = [layout.primer5 + row.decode("ascii") + layout.primer3
            for row in (data[k * layout.data_nt : (k + 1) * layout.data_nt] for k in range(n))]
    batch = parse_many(seqs, layout, cfg)
    assert batch.counts["reject_corrupt"] == 2
    assert batch.indices.tolist() == [512**6 + 5, 2**63 - 1]


# ---------------------------------------------------------------------------
# sequence file I/O
# ---------------------------------------------------------------------------

def random_batch(rng, n):
    blocks = rng.integers(0, CFG.block_limit, (n, GROUPS), dtype=np.int64)
    return assemble_many(np.arange(n, dtype=np.int64), blocks)


def test_fasta_round_trip(tmp_path, rng):
    strands = random_batch(rng, 100)
    path = tmp_path / "lib.fasta"
    assert write_fasta(path, strands) == 100
    first = path.read_text().splitlines()[0]
    assert first == ">pj|0"
    result = read_sequences(path)
    assert result.sequences == strands.pool.to_strings()
    assert result.skipped_alphabet == 0


def test_fasta_line_wrapping_and_case(tmp_path):
    path = tmp_path / "w.fasta"
    path.write_text(">pj|0|free text here\nacg\nTAc\ngt\n")
    result = read_sequences(path)
    assert result.sequences == ["ACGTACGT"]


def test_fastq_skips_bad_alphabet(tmp_path):
    path = tmp_path / "r.fastq"
    path.write_text("@r0\nACGT\n+\nIIII\n@r1\nACNT\n+\nIIII\n")
    result = read_sequences(path)
    assert result.sequences == ["ACGT"]
    assert result.skipped_alphabet == 1
    assert result.total_records == 2


def _fastq_bytes(seqs: list[bytes], eol: bytes = b"\n") -> bytes:
    return b"".join(
        b"@r%d%s%s%s+%s%s%s" % (k, eol, s, eol, eol, b"I" * len(s), eol) for k, s in enumerate(seqs)
    )


def test_fastq_lone_carriage_return_is_content(tmp_path):
    seqs = [b"ACGT", b"GGCA", b"AC\rGT", b"TTAG", b"CCAT", b"GATC", b"ACCA", b"TGCA", b"AAGT"]
    path = tmp_path / "cr.fastq"
    path.write_bytes(_fastq_bytes(seqs))
    result = read_sequences(path)
    assert result.sequences == [s.decode() for s in seqs if b"\r" not in s]
    assert result.skipped_alphabet == 1
    assert result.total_records == 9


def test_fastq_crlf_reads_like_lf(tmp_path):
    seqs = [b"ACGT", b"ggca", b"ACNT", b"T" * 141, b"acgtAC"]
    lf, crlf = tmp_path / "lf.fastq", tmp_path / "crlf.fastq"
    lf.write_bytes(_fastq_bytes(seqs))
    crlf.write_bytes(_fastq_bytes(seqs, b"\r\n"))
    a, b = read_sequences(lf), read_sequences(crlf)
    assert a.sequences == b.sequences == ["ACGT", "GGCA", "T" * 141, "ACGTAC"]
    assert a.skipped_alphabet == b.skipped_alphabet == 1
    for x, y in ((a.pool, b.pool), (a.pool, ReadPool.from_strings(a.sequences))):
        assert x.to_strings() == y.to_strings()


def test_fastq_repeats_share_the_start_of_their_runs_first_copy(tmp_path):
    """A FASTQ window yields one start per run of equal reads: every repeat
    points at the sequence line of its run's first copy, and read_sequences
    holds that line once.  A read equal to an earlier run's, or equal but
    for case or length, starts a run of its own."""
    seqs = [b"ACGT"] * 3 + [b"ACGA"] * 2 + [b"ACG", b"ACGT", b"ACGT", b"acgt", b"ACGT", b"ACGT"]
    data = _fastq_bytes(seqs)
    path = tmp_path / "runs.fastq"
    path.write_bytes(data)
    line_at = [data.index(b"\n", data.index(b"@r%d\n" % k)) + 1 for k in range(len(seqs))]
    first = [0, 0, 0, 3, 3, 5, 6, 6, 8, 9, 9]
    starts = [pool.starts.tolist() for pool in ReadStream(path)]
    assert starts == [[line_at[k] for k in first]]
    result = read_sequences(path)
    assert result.pool.starts.tolist() == [0, 0, 0, 4, 4, 8, 11, 11, 15, 19, 19]
    assert result.sequences == [s.decode().upper() for s in seqs]


def _text_mode_read_fastq(path):
    """The FASTQ reader as it was in text mode with universal newlines: the
    reference the bytes reader must match on files without a lone CR."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) % 4:
        raise FormatError(f"{path}: FASTQ record count is not a multiple of 4 lines")
    sequences, skipped = [], 0
    for k in range(0, len(lines), 4):
        head, seq, plus = lines[k], lines[k + 1], lines[k + 2]
        if not head.startswith("@") or not plus.startswith("+"):
            raise FormatError(f"{path}: malformed FASTQ record near line {k + 1}")
        seq = seq.upper()
        if seq.translate(str.maketrans("", "", "ACGT")):
            skipped += 1
        else:
            sequences.append(seq)
    if not sequences:
        raise EmptyLibraryError(f"{path}: no parseable records")
    return sequences, skipped


_ACGT_PIECES = [b"A", b"C", b"G", b"T", b"acgt", b"gA"]
_OTHER_PIECES = [b"N", b"n", b"U", b" ", b"\t", b"\x0b\x0c\x1c", b"\xe9", b"\xc3\xa9", b"\xff",
                 b"\x00"]
# blank lines, and two that only look blank: \x85 and \xa0 are not ASCII
# whitespace, so text mode kept them as content
_BLANK_LINES = [b"", b" ", b"\t", b" \x0c\x1f ", b"\x0b", b"\x85", b" \xa0"]


@st.composite
def _fastq_files(draw):
    lines = []
    for k in range(draw(st.integers(0, 8))):
        pieces = draw(st.lists(st.sampled_from(_ACGT_PIECES), min_size=1, max_size=30))
        if draw(st.integers(0, 2)) == 0:
            pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_OTHER_PIECES)))
        seq = b"".join(pieces)
        head = draw(st.sampled_from([b"@", b"@", b"@", b">", b" @"])) + b"r%d" % k
        plus = draw(st.sampled_from([b"+", b"+", b"+", b"+ r", b"-"]))
        lines += [head, seq, plus, b"I" * len(seq)]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_BLANK_LINES)))
    if lines and draw(st.integers(0, 9)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([b"", eol]))


def _outcome(read):
    try:
        return read()
    except (FormatError, EmptyLibraryError) as exc:
        return type(exc).__name__, str(exc)


def _read_pair(path, fmt):
    result = read_sequences(path, fmt)
    return result.sequences, result.skipped_alphabet


def _stream_pair(path, fmt):
    """:func:`_read_pair` off a :class:`ReadStream`, each window's reads
    taken while it is the one drawn, as ``decode`` votes on them; the
    stream's digest is that of the file."""
    stream = ReadStream(path, fmt)
    sequences = [seq for pool in stream for seq in pool.to_strings()]
    assert stream.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    if not sequences:
        raise EmptyLibraryError(f"{path}: no parseable records")
    return sequences, stream.skipped_alphabet


def _assert_matches_text_mode(path, data, text_mode_reader, readers=(_read_pair,)):
    """Each of ``readers`` in ``path``'s format (its suffix) reads ``data``
    as ``text_mode_reader`` does: the same reads and skips, or the same
    error."""
    path.write_bytes(data)
    expect = _outcome(lambda: text_mode_reader(path))
    for reader in readers:
        assert _outcome(lambda: reader(path, path.suffix[1:])) == expect


def _small_windows(monkeypatch, window, chunk):
    """Read ``window`` bytes and class ``chunk`` bytes at a time, so lines,
    CRLF pairs and records straddle the windows."""
    monkeypatch.setattr(seqio, "_SCAN_BYTES", window)
    monkeypatch.setattr(seqio, "_CLASS_CHUNK", chunk)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fastq_files())
def test_fastq_bytes_reader_matches_text_mode(tmp_path, data):
    _assert_matches_text_mode(tmp_path / "h.fastq", data, _text_mode_read_fastq)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fastq_files(), window=st.integers(1, 8), chunk=st.integers(1, 3))
def test_fastq_reader_matches_text_mode_in_small_windows(tmp_path, monkeypatch, data, window,
                                                         chunk):
    _small_windows(monkeypatch, window, chunk)
    _assert_matches_text_mode(tmp_path / "h.fastq", data, _text_mode_read_fastq,
                              (_read_pair, _stream_pair))


@st.composite
def _fastq_runs(draw):
    """FASTQ records in runs of adjacent copies.  A copy repeats its read or
    changes it a little: its last base, its length, its case, or a leading
    blank; its ``+`` and quality lines may differ, and so may its line
    ends."""
    lines = []
    for k in range(draw(st.integers(1, 6))):
        pieces = draw(st.lists(st.sampled_from(_ACGT_PIECES), min_size=1, max_size=12))
        if draw(st.integers(0, 2)) == 0:
            pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_OTHER_PIECES)))
        read = b"".join(pieces)
        for _ in range(draw(st.integers(1, 6))):
            seq = draw(st.sampled_from([
                read, read, read, read[:-1] + (b"C" if read[-1:] == b"A" else b"A"),
                read + b"G", read[:-1] or read, read.swapcase(), b" " + read, b"\t" + read]))
            plus = draw(st.sampled_from([b"+", b"+", b"+ r"]))
            lines += [b"@r%d" % k, seq, plus, draw(st.sampled_from([b"I", b"J"])) * len(seq)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    eols = [draw(st.sampled_from([eol] * 6 + [b"\n", b"\r\n"])) for _ in lines]
    return b"".join(ln + e for ln, e in zip(lines, eols))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fastq_runs(), window=st.integers(1, 96), chunk=st.integers(1, 3))
def test_fastq_runs_of_copies_match_text_mode_in_small_windows(tmp_path, monkeypatch, data,
                                                               window, chunk):
    _small_windows(monkeypatch, window, chunk)
    _assert_matches_text_mode(tmp_path / "h.fastq", data, _text_mode_read_fastq,
                              (_read_pair, _stream_pair))


def _text_mode_read_fasta(path):
    """The FASTA reader as it was in text mode with universal newlines: the
    reference the bytes reader must match on every file."""
    sequences, skipped, record = [], 0, None

    def flush():
        nonlocal skipped
        if record is not None:
            seq = "".join(record).upper()
            if not seq or seq.translate(str.maketrans("", "", "ACGT")):
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
                record = []
            elif record is not None:
                record.append(line)
            else:
                raise FormatError(f"{path}: sequence data before the first FASTA header")
    flush()
    if not sequences:
        raise EmptyLibraryError(f"{path}: no parseable records")
    return sequences, skipped


# edges a line may carry: ASCII whitespace that str.strip removes, and \xa0
# and \x85, which are not ASCII and so were content in text mode; the run of
# 21 is longer than the first two windows the reader looks at for an edge
_FASTA_EDGES = [b"", b"", b"", b" ", b"\t", b"\x0b\x0c", b" \x1c\x1f", b"\xa0", b"\x85",
                b"\t" * 9 + b" " * 12]


@st.composite
def _fasta_files(draw):
    def sequence_line():
        pieces = draw(st.lists(st.sampled_from(_ACGT_PIECES), min_size=1, max_size=12))
        if draw(st.integers(0, 2)) == 0:  # a lone \r ends the line in text mode
            other = draw(st.sampled_from(_OTHER_PIECES + [b"\r", b"a\rc"]))
            pieces.insert(draw(st.integers(0, len(pieces))), other)
        return draw(st.sampled_from(_FASTA_EDGES)) + b"".join(pieces) + draw(
            st.sampled_from(_FASTA_EDGES))

    lines = [sequence_line() for _ in range(draw(st.sampled_from([0] * 9 + [1])))]
    for k in range(draw(st.integers(0, 6))):
        edge = draw(st.sampled_from(_FASTA_EDGES))
        lines.append(edge + b">pj|%d" % k + draw(st.sampled_from([b"", b" x\ty", b"|\xe9"])))
        lines += [sequence_line() for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    eols = [draw(st.sampled_from([eol] * 6 + [b"\n", b"\r\n", b"\r"])) for _ in lines]
    return b"".join(ln + e for ln, e in zip(lines, eols))[: draw(st.sampled_from([None, -1]))]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fasta_files())
def test_fasta_bytes_reader_matches_text_mode(tmp_path, data):
    _assert_matches_text_mode(tmp_path / "h.fasta", data, _text_mode_read_fasta)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fasta_files(), window=st.integers(1, 8), chunk=st.integers(1, 3))
def test_fasta_reader_matches_text_mode_in_small_windows(tmp_path, monkeypatch, data, window,
                                                         chunk):
    _small_windows(monkeypatch, window, chunk)
    _assert_matches_text_mode(tmp_path / "h.fasta", data, _text_mode_read_fasta,
                              (_read_pair, _stream_pair))


@pytest.mark.parametrize("window", [1, 7, 64])
def test_fastq_errors_are_raised_at_the_end_of_the_stream(tmp_path, monkeypatch, window):
    """A malformed record is reported once the file is read, by its line
    counted over the non-blank lines of every window; a line count that is
    not a multiple of 4 takes precedence over it."""
    monkeypatch.setattr(seqio, "_SCAN_BYTES", window)
    good = b"@r\nacgt\n+\nIIII\n"
    data = good * 3 + b"\n \n" + b"@r\nACGT\n-\nIIII\n" + good * 5
    path = tmp_path / "bad.fastq"
    path.write_bytes(data)
    stream, drawn = ReadStream(path), []
    with pytest.raises(FormatError, match="malformed FASTQ record near line 13$"):
        for pool in stream:
            drawn.append(pool.to_strings())
    assert len(drawn) > 1
    assert sum(drawn, []) == ["ACGT"] * 9
    path.write_bytes(data + b"@r\n")
    with pytest.raises(FormatError, match="not a multiple of 4 lines"):
        read_sequences(path)


def test_fastq_malformed(tmp_path):
    path = tmp_path / "bad.fastq"
    path.write_text("@r0\nACGT\n+\n")
    with pytest.raises(FormatError):
        read_sequences(path)


def test_empty_library_error(tmp_path):
    path = tmp_path / "empty.fasta"
    path.write_text("")
    with pytest.raises(EmptyLibraryError):
        read_sequences(path)
    path.write_text(">only\nNNNN\n")
    with pytest.raises(EmptyLibraryError):
        read_sequences(path)


def test_unknown_format_is_refused_before_the_file_is_read(tmp_path):
    with pytest.raises(FormatError, match="bogus"):
        read_sequences(tmp_path / "missing.fastq", fmt="bogus")


def test_sniff_format(tmp_path, monkeypatch):
    """The content, not the file name, gives the format a file was read in,
    also when the first windows hold only blank bytes."""
    fa = tmp_path / "a.txt"
    fa.write_text(">x\nACGT\n")
    fq = tmp_path / "b.txt"
    fq.write_text("@x\nACGT\n+\nIIII\n")
    padded = tmp_path / "d.txt"  # the first non-blank byte decides
    padded.write_bytes(b"\r\n \t>x\nACGT\n")
    junk = tmp_path / "c.txt"
    junk.write_text("ACGT\n")
    for window in (1, 3, 1 << 20):
        monkeypatch.setattr(seqio, "_SCAN_BYTES", window)
        assert read_sequences(fa).format == "fasta"
        assert read_sequences(fq).format == "fastq"
        assert read_sequences(padded).format == "fasta"
        with pytest.raises(FormatError):
            read_sequences(junk)


def test_write_fastq_constant_quality(tmp_path):
    path = tmp_path / "x.fastq"
    write_fastq(path, ["ACGT", "GG"], origins=[4, 2])
    lines = path.read_text().splitlines()
    assert lines[0] == "@pj.read.0 origin=4"
    assert lines[3] == "IIII"
    assert lines[7] == "II"


@pytest.mark.parametrize("chunk", [2, 5, 256])
def test_writers_give_the_same_bytes_in_any_chunking(tmp_path, rng, monkeypatch, chunk):
    monkeypatch.setattr(seqio, "_WRITE_CHUNK", chunk)
    reads = ["ACGT", "GG", "", "TTTAC", "C"]
    assert write_fastq(tmp_path / "a.fastq", reads, origins=[4, 2, 0, 9, 1]) == 5
    assert (tmp_path / "a.fastq").read_text() == "".join(
        f"@pj.read.{k} origin={o}\n{s}\n+\n{'I' * len(s)}\n"
        for k, (s, o) in enumerate(zip(reads, [4, 2, 0, 9, 1]))
    )
    assert write_fastq(tmp_path / "b.fastq", reads) == 5
    assert (tmp_path / "b.fastq").read_text() == "".join(
        f"@pj.read.{k}\n{s}\n+\n{'I' * len(s)}\n" for k, s in enumerate(reads)
    )
    # a pool whose reads lie out of order, with bytes between, and origins
    # as an array write the same bytes as the strings
    pool = ReadPool(np.frombuffer(b"C|TTTAC||GG|ACGT", np.uint8),
                    np.array([12, 9, 2, 2, 0]), np.array([4, 2, 0, 5, 1]))
    assert write_fastq(tmp_path / "p.fastq", pool, origins=np.array([4, 2, 0, 9, 1])) == 5
    assert (tmp_path / "p.fastq").read_bytes() == (tmp_path / "a.fastq").read_bytes()
    assert write_fastq(tmp_path / "q.fastq", pool) == 5
    assert (tmp_path / "q.fastq").read_bytes() == (tmp_path / "b.fastq").read_bytes()
    strands = random_batch(rng, 5)
    assert write_fasta(tmp_path / "c.fasta", strands) == 5
    assert (tmp_path / "c.fasta").read_text() == "".join(
        f">pj|{s.index_value}\n{s.sequence}\n" for s in strands
    )


def fastq_text(reads, origins=None) -> bytes:
    """The records the text writer gave, one f-string each."""
    if origins is None:
        return "".join(f"@pj.read.{k}\n{s}\n+\n{'I' * len(s)}\n"
                       for k, s in enumerate(reads)).encode("ascii")
    return "".join(f"@pj.read.{k} origin={o}\n{s}\n+\n{'I' * len(s)}\n"
                   for k, (s, o) in enumerate(zip(reads, origins))).encode("ascii")


def scattered_pool(reads, rng) -> ReadPool:
    """``reads`` as a pool whose reads lie in shuffled order with a byte
    between each two, so a row gathered past a read's end holds another's."""
    order = rng.permutation(len(reads))
    buf, starts = bytearray(), np.empty(len(reads), np.int64)
    for k in order:
        buf += b"|"
        starts[k] = len(buf)
        buf += reads[k].encode("ascii")
    lengths = np.array([len(r) for r in reads], np.int64)
    return ReadPool(np.frombuffer(bytes(buf), np.uint8), starts, lengths)


@pytest.mark.parametrize("chunk", [3, 101, 1024])
def test_write_fastq_matches_the_text_records_across_digit_widths(tmp_path, monkeypatch, chunk):
    """150 reads: ids cross 9 -> 10 and 99 -> 100 inside one chunk of 3,
    101 or 1,024 records, origins of 1 to 5 digits share every chunk, and
    reads of unequal length (0 included) share it too; as strings and as a
    pool, with origins as a list or an array and without.  Reads of one
    length without origins leave only the ids to pad."""
    monkeypatch.setattr(seqio, "_WRITE_CHUNK", chunk)
    rng = np.random.default_rng(8)
    lengths = ([0, 1, 5, 141, 3, 0, 7] * 22)[:150]
    reads = ["".join(rng.choice(list("ACGT"), n)) for n in lengths]
    origins = ([7, 42, 999, 1234, 98765, 0, 10, 100, 10_000, 9, 99] * 14)[:150]
    path = tmp_path / "r.fastq"
    for given_reads in (reads, scattered_pool(reads, rng)):
        assert write_fastq(path, given_reads, origins) == 150
        assert path.read_bytes() == fastq_text(reads, origins)
        assert write_fastq(path, given_reads, np.array(origins)) == 150
        assert path.read_bytes() == fastq_text(reads, origins)
        assert write_fastq(path, given_reads) == 150
        assert path.read_bytes() == fastq_text(reads)
    even = ["".join(rng.choice(list("ACGT"), 4)) for _ in range(150)]
    for given_reads in (even, scattered_pool(even, rng)):
        assert write_fastq(path, given_reads) == 150
        assert path.read_bytes() == fastq_text(even)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lengths=st.lists(st.integers(0, 9), max_size=40),
    same_length=st.booleans(),
    origins=st.lists(st.one_of(st.sampled_from([0, 9, 10, 99, 100, 10**6]),
                               st.integers(0, 10**7)), min_size=40, max_size=40),
    with_origins=st.booleans(),
    chunk=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_write_fastq_matches_the_text_writer(tmp_path, monkeypatch, lengths, same_length,
                                             origins, with_origins, chunk, seed):
    """Random reads, all of one length or not, and origins, in any
    chunking: the bytes of the text writer, from strings and from a pool."""
    monkeypatch.setattr(seqio, "_WRITE_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    if same_length and lengths:
        lengths = [lengths[0]] * len(lengths)
    reads = ["".join(rng.choice(list("ACGT"), n)) for n in lengths]
    origins = origins[: len(reads)] if with_origins else None
    path = tmp_path / "r.fastq"
    for given_reads in (reads, scattered_pool(reads, rng)):
        assert write_fastq(path, given_reads, origins) == len(reads)
        assert path.read_bytes() == fastq_text(reads, origins)


def test_write_fastq_rejects_bad_origins(tmp_path):
    with pytest.raises(RangeError):
        write_fastq(tmp_path / "r.fastq", ["AC", "GT"], [1, -1])
    with pytest.raises(ShapeError):
        write_fastq(tmp_path / "r.fastq", ["AC", "GT"], [1])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    indices=st.lists(st.one_of(st.sampled_from([0, 9, 10, 99, 100, CAP - 1]),
                               st.integers(0, CAP - 1)), max_size=12),
    chunk=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_write_fasta_matches_the_text_records(tmp_path, monkeypatch, indices, chunk, seed):
    """A strand batch, whole or every other row, writes the records the text
    writer ``f">pj|{i}\\n{seq}\\n"`` gave, in any chunking."""
    monkeypatch.setattr(seqio, "_WRITE_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, CFG.block_limit, (len(indices), GROUPS), dtype=np.int64)
    batch = assemble_many(np.array(indices, np.int64), blocks)
    path = tmp_path / "lib.fasta"
    for given in (batch, batch[::2]):
        assert write_fasta(path, given) == len(given)
        assert path.read_bytes() == "".join(
            f">pj|{s.index_value}\n{s.sequence}\n" for s in given).encode("ascii")


def test_write_fasta_rejects_negative_indices(tmp_path):
    rows = np.frombuffer(b"ACGT", np.uint8).reshape(1, 4)
    strands = StrandSet(np.array([-1], np.int64), np.zeros((1, 1), np.int64), rows, 9)
    with pytest.raises(RangeError):
        write_fasta(tmp_path / "lib.fasta", strands)
