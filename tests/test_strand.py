"""Strand assembly/parsing and sequence file I/O."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pjdna import jr, seqio
from pjdna.errors import (
    CapacityError,
    ConfigError,
    EmptyLibraryError,
    FormatError,
    LayoutError,
    RangeError,
    StrandReject,
)
from pjdna.seqio import read_sequences, sniff_format, write_fasta, write_fastq
from pjdna.strand import (
    DEFAULT_LAYOUT,
    DEFAULT_PRIMER3,
    DEFAULT_PRIMER5,
    ReadPool,
    StrandLayout,
    assemble_strand,
    parse_many,
    parse_strand,
)

CFG = jr.JrConfig()


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
        StrandLayout(payload_nt=85).validate(CFG)  # 17 groups != 18
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
    assert data == jr.jr_encode_stream([0] * 20, CFG, prev_init=DEFAULT_PRIMER5[-1])


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


# ---------------------------------------------------------------------------
# sequence file I/O
# ---------------------------------------------------------------------------

def test_fasta_round_trip(tmp_path, rng):
    strands = [assemble_strand(i, random_payload(rng)) for i in range(100)]
    path = tmp_path / "lib.fasta"
    assert write_fasta(path, strands) == 100
    first = path.read_text().splitlines()[0]
    assert first == ">pj|0"
    result = read_sequences(path)
    assert result.sequences == [s.sequence for s in strands]
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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_fastq_files())
def test_fastq_bytes_reader_matches_text_mode(tmp_path, data):
    path = tmp_path / "h.fastq"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read()
        except (FormatError, EmptyLibraryError) as exc:
            return type(exc).__name__, str(exc)

    def new():
        result = read_sequences(path, "fastq")
        return result.sequences, result.skipped_alphabet

    assert outcome(new) == outcome(lambda: _text_mode_read_fastq(path))


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


def test_sniff_format(tmp_path):
    fa = tmp_path / "a.txt"
    fa.write_text(">x\nACGT\n")
    assert sniff_format(fa) == "fasta"
    fq = tmp_path / "b.txt"
    fq.write_text("@x\nACGT\n+\nIIII\n")
    assert sniff_format(fq) == "fastq"
    junk = tmp_path / "c.txt"
    junk.write_text("ACGT\n")
    with pytest.raises(FormatError):
        sniff_format(junk)


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
    strands = [assemble_strand(i, random_payload(rng)) for i in range(5)]
    assert write_fasta(tmp_path / "c.fasta", iter(strands)) == 5
    assert (tmp_path / "c.fasta").read_text() == "".join(
        f">pj|{s.index_value}\n{s.sequence}\n" for s in strands
    )
