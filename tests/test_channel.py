"""Channel simulation: dropout, read corruption, replication, consensus."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjdna import channel, jr, strand
from pjdna.channel import (
    ChannelProfile,
    PRESET_NAMES,
    consensus,
    corrupt_reads,
    drop_strands,
    preset,
)
from pjdna.errors import ConfigError
from pjdna.partition import decode_image, encode_image
from pjdna.seqio import read_sequences, write_fastq
from pjdna.strand import assemble_many, assemble_strand, parse_many


def random_strands(rng, n):
    out = []
    for i in range(n):
        bits = rng.integers(0, 2, 162, dtype=np.uint8)
        out.append(assemble_strand(i, np.packbits(bits).tobytes()))
    return out


def mixed_length_seqs(rng, lengths):
    return ["".join(rng.choice(list("ACGT"), n)) for n in lengths]


def reads_by_origin(reads):
    out = {}
    for seq, origin in zip(reads.sequences, reads.origins):
        out.setdefault(origin, []).append(seq)
    return out


# ---------------------------------------------------------------------------
# profiles and presets
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ConfigError):
        ChannelProfile(sub_p=1.5)
    with pytest.raises(ConfigError):
        ChannelProfile(coverage_mean=-1)
    with pytest.raises(ConfigError):
        ChannelProfile(coverage_model="exact")
    with pytest.raises(ConfigError):
        ChannelProfile(coverage_mean=2.5, coverage_model="fixed")
    ChannelProfile(coverage_mean=2.5, coverage_model="poisson")


def test_profile_json_round_trip():
    p = ChannelProfile(dropout_p=0.2, sub_p=0.01, seed=5, name="x")
    assert ChannelProfile.from_dict(p.to_dict()) == p
    with pytest.raises(ConfigError):
        ChannelProfile.from_dict({**p.to_dict(), "oops": 1})


def test_presets():
    assert set(PRESET_NAMES) == {"clean", "loss10", "aging95C", "xray"}
    clean = preset("clean")
    assert clean.noiseless and clean.dropout_p == 0 and clean.coverage_mean == 10
    loss10 = preset("loss10", seed=3)
    assert loss10.dropout_p == 0.10 and loss10.seed == 3
    assert preset("aging95C").rate_provenance == "artifact-estimate"
    assert preset("xray").rate_provenance == "artifact-estimate"
    assert preset("aging95C").dropout_p == 0.15 and preset("aging95C").sub_p == 0.005
    assert preset("xray").dropout_p == 0.05 and preset("xray").sub_p == 0.02
    with pytest.raises(ConfigError):
        preset("fire")


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_drop_edge_probabilities():
    items = list(range(500))
    assert drop_strands(items, 0.0, 1) == items
    assert drop_strands(items, 1.0, 1) == []


def test_drop_deterministic_and_nested():
    items = list(range(2000))
    a = drop_strands(items, 0.3, 42)
    assert a == drop_strands(items, 0.3, 42)
    # the same seed draws the same uniforms, so survivor sets nest by rate
    b = drop_strands(items, 0.5, 42)
    assert set(b) <= set(a)


def test_drop_accepts_numpy_integer_seeds():
    items = list(range(500))
    assert drop_strands(items, 0.3, np.int64(3)) == drop_strands(items, 0.3, 3)
    assert drop_strands(items, 0.3, np.uint32(3)) == drop_strands(items, 0.3, 3)
    expect = drop_strands(items, 0.3, (3, 7))
    for seed in [(np.int64(3), 7), (3, np.int32(7)), [np.uint8(3), np.int64(7)], np.array([3, 7])]:
        assert drop_strands(items, 0.3, seed) == expect
    assert expect != drop_strands(items, 0.3, 3)
    with pytest.raises(TypeError):
        drop_strands(items, 0.3, 3.0)


def test_drop_binomial_band():
    """Survivor counts stay inside the 3-sigma binomial band in >=99/100 seeds."""
    items = list(range(10000))
    inside = 0
    for seed in range(100):
        k = len(drop_strands(items, 0.1, seed))
        if 8910 <= k <= 9090:
            inside += 1
    assert inside >= 99


# ---------------------------------------------------------------------------
# read corruption
# ---------------------------------------------------------------------------

def test_zero_rates_coverage_one_identity(rng):
    strands = random_strands(rng, 20)
    prof = ChannelProfile(coverage_mean=1)
    reads = corrupt_reads(strands, prof)
    assert reads.sequences == [s.sequence for s in strands]
    assert reads.origins == list(range(20))


def test_forced_substitution_changes_every_position(rng):
    strands = random_strands(rng, 5)
    prof = ChannelProfile(sub_p=1.0, coverage_mean=2, seed=9)
    reads = corrupt_reads(strands, prof)
    assert len(reads) == 10
    for read, origin in zip(reads.sequences, reads.origins):
        orig = strands[origin].sequence
        assert len(read) == len(orig)
        assert all(a != b for a, b in zip(read, orig))


def test_substitution_rate_mean(rng):
    """sub_p=0.01 on 141 nt: about 1.41 mutated positions per read."""
    strand = random_strands(rng, 1)[0]
    prof = ChannelProfile(sub_p=0.01, coverage_mean=10000, seed=4)
    reads = corrupt_reads([strand], prof)
    diffs = [
        sum(a != b for a, b in zip(r, strand.sequence)) for r in reads.sequences
    ]
    mean = np.mean(diffs)
    assert abs(mean - 1.41) <= 0.05 * 1.41


def test_indels_change_length(rng):
    strands = random_strands(rng, 10)
    prof = ChannelProfile(del_p=0.5, coverage_mean=1, seed=2)
    reads = corrupt_reads(strands, prof)
    assert all(len(r) < 141 for r in reads.sequences)
    prof = ChannelProfile(ins_p=0.5, coverage_mean=1, seed=2)
    reads = corrupt_reads(strands, prof)
    assert all(len(r) > 141 for r in reads.sequences)


def test_corruption_deterministic(rng):
    strands = random_strands(rng, 15)
    prof = ChannelProfile(sub_p=0.02, ins_p=0.01, del_p=0.01, coverage_mean=3, seed=77)
    r1 = corrupt_reads(strands, prof)
    r2 = corrupt_reads(strands, prof)
    assert r1.sequences == r2.sequences
    assert r1.origins == r2.origins


def test_poisson_coverage(rng):
    strands = random_strands(rng, 200)
    prof = ChannelProfile(coverage_mean=5.0, coverage_model="poisson", seed=6)
    reads = corrupt_reads(strands, prof)
    counts = np.bincount(reads.origins, minlength=200)
    assert abs(counts.mean() - 5.0) < 0.5
    assert counts.std() > 0.5  # actually dispersed, not fixed


def test_priority_delete_over_insert_over_substitute(rng):
    seqs = mixed_length_seqs(rng, [100, 141, 160, 141])
    everything = ChannelProfile(del_p=1.0, ins_p=1.0, sub_p=1.0, coverage_mean=3, seed=1)
    assert corrupt_reads(seqs, everything).sequences == [""] * 12
    # an insertion keeps its base verbatim, so substitution never fires
    reads = corrupt_reads(seqs, ChannelProfile(ins_p=1.0, sub_p=1.0, coverage_mean=3, seed=1))
    for read, origin in zip(reads.sequences, reads.origins):
        assert read[::2] == seqs[origin]
    assert set("".join(r[1::2] for r in reads.sequences)) == set("ACGT")
    reads = corrupt_reads(seqs, ChannelProfile(sub_p=1.0, coverage_mean=3, seed=1))
    shifts = set()
    for read, origin in zip(reads.sequences, reads.origins):
        a, b = jr.codes_from_seq(read), jr.codes_from_seq(seqs[origin])
        shifts |= set(((a.astype(int) - b) % 4).tolist())
    assert shifts == {1, 2, 3}


def reference_read(seq, row, prof):
    """One read by a per-position loop over its row of the strand's stream."""
    out = []
    for ch, (u_del, u_ins, u_sub, shift, base) in zip(seq, row.T):
        if u_del < prof.del_p:
            continue
        if u_ins < prof.ins_p:
            out += [ch, "ACGT"[int(4 * base)]]
        elif u_sub < prof.sub_p:
            out.append("ACGT"[("ACGT".index(ch) + 1 + int(3 * shift)) % 4])
        else:
            out.append(ch)
    return "".join(out)


def test_corrupt_reads_matches_per_read_reference(rng):
    seqs = mixed_length_seqs(rng, [100, 141, 160] * 40)
    prof = ChannelProfile(sub_p=0.1, ins_p=0.05, del_p=0.05, coverage_mean=3.0,
                          coverage_model="poisson", seed=21)
    reads = corrupt_reads(seqs, prof)
    assert len(reads) > channel._CHUNK_READS
    expected = []
    for sid, seq in enumerate(seqs):
        k = np.random.default_rng((21, 1, sid)).poisson(3.0)
        rows = np.random.default_rng((21, 2, sid)).random((k, 5, len(seq)))
        expected += [reference_read(seq, row, prof) for row in rows]
    assert reads.sequences == expected


def test_reads_do_not_depend_on_later_strands(rng):
    strands = random_strands(rng, 190)
    n, k = 150, 3
    assert n * k > channel._CHUNK_READS
    prof = ChannelProfile(sub_p=0.02, ins_p=0.01, del_p=0.01, coverage_mean=k, seed=5)
    head = corrupt_reads(strands[:n], prof)
    full = corrupt_reads(strands, prof)
    assert full.sequences[: n * k] == head.sequences
    assert full.origins[: n * k] == head.origins


def test_poisson_replicates_are_prefix_of_one_stream(rng):
    strands = random_strands(rng, 60)
    rates = dict(sub_p=0.05, ins_p=0.01, del_p=0.01, seed=8)
    poisson = reads_by_origin(
        corrupt_reads(strands, ChannelProfile(coverage_mean=4.0, coverage_model="poisson", **rates))
    )
    fixed = reads_by_origin(corrupt_reads(strands, ChannelProfile(coverage_mean=20, **rates)))
    assert len({len(v) for v in poisson.values()}) > 3
    for sid, reads in poisson.items():
        assert reads == fixed[sid][: len(reads)]


def test_mixed_length_batch(rng):
    lengths = [100, 141, 160, 141, 100, 160, 160, 100]
    seqs = mixed_length_seqs(rng, lengths)
    # rates of 0 take the copy path, 1e-12 runs the mutation pass without firing
    for sub_p in (0.0, 1e-12):
        reads = corrupt_reads(seqs, ChannelProfile(sub_p=sub_p, coverage_mean=3, seed=2))
        assert reads.sequences == [s for s in seqs for _ in range(3)]
    reads = corrupt_reads(seqs, ChannelProfile(sub_p=0.3, coverage_mean=3, seed=2))
    assert [len(r) for r in reads.sequences] == [n for n in lengths for _ in range(3)]
    assert all(set(r) <= set("ACGT") for r in reads.sequences)
    assert sum(r != seqs[o] for r, o in zip(reads.sequences, reads.origins)) == 24


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def test_consensus_signature_takes_sequences_only():
    params = list(inspect.signature(consensus).parameters)
    assert params[0] == "sequences"
    assert "origins" not in params and "provenance" not in params


def test_consensus_identical_reads(rng):
    s = random_strands(rng, 1)[0]
    pairs, counts = consensus([s.sequence] * 3)
    assert pairs == [(s.index_value, s.payload)]
    assert counts["accepted"] == 3
    assert counts["indices_observed"] == 1


def test_consensus_plurality_beats_minority(rng):
    s = random_strands(rng, 1)[0]
    # flip one payload block of a single read; the 2:1 plurality restores it
    blocks = np.frombuffer(s.payload, np.uint8).reshape(1, -1)
    vals = jr.unpack_block_rows(blocks, 18, 9)[0]
    altered = vals.copy()
    altered[5] = (altered[5] + 1) % 512
    q_payload = jr.pack_block_rows(altered.reshape(1, -1), 9)[0].tobytes()
    from pjdna.strand import assemble_strand as mk

    q = mk(s.index_value, q_payload)
    pairs, _ = consensus([s.sequence, s.sequence, q.sequence])
    assert pairs == [(s.index_value, s.payload)]


def test_consensus_tie_breaks_to_smaller_value(rng):
    s = random_strands(rng, 1)[0]
    blocks = jr.unpack_block_rows(np.frombuffer(s.payload, np.uint8).reshape(1, -1), 18, 9)[0]
    hi = blocks.copy()
    hi[0] = 511
    lo = blocks.copy()
    lo[0] = 3
    mk = lambda v: assemble_strand(
        s.index_value, jr.pack_block_rows(v.reshape(1, -1), 9)[0].tobytes()
    )
    pairs, _ = consensus([mk(hi).sequence, mk(lo).sequence])
    got = jr.unpack_block_rows(np.frombuffer(pairs[0][1], np.uint8).reshape(1, -1), 18, 9)[0]
    assert got[0] == 3


def test_consensus_sorted_by_index(rng):
    strands = random_strands(rng, 10)
    seqs = [s.sequence for s in reversed(strands)]
    pairs, _ = consensus(seqs)
    assert [p[0] for p in pairs] == list(range(10))


def bincount_vote(blocks, indices):
    """Reference vote: per index, per column ``np.bincount(...).argmax()``."""
    return {
        int(i): [int(np.bincount(col).argmax()) for col in blocks[indices == i].T]
        for i in np.unique(indices)
    }


@settings(max_examples=40, deadline=None)
@given(
    group_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    choices=st.lists(st.sampled_from([0, 1, 7, 511]), min_size=2, max_size=3, unique=True),
    seed=st.integers(0, 2**16),
)
def test_consensus_matches_bincount_reference(group_sizes, choices, seed):
    """Few distinct block values and even group sizes force ties."""
    rng = np.random.default_rng(seed)
    indices = np.repeat(np.arange(len(group_sizes)) * 7, group_sizes)
    rng.shuffle(indices)
    blocks = rng.choice(np.array(choices), (indices.size, 18))
    seqs = [s.sequence for s in assemble_many(indices, blocks)]
    pairs, counts = consensus(seqs)
    assert counts["indices_observed"] == len(group_sizes)
    got = {
        i: jr.unpack_block_rows(np.frombuffer(p, np.uint8).reshape(1, -1), 18, 9)[0].tolist()
        for i, p in pairs
    }
    assert got == bincount_vote(blocks, indices)


@pytest.mark.parametrize("tolerance", [0, 2])
def test_pool_and_strings_parse_and_vote_alike(tmp_path, rng, monkeypatch, tolerance):
    """A file's read pool and its list of strings give the same parse and
    vote, whole or split into parse chunks of 7 reads."""
    strands = random_strands(rng, 60)
    prof = ChannelProfile(sub_p=0.02, ins_p=0.003, del_p=0.003, coverage_mean=6,
                          coverage_model="poisson", seed=3)
    reads = corrupt_reads(strands, prof).sequences
    reads = [s.lower() if k % 5 == 0 else s for k, s in enumerate(reads)]
    reads[4] = reads[4][:50] + "N" + reads[4][51:]
    write_fastq(tmp_path / "r.fastq", reads)
    result = read_sequences(tmp_path / "r.fastq")
    assert len(result.pool) > 7 * 40
    seen = []
    for chunk in (strand._PARSE_CHUNK, 7):
        monkeypatch.setattr(strand, "_PARSE_CHUNK", chunk)
        for given_reads in (result.pool, result.sequences):
            batch = parse_many(given_reads, primer_tolerance=tolerance)
            pairs, counts = consensus(given_reads, primer_tolerance=tolerance)
            seen.append((batch.indices.tolist(), batch.payload_blocks.tolist(), batch.counts,
                         pairs, counts))
    assert all(s == seen[0] for s in seen[1:])
    counts = seen[0][2]
    assert min(counts["reject_length"], counts["reject_corrupt"], counts["accepted"]) > 0
    assert result.skipped_alphabet == 1


def test_consensus_monte_carlo_recovery():
    """Pinned measurement: coverage 10 at 1% substitutions on 10^4 strands.

    The value 0.9376 was measured with this exact seeding; the band is the
    binomial 2-sigma of that measurement.
    """
    img = np.random.default_rng(7).integers(0, 256, (500, 400), dtype=np.uint8)
    strands, manifest = encode_image(img)
    assert manifest.strand_count == 10000
    prof = ChannelProfile(sub_p=0.01, coverage_mean=10, seed=99)
    reads = corrupt_reads(strands, prof)
    pairs, _ = consensus(reads.sequences)
    n = len(strands)
    exact = sum(1 for i, p in pairs if 0 <= i < n and p == strands[i].payload)
    frac = exact / n
    assert abs(frac - 0.9376) <= 0.0049


def test_full_pipeline_clean_preset_lossless(rng):
    img = rng.integers(0, 256, (50, 40), dtype=np.uint8)
    strands, manifest = encode_image(img)
    prof = preset("clean")
    survivors = drop_strands(strands, prof.dropout_p, prof.seed)
    reads = corrupt_reads(survivors, prof)
    assert len(reads) == 10 * len(strands)
    pairs, _ = consensus(reads.sequences)
    rec = decode_image(pairs, manifest, parse_stats=None)
    assert np.array_equal(rec.image, img)


def test_loss10_masked_fraction(rng):
    img = rng.integers(0, 256, (100, 100), dtype=np.uint8)  # 500 tiles
    strands, manifest = encode_image(img)
    prof = preset("loss10", seed=8)
    survivors = drop_strands(strands, prof.dropout_p, prof.seed)
    rec = decode_image([(s.index_value, s.payload) for s in survivors], manifest)
    assert abs(rec.masked_fraction - 0.10) < 0.05
