"""Channel simulation: dropout, read corruption, replication, consensus."""

import bisect
import inspect
import itertools
from dataclasses import replace
from unittest import mock

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
from pjdna.errors import ConfigError, RangeError
from pjdna.partition import decode_image, encode_image
from pjdna.seqio import read_sequences, write_fastq
from pjdna.strand import ReadPool, StrandSet, assemble_many, assemble_strand, parse_many


def random_strands(rng, n):
    blocks = rng.integers(0, 512, (n, 18), dtype=np.int64)
    return assemble_many(np.arange(n, dtype=np.int64), blocks)


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


def test_negative_seeds_are_config_errors():
    with pytest.raises(ConfigError):
        ChannelProfile(seed=-1)
    with pytest.raises(ConfigError):
        ChannelProfile.from_dict({"sub_p": 0.01, "seed": -1})
    for seed in (-1, np.int64(-1), (3, -1), [np.int32(-2)]):
        with pytest.raises(ConfigError):
            channel.keep_mask(10, 0.5, seed)
    ChannelProfile(seed=0)


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


SEED_WORDS = st.integers(0, 2**70)


@settings(max_examples=60, deadline=None)
@given(
    head=st.lists(SEED_WORDS, max_size=4).map(tuple),
    tail=st.lists(SEED_WORDS, max_size=4).map(tuple),
    ids=st.lists(st.integers(0, 2**32 - 1), max_size=6).map(lambda ids: [0, *ids, 2**32 - 1]),
)
def test_streams_are_default_rng_streams(head, tail, ids):
    """Seeding many streams in one pass gives exactly the generators of
    ``default_rng``, which runs NumPy's own ``SeedSequence``, so a NumPy that
    changed that hash fails here instead of silently changing the reads."""
    tail = tail[: 4 - len(head)]  # seeds of 1 to 5 words
    streams = channel._streams(head, np.array(ids, np.int64), tail)
    for sid in ids:
        ours, theirs = next(streams), np.random.default_rng(head + (sid,) + tail)
        assert np.array_equal(ours.random(64), theirs.random(64))
        assert np.array_equal(ours.poisson(7.5, 8), theirs.poisson(7.5, 8))
    assert next(streams, None) is None


def test_streams_take_ids_of_one_word():
    assert [g.random() for g in channel._streams((np.uint64(2**63), 9), [np.uint32(5)])] == [
        np.random.default_rng((2**63, 9, 5)).random()]
    assert list(channel._streams((1,), [])) == []
    for ids in ([2**32], [0, 2**32 + 5], [2**64], [-1]):
        with pytest.raises(RangeError):
            channel._streams((1,), ids)


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
    reads = corrupt_reads([strand.sequence], prof)
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


def within_5_sigma(count, trials, p):
    return abs(count - trials * p) <= 5 * np.sqrt(trials * p * (1 - p))


def test_event_rates_and_choices_are_uniform(rng):
    """About 10^5 positions per profile: each event at its rate, and the
    three shifts and four inserted bases equally likely."""
    seq = "".join(rng.choice(list("ACGT"), 100))
    k = 1000
    trials = k * len(seq)
    reads = corrupt_reads([seq], ChannelProfile(sub_p=0.3, coverage_mean=k, seed=3))
    got = jr.codes_from_seq("".join(reads.sequences)).astype(int)
    shift = (got - np.tile(jr.codes_from_seq(seq), k)) % 4
    shifts = np.bincount(shift, minlength=4)
    assert within_5_sigma(trials - shifts[0], trials, 0.3)
    assert all(within_5_sigma(n, trials - shifts[0], 1 / 3) for n in shifts[1:])

    # kept positions of an all-N strand come out as N, inserted bases as ACGT
    reads = corrupt_reads(["N" * 100], ChannelProfile(ins_p=0.3, coverage_mean=k, seed=3))
    bases = np.frombuffer("".join(reads.sequences).encode("ascii"), np.uint8)
    inserted = np.bincount(bases, minlength=256)[list(b"ACGT")]
    assert within_5_sigma(inserted.sum(), trials, 0.3)
    assert all(within_5_sigma(n, inserted.sum(), 1 / 4) for n in inserted)

    reads = corrupt_reads([seq], ChannelProfile(del_p=0.3, coverage_mean=k, seed=3))
    assert within_5_sigma(trials - int(reads.pool.lengths.sum()), trials, 0.3)


def reads_of_one_base(prof, uniforms):
    """The reads of the strand "A", one per uniform its stream is made to draw."""
    values = np.asarray(uniforms, float)[:, None]

    class Stream:
        def random(self, size=None, out=None):
            if out is None:
                return values.reshape(size).copy()
            out[...] = values
            return out

    assert values.shape[0] <= channel._CHUNK_READS
    streams = lambda head, ids, tail=(): (Stream() for _ in ids)  # noqa: E731
    with mock.patch.object(channel, "_streams", streams):
        return corrupt_reads(["A"], replace(prof, coverage_mean=len(values))).sequences


# the read of "A" for each count of cut points at or below the uniform
FATE_READS = ["", "AA", "AC", "AG", "AT", "C", "G", "T", "A"]


def test_uniforms_beside_each_cut_point_land_in_their_fate():
    prof = ChannelProfile(del_p=0.1, ins_p=0.2, sub_p=0.3)
    cuts = channel._cut_points(prof)
    ins_end = 0.1 + 0.9 * 0.2
    sub_end = ins_end + 0.9 * 0.8 * 0.3
    assert cuts.tolist() == pytest.approx(
        [0.1 + (ins_end - 0.1) * j / 4 for j in range(5)]
        + [ins_end + (sub_end - ins_end) * j / 3 for j in (1, 2, 3)]
    )
    below = np.nextafter(cuts, 0)
    top = np.nextafter(1.0, 0)
    reads = reads_of_one_base(prof, np.concatenate([below, cuts, [0.0, top]]))
    assert reads == FATE_READS[:8] + FATE_READS[1:] + ["", "A"]
    # a rate of 1 ends its span at 1, so no uniform falls past it
    assert reads_of_one_base(ChannelProfile(sub_p=1.0), [0.0, top]) == ["C", "T"]
    assert reads_of_one_base(ChannelProfile(del_p=0.3, ins_p=1.0), [0.3, top]) == ["AA", "AT"]
    assert reads_of_one_base(ChannelProfile(del_p=1.0, sub_p=0.5), [top]) == [""]


def test_cut_points_ascend_within_the_unit_interval():
    rates = [0.0, 1e-18, 0.03, 0.3, 0.7, 1 - 1e-16, 1.0]
    for d, i, s in itertools.product(rates, repeat=3):
        cuts = channel._cut_points(ChannelProfile(del_p=d, ins_p=i, sub_p=s))
        assert cuts.shape == (8,) and cuts[0] == d and cuts[-1] <= 1.0
        assert (np.diff(cuts) >= 0).all()
        if i == 1.0:
            assert cuts[4] == 1.0
        if s == 1.0:
            assert cuts[7] == 1.0


def reference_read(seq, row, prof):
    """One read by a per-position loop over its row of the strand's stream."""
    cuts = channel._cut_points(prof).tolist()
    out = []
    for ch, u in zip(seq, row.tolist()):
        fate = bisect.bisect_right(cuts, u)
        if fate == 0:
            continue
        if fate <= 4:
            out += [ch, "ACGT"[fate - 1]]
        elif fate <= 7:
            out.append("ACGT"[("ACGT".index(ch) + fate - 4) % 4])
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
    cover = np.random.default_rng((21, 1)).poisson(3.0, len(seqs))
    for sid, (seq, k) in enumerate(zip(seqs, cover)):
        rows = np.random.default_rng((21, 2, sid)).random((k, len(seq)))
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


def test_poisson_reads_do_not_depend_on_later_strands(rng):
    strands = random_strands(rng, 190)
    n = 150
    prof = ChannelProfile(sub_p=0.02, ins_p=0.01, del_p=0.01, coverage_mean=3.0,
                          coverage_model="poisson", seed=5)
    head = corrupt_reads(strands[:n], prof)
    full = corrupt_reads(strands, prof)
    assert len(head) > channel._CHUNK_READS
    cover = np.bincount(head.origin_ids, minlength=n)
    assert len(set(cover.tolist())) > 3
    assert np.bincount(full.origin_ids, minlength=len(strands))[:n].tolist() == cover.tolist()
    assert full.sequences[: len(head)] == head.sequences
    assert full.origins[: len(head)] == head.origins


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


def string_corrupt_reads(strands, profile, chunk=256):
    """The mutation ``corrupt_reads`` ran before it worked on a code pool:
    strings in, one ASCII buffer per chunk split back into strings out.
    Kept as the reference the pool version must match byte for byte."""
    seed = profile.seed
    if profile.coverage_model == "fixed":
        cover = np.full(len(strands), int(profile.coverage_mean))
    else:
        cover = np.random.default_rng((seed, 1)).poisson(profile.coverage_mean, len(strands))
    sequences, origins = [], []
    pending, size = [], 0
    for sid, (seq, k) in enumerate(zip(strands, cover.tolist())):
        origins.extend([sid] * k)
        if profile.noiseless:
            sequences.extend([seq] * k)
            continue
        rng = np.random.default_rng((seed, 2, sid))
        while k:
            take = min(k, chunk - size)
            pending.append((seq, rng.random((take, len(seq)))))
            k -= take
            size += take
            if size == chunk:
                sequences.extend(string_mutate_chunk(pending, profile))
                pending, size = [], 0
    if pending:
        sequences.extend(string_mutate_chunk(pending, profile))
    return sequences, origins


CODE_ASCII = np.frombuffer(b"ACGT" + b"N" * 252, np.uint8)


def string_mutate_chunk(pending, profile):
    lens = np.array([len(seq) for seq, _ in pending])
    reps = [u.shape[0] for _, u in pending]
    width = int(lens.max())
    inside = np.arange(width) < lens[:, None]
    strand_codes = np.zeros(inside.shape, np.uint8)
    strand_codes[inside] = jr.codes_from_seq("".join(seq for seq, _ in pending))
    codes = np.repeat(strand_codes, reps, axis=0)
    u = np.ones((codes.shape[0], width))
    row = 0
    for (_, draws), n in zip(pending, lens):
        u[row : row + draws.shape[0], :n] = draws
        row += draws.shape[0]

    fate = (u[:, :, None] >= channel._cut_points(profile)).sum(axis=2)
    keep = np.repeat(inside, reps, axis=0) & (fate > 0)
    ins = keep & (fate <= 4)
    sub = keep & (fate > 4) & (fate < 8) & (codes != 255)  # N stays N
    codes[sub] = (codes[sub] + fate[sub] - 4) % 4

    step = np.ones((codes.shape[0], width + 1), np.intp)
    step[:, :width] = keep
    step[:, :width] += ins
    at = np.cumsum(step).reshape(step.shape) - step
    out = np.empty(int(at[-1, -1]) + 1, np.uint8)
    out[at[:, :width][keep]] = CODE_ASCII[codes[keep]]
    out[at[:, :width][ins] + 1] = CODE_ASCII[fate[ins] - 1]
    out[at[:, width]] = ord("\n")
    return out.tobytes().decode("ascii").split("\n")[:-1]


def scattered_pool(seqs):
    """A pool whose reads sit out of order in one buffer, with bytes between."""
    text, starts = "", [0] * len(seqs)
    for k in reversed(range(len(seqs))):
        text += "@x\n"
        starts[k] = len(text)
        text += seqs[k]
    return ReadPool(np.frombuffer(text.encode("ascii"), np.uint8),
                    np.array(starts, np.int64), np.array([len(s) for s in seqs], np.int64))


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.one_of(
        st.tuples(st.integers(0, 9), st.integers(1, 40)).map(lambda t: [t[1]] * t[0]),
        st.lists(st.integers(0, 40), max_size=9),
    ),
    coverage=st.one_of(
        st.integers(0, 5).map(lambda k: dict(coverage_mean=k)),
        st.floats(0.0, 6.0).map(lambda m: dict(coverage_mean=m, coverage_model="poisson")),
    ),
    rates=st.tuples(*[st.sampled_from([0.0, 1.0, 0.03, 0.3])] * 3),
    chunk=st.sampled_from([1, 7, 256]),
    as_pool=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_pool_corruption_matches_string_reference(lengths, coverage, rates, chunk, as_pool, seed):
    seqs = mixed_length_seqs(np.random.default_rng(seed), lengths)
    prof = ChannelProfile(del_p=rates[0], ins_p=rates[1], sub_p=rates[2], seed=seed, **coverage)
    expect = string_corrupt_reads(seqs, prof)
    with mock.patch.object(channel, "_CHUNK_READS", chunk):
        reads = corrupt_reads(scattered_pool(seqs) if as_pool else seqs, prof)
    assert (reads.sequences, reads.origins) == expect
    assert reads.origin_ids.tolist() == expect[1] and len(reads) == len(expect[0])


def test_characters_outside_acgt_come_out_as_n():
    reads = corrupt_reads(["ACNTx", "GG\u00e9A"], ChannelProfile(sub_p=1e-12, coverage_mean=2))
    assert reads.sequences == ["ACNTN", "ACNTN", "GGNA", "GGNA"]
    # substituted too: every base changes, and every other character stays N
    reads = corrupt_reads(["NNNN", "ANx"], ChannelProfile(sub_p=1.0, coverage_mean=2))
    assert reads.sequences[:2] == ["NNNN", "NNNN"]
    assert [(r[0] in "CGT", r[1:]) for r in reads.sequences[2:]] == [(True, "NN")] * 2


def test_noiseless_reads_share_the_strand_buffer(rng):
    seqs = mixed_length_seqs(rng, [100, 141, 160])
    pool = scattered_pool(seqs)
    reads = corrupt_reads(pool, ChannelProfile(coverage_mean=4))
    assert reads.pool.buf is pool.buf
    assert reads.sequences == [s for s in seqs for _ in range(4)]


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


@pytest.mark.parametrize("bits", [9, 17])
def test_vote_matches_bincount_reference_at_any_block_width(bits):
    """9-bit blocks are voted on as uint16 and 17-bit ones as uint32; either
    way the vote is the reference's, returned as int64 blocks."""
    if bits == 9:
        cfg, layout = jr.DEFAULT_CONFIG, strand.DEFAULT_LAYOUT
    else:
        cfg = jr.JrConfig(group_radices=(4, 4, 4, 4, 3, 4, 4, 4, 4), bits_per_block=17,
                          groups_per_payload=4)
        layout = strand.StrandLayout(index_nt=9, payload_nt=36)
    rng = np.random.default_rng(11)
    indices = np.repeat(np.arange(6) * 5, [1, 2, 3, 4, 5, 6])
    rng.shuffle(indices)
    top = cfg.block_limit - 1
    blocks = rng.choice(np.array([0, 1, top // 2 + 1, top]), (indices.size, cfg.groups_per_payload))
    batch = channel.vote(assemble_many(indices, blocks, layout, cfg).pool, layout, cfg)
    assert batch.payload_blocks.dtype == np.int64
    assert batch.indices.dtype == np.int64
    assert dict(zip(batch.indices.tolist(), batch.payload_blocks.tolist())) == bincount_vote(
        blocks, indices)


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

    The value 0.9457 is this test's result at seed 99 under channel stream
    3; seeds 1-5 give 0.9391-0.9452.  The band is the binomial 2-sigma of a
    fraction near 0.94 over 10^4 strands.
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
    assert abs(frac - 0.9457) <= 0.0049


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


def test_channel_takes_a_strand_set_as_its_rows(rng):
    """Dropping and corrupting a strand batch gives what its strands as a
    list give, and noiseless reads point at the batch's own rows."""
    batch, _ = encode_image(rng.integers(0, 256, (30, 40), dtype=np.uint8))
    strands = list(batch)
    survivors = drop_strands(batch, 0.3, 5)
    assert isinstance(survivors, StrandSet)
    assert list(survivors) == drop_strands(strands, 0.3, 5)
    for prof in (preset("aging95C", seed=4), ChannelProfile(ins_p=0.01, del_p=0.01, seed=2)):
        got = corrupt_reads(survivors, prof)
        expect = corrupt_reads([s.sequence for s in survivors], prof)
        assert got.sequences == expect.sequences and got.origins == expect.origins
    clean = corrupt_reads(batch, preset("clean"))
    assert np.shares_memory(clean.pool.buf, batch.rows)
    assert clean.sequences == [s.sequence for s in strands for _ in range(10)]
