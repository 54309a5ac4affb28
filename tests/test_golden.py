"""Golden outputs: the SHA-256 of every primary output of ``encode``,
``simulate``, ``decode``, ``sweep``, ``degrade-dataset`` and ``ssim`` on
fixed inputs, so a change to any layer that alters a byte of what the
commands write fails here."""

import hashlib

import numpy as np
import pytest

from pjdna.cli import main
from pjdna.idx import write_idx_images
from pjdna.images import write_pgm

# Recorded with the per-strand string writer and the table-lookup parser
# that preceded the array strand batch; the aging95C digests re-recorded for
# channel stream 3.
GOLDEN_SHA256 = {
    "image": {
        "lib.fasta": "927263153bb2bfc53f86a94410536a8c5a544cd6e53f1b6735e24da73c6a9166",
        "m.json": "ffe4a2d38cef77799bdeb0b0564ed9975454824edfdee4020ec30e80c92fd9da",
        "loss10.fastq": "9c152dc9a0b3524d62577f3159d6031c36213312c7c4f56f99c53bdcb593ef01",
        "loss10.out": "764601eccf8f948602266ac57ede9060314d571bffe35cb03e42ab4a57f122b4",
        "loss10.mask.pbm": "f2f7d725f69b29fa57afb02f53163adcda68bf222f7993fb335d120cc7f172bc",
        "aging95C.fastq": "0ead570a9a8cdf5402243b18c7ee4694b297609ae5c11b0f8ccaef74d2ca9bef",
        "aging95C.out": "f9b6f6f5bb28bebc0fb755094d88ccd3fc0c3d2c05d3f4ceaf5e727dbaa0702c",
        "aging95C.mask.pbm": "b06d255cf06572a65082dd56e0d97f1be6cea69a49e57fc8d958af3a8dc58b92",
    },
    "raw": {
        "lib.fasta": "c49ee8ee7bdd2e167a24479f7720910560fb099427d36973e43c3341eb26ad78",
        "m.json": "c18878dc08d0e6152f9964a4ae2a878371efc934610dfe8ec0dda9066c1de294",
        "loss10.fastq": "739fd764d43bbba293cae1c3c0f81bf9a65d55d56ed3e6b92c55350f6e4fce85",
        "loss10.out": "64c7e4bffea86cc1f2632a898c6fc36287752354b73debfad93fa74729a49561",
        "loss10.mask.pbm": "d7c44e04ed5ffa31951662bbbe63daf7def86087277a29d70a5d10bdc5b9ee0d",
        "aging95C.fastq": "7531d7de0b303a985ce003075addf2d3eb00e77d4ccd7df62f06f26a761d4f31",
        "aging95C.out": "802f93790a58f2d178e0a94bb68685dba6d51a18c323ca4280d4daba891e7592",
        "aging95C.mask.pbm": "c1984644116a28651fe03c49ee1ddc28cda026ddb385b1c63ff5232916adf5ef",
    },
}


# Recorded with an SSIM that filtered the reference image on every call and
# ran the second filter pass over axis-1 windows.
GOLDEN_COMMAND_SHA256 = {
    "sweep.t1.csv": "2e8d168f0e5a203982905c9f4b882e2fa8c29daaa72b76b8e1c02aeebfe2fdd1",
    "sweep.t2.csv": "2e8d168f0e5a203982905c9f4b882e2fa8c29daaa72b76b8e1c02aeebfe2fdd1",
    "degraded.idx": "a675cd20a4051e3b0547a2c4ac674a328da37fc4ada17d5badb41d0c121cffd1",
    "masks.idx": "f8e98db49d32ca86301698614b0144a70d93bafc8e012f045379468c71bba902",
    "ssim.stdout": "1416a0e9d213fc0af27bc5d47848535aa450bd43e0811ec1cf8280c7261e74ef",
}


def _fixed_image() -> np.ndarray:
    return np.random.default_rng(2026).integers(0, 256, (60, 80), dtype=np.uint8)


def golden_outputs(tmp_path, mode: str) -> dict[str, str]:
    """Encode a fixed 80x60 image (240 strands) or 25,000 fixed bytes (1,235
    strands, so indices of one to four digits), simulate ``loss10`` and
    ``aging95C`` at seed 11, decode each with ``--mask``; the digest of each
    file written."""
    rng = np.random.default_rng(2026)
    if mode == "image":
        write_pgm(tmp_path / "in.pgm", _fixed_image())
        source = ["--in", tmp_path / "in.pgm"]
    else:
        (tmp_path / "in.bin").write_bytes(rng.integers(0, 256, 25_000, np.uint8).tobytes())
        source = ["--raw", tmp_path / "in.bin"]
    files = ["lib.fasta", "m.json"]
    assert main([str(a) for a in ["encode", *source, "--out", tmp_path / "lib.fasta",
                                  "--manifest", tmp_path / "m.json"]]) == 0
    for channel in ("loss10", "aging95C"):
        assert main([str(a) for a in ["simulate", "--lib", tmp_path / "lib.fasta", "--preset",
                                      channel, "--seed", "11",
                                      "--out", tmp_path / f"{channel}.fastq"]]) == 0
        assert main([str(a) for a in ["decode", "--reads", tmp_path / f"{channel}.fastq",
                                      "--manifest", tmp_path / "m.json",
                                      "--out", tmp_path / f"{channel}.out",
                                      "--mask", tmp_path / f"{channel}.mask.pbm"]]) == 0
        files += [f"{channel}.fastq", f"{channel}.out", f"{channel}.mask.pbm"]
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SHA256))
def test_outputs_match_golden_digests(tmp_path, mode):
    assert golden_outputs(tmp_path, mode) == GOLDEN_SHA256[mode]


def command_outputs(tmp_path, capsys) -> dict[str, str]:
    """``sweep --inpaint`` of the fixed 80x60 image at four rates and two
    seeds on one and on two threads, ``degrade-dataset --masks`` of a fixed
    12-image stack, and ``ssim`` of the fixed image against a noisy copy;
    the digest of each CSV, IDX stack and of the printed SSIM."""
    img = _fixed_image()
    write_pgm(tmp_path / "in.pgm", img)
    for threads in (1, 2):
        assert main([str(a) for a in ["sweep", "--in", tmp_path / "in.pgm", "--rates",
                                      "0,0.1,0.5,0.9", "--seeds", "2", "--seed", "1",
                                      "--inpaint", "--threads", threads,
                                      "--out", tmp_path / f"sweep.t{threads}.csv"]]) == 0
    rng = np.random.default_rng(7)
    write_idx_images(tmp_path / "in.idx", rng.integers(0, 256, (12, 28, 28), dtype=np.uint8))
    assert main([str(a) for a in ["degrade-dataset", "--in", tmp_path / "in.idx", "--rate",
                                  "0.3", "--seed", "5", "--out", tmp_path / "degraded.idx",
                                  "--masks", tmp_path / "masks.idx"]]) == 0
    noisy = np.clip(img + rng.normal(0, 30, img.shape), 0, 255).astype(np.uint8)
    write_pgm(tmp_path / "noisy.pgm", noisy)
    capsys.readouterr()
    assert main([str(a) for a in ["ssim", tmp_path / "in.pgm", tmp_path / "noisy.pgm"]]) == 0
    (tmp_path / "ssim.stdout").write_text(capsys.readouterr().out)
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in GOLDEN_COMMAND_SHA256}


def test_more_commands_match_golden_digests(tmp_path, capsys):
    assert command_outputs(tmp_path, capsys) == GOLDEN_COMMAND_SHA256


# Recorded with the three-field codec config, whose bits per block and
# payload groups were set per preset rather than derived.
GOLDEN_JUMP_SHA256 = {
    0: {
        "lib.fasta": "7d772c807c3de7270b4f3bd0db763ff4f3ece59046e07d3fb4a17a8163b94cde",
        "m.json": "4f349e7902a92d5450194fc1f82c4c5f1d65c0ecb20cbaf1fb332e1e007c4a83",
        "out.pgm": "9213d9f1eddff0ebf3dc35abb6eebfd6d08f084ab4a9c3245a4f662f90649c8d",
    },
    1: {
        "lib.fasta": "50c5938c155aa04055ff8a01af9924ed4f49cb322a334718d3a3391d422996ce",
        "m.json": "95f3e2f0212ae7069e0514a02d6dfc8570c817cc9cd970a3e2675c4c78e1d12f",
        "out.pgm": "9213d9f1eddff0ebf3dc35abb6eebfd6d08f084ab4a9c3245a4f662f90649c8d",
    },
}


def jump_outputs(tmp_path, jump: int) -> dict[str, str]:
    """``encode --jump`` of the fixed 80x60 image and ``decode --lib`` of
    the library it writes; the digest of each file written."""
    write_pgm(tmp_path / "in.pgm", _fixed_image())
    assert main([str(a) for a in ["encode", "--in", tmp_path / "in.pgm", "--jump", jump,
                                  "--out", tmp_path / "lib.fasta",
                                  "--manifest", tmp_path / "m.json"]]) == 0
    assert main([str(a) for a in ["decode", "--lib", tmp_path / "lib.fasta",
                                  "--manifest", tmp_path / "m.json",
                                  "--out", tmp_path / "out.pgm"]]) == 0
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in GOLDEN_JUMP_SHA256[jump]}


@pytest.mark.parametrize("jump", sorted(GOLDEN_JUMP_SHA256))
def test_jump_presets_match_golden_digests(tmp_path, jump):
    assert jump_outputs(tmp_path, jump) == GOLDEN_JUMP_SHA256[jump]


# Recorded with the column-by-column position walk, before the codec tables.
GOLDEN_JUMP_AGING_SHA256 = {
    0: {
        "aging95C.fastq": "81ef0348c8b7412c75a3a4163c25922003fa247d22c5d029eee87290d431339c",
        "aging95C.out": "6f761cc68e8ee4400a4fd39397fbdd52b69fed74e9dc0be3bd053017c30d139b",
        "aging95C.mask.pbm": "3a723c46f49664cf7de10709abef1204dfadc5c2a39bf2ebb6703331949aa49d",
    },
    1: {
        "aging95C.fastq": "498e2f31971c26f32f4063ef9ebb3daeec9b1b4446c649d4c9c3541dda29c89d",
        "aging95C.out": "8af3b85a8319d7c829cbb14364c4bb6682edeba48f1dec17c7ae9958100694bd",
        "aging95C.mask.pbm": "b4c3fce0c5c350d97a3899f521f858c650d4f2ef4a956d1804ca7b8bdb7a9fdd",
    },
}


def jump_aging_outputs(tmp_path, jump: int) -> dict[str, str]:
    """``encode --jump`` of the fixed 80x60 image, ``simulate --preset
    aging95C --seed 1`` of its library and ``decode --reads --mask`` of
    those reads; the digest of each file the last two write."""
    write_pgm(tmp_path / "in.pgm", _fixed_image())
    assert main([str(a) for a in ["encode", "--in", tmp_path / "in.pgm", "--jump", jump,
                                  "--out", tmp_path / "lib.fasta",
                                  "--manifest", tmp_path / "m.json"]]) == 0
    assert main([str(a) for a in ["simulate", "--lib", tmp_path / "lib.fasta", "--preset",
                                  "aging95C", "--seed", "1",
                                  "--out", tmp_path / "aging95C.fastq"]]) == 0
    assert main([str(a) for a in ["decode", "--reads", tmp_path / "aging95C.fastq",
                                  "--manifest", tmp_path / "m.json",
                                  "--out", tmp_path / "aging95C.out",
                                  "--mask", tmp_path / "aging95C.mask.pbm"]]) == 0
    return {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("aging95C.fastq", "aging95C.out", "aging95C.mask.pbm")}


@pytest.mark.parametrize("jump", sorted(GOLDEN_JUMP_AGING_SHA256))
def test_jump_presets_through_aging95C_match_golden_digests(tmp_path, jump):
    assert jump_aging_outputs(tmp_path, jump) == GOLDEN_JUMP_AGING_SHA256[jump]
