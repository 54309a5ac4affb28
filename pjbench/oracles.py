"""The benchmark's own reference computations and file readers.

Nothing here imports pjdna: outputs are judged against the generated
input, the format specifications and these independent computations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import linalg

# Gaussian-windowed SSIM (Wang et al. 2004) with the usual constants.
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

_ACGT = np.full(256, 255, np.uint8)
for _i, _ch in enumerate(b"ACGT"):
    _ACGT[_ch] = _i


def ssim(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Mean SSIM over all full windows of the last two axes.

    Returns a float for two images and one value per image for stacks.
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.shape != b.shape or min(a.shape[-2:]) < SSIM_WINDOW:
        raise ValueError(f"ssim needs equal shapes of at least {SSIM_WINDOW}^2")
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA**2))
    k /= k.sum()
    r = SSIM_WINDOW // 2

    def blur(img):
        out = ndimage.correlate1d(img, k, axis=-2, mode="constant")
        out = ndimage.correlate1d(out, k, axis=-1, mode="constant")
        return out[..., r:-r, r:-r]

    mu_a, mu_b = blur(a), blur(b)
    var_a = blur(a * a) - mu_a * mu_a
    var_b = blur(b * b) - mu_b * mu_b
    cov = blur(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    val = (num / den).mean(axis=(-2, -1))
    return float(val) if val.ndim == 0 else val


def harmonic_fill(img: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exact solution of the masked 4-neighbour Laplace equation.

    Each masked pixel equals the mean of its in-image neighbours, with the
    unmasked pixels fixed.  The system is symmetric positive definite unless
    every pixel is masked, in which case the answer is all zeros.
    """
    f = np.asarray(img, np.float64)
    m = np.asarray(mask, bool)
    out = np.where(m, 0.0, f)
    if not m.any() or m.all():
        return out
    h, w = f.shape
    unknown = -np.ones(h * w, np.int64)
    flat_m = m.ravel()
    unknown[flat_m] = np.arange(int(flat_m.sum()))
    grid = np.arange(h * w).reshape(h, w)
    degree = np.zeros((h, w))
    degree[1:] += 1
    degree[:-1] += 1
    degree[:, 1:] += 1
    degree[:, :-1] += 1
    n = int(flat_m.sum())
    rows, cols = [np.arange(n)], [np.arange(n)]
    vals = [degree.ravel()[flat_m]]
    rhs = np.zeros(n)
    for a, c in ((grid[1:], grid[:-1]), (grid[:-1], grid[1:]),
                 (grid[:, 1:], grid[:, :-1]), (grid[:, :-1], grid[:, 1:])):
        a, c = a.ravel(), c.ravel()
        a, c = a[flat_m[a]], c[flat_m[a]]
        inner = flat_m[c]
        rows.append(unknown[a[inner]])
        cols.append(unknown[c[inner]])
        vals.append(-np.ones(int(inner.sum())))
        np.add.at(rhs, unknown[a[~inner]], f.ravel()[c[~inner]])
    lap = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    out[m] = linalg.spsolve(lap, rhs)
    return out


def fill_error(filled: np.ndarray, img: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gray-level distance of a fill to the exact one at the masked pixels."""
    exact = harmonic_fill(img, mask)
    return np.abs(np.asarray(filled, np.float64)[mask] - exact[mask])


def _tiled(rows: np.ndarray, tile: int) -> np.ndarray:
    """(k, L) rows, or one flat row, -> (k, ceil(L / tile), tile), the last
    tile padded with its own first element so that padding never decides a
    test."""
    rows = np.atleast_2d(rows)
    k, length = rows.shape
    n = -(-length // tile)
    padded = np.empty((k, n * tile), rows.dtype)
    padded[:, :length] = rows
    padded[:, length:] = rows[:, (n - 1) * tile, None]
    return padded.reshape(k, n, tile)


def tiles_whole(mask_rows: np.ndarray, tile: int) -> bool:
    """True when, in every row, each ``tile``-long run is all set or all clear."""
    t = _tiled(np.asarray(mask_rows, bool), tile)
    return bool((t.all(axis=2) | ~t.any(axis=2)).all())


def tile_flags(mask_rows: np.ndarray, tile: int) -> np.ndarray:
    """(k, tiles) flags: whether each tile of each row is masked."""
    return _tiled(np.asarray(mask_rows, bool), tile)[:, :, 0]


def tiles_wrong(got_rows: np.ndarray, want_rows: np.ndarray, mask_rows: np.ndarray,
                tile: int) -> int:
    """Tiles outside the mask, the ones returned as recovered, that differ
    from the truth in any element."""
    differ = _tiled(np.asarray(got_rows) != np.asarray(want_rows), tile).any(axis=2)
    return int((differ & ~tile_flags(mask_rows, tile)).sum())


def within_binomial(k: int, n: int, p: float, sigmas: float = 5.0) -> bool:
    """Whether ``k`` successes of ``n`` lie within ``sigmas`` of ``n * p``."""
    return abs(k - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1e-9


# ---------------------------------------------------------------------------
# file readers, written from the format specifications
# ---------------------------------------------------------------------------

def _netpbm(path: str, magic: bytes, ntok: int) -> tuple[list[int], bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    toks, i = [], 2
    while len(toks) < ntok:
        while data[i:i + 1].isspace():
            i += 1
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        toks.append(int(data[i:j]))
        i = j
    return toks, data[i + 1:]


def read_pgm(path: str) -> np.ndarray:
    (w, h, maxval), raster = _netpbm(path, b"P5", 3)
    if maxval != 255 or len(raster) != w * h:
        raise ValueError(f"{path}: bad PGM raster")
    return np.frombuffer(raster, np.uint8).reshape(h, w)


def read_pbm(path: str) -> np.ndarray:
    (w, h), raster = _netpbm(path, b"P4", 2)
    row = (w + 7) // 8
    if len(raster) != row * h:
        raise ValueError(f"{path}: bad PBM raster")
    bits = np.unpackbits(np.frombuffer(raster, np.uint8).reshape(h, row), axis=1)
    return bits[:, :w].astype(bool)


def read_idx(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, n, rows, cols = np.frombuffer(data[:16], ">u4")
    if magic != 0x803 or len(data) != 16 + int(n) * int(rows) * int(cols):
        raise ValueError(f"{path}: bad IDX image stack")
    return np.frombuffer(data[16:], np.uint8).reshape(int(n), int(rows), int(cols))


def read_fasta(path: str) -> tuple[list[str], list[str]]:
    """(headers, sequences) of a FASTA file, joining wrapped sequence lines."""
    heads, seqs = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                heads.append(line[1:])
                seqs.append([])
            elif line:
                seqs[-1].append(line)
    return heads, ["".join(s) for s in seqs]


def fastq_sequences(path: str) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    return lines[1::4][: len(lines) // 4]


def code_matrix(seqs: list[str], length: int) -> np.ndarray:
    """(n, length) nucleotide codes 0..3, 255 outside ACGT; rows must share ``length``."""
    if not seqs:
        return np.zeros((0, length), np.uint8)
    buf = np.frombuffer("".join(seqs).encode("ascii"), np.uint8)
    if buf.size != len(seqs) * length:
        raise ValueError(f"sequences are not all {length} nt long")
    return _ACGT[buf].reshape(len(seqs), length)


def max_homopolymer(codes: np.ndarray) -> int:
    """Longest run of one nucleotide over all rows of a code matrix."""
    if codes.size == 0:
        return 0
    best = run = np.ones(codes.shape[0], np.int64)
    for j in range(1, codes.shape[1]):
        run = np.where(codes[:, j] == codes[:, j - 1], run + 1, 1)
        best = np.maximum(best, run)
    return int(best.max())
