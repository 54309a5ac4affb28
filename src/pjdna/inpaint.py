"""Deterministic gap repair: harmonic fill of masked pixels.

Masked pixels take the discrete harmonic interpolant of the unmasked ones:
each masked pixel equals the mean of its in-image 4-neighbours, with the
unmasked pixels held fixed.  That linear system (the masked 4-neighbour
Laplacian) is symmetric positive definite whenever some pixel is unmasked,
and is solved matrix-free by conjugate gradients (Shewchuk 1994, "An
Introduction to the Conjugate Gradient Method Without the Agonizing Pain"),
starting from zero and stopping when the residual falls to ``tol`` times
its starting norm or after ``max_iter`` iterations.  The result depends only
on the unmasked pixels, so repeating the call with the same mask reproduces
the same output.

The solver's fields live in a :class:`Scratch`, which the caller may keep
and hand to the next fill or SSIM score of an image of the same shape, so
that a sweep allocates its work buffers once per worker rather than once per
cell.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["inpaint"]


class Scratch:
    """Work buffers for images of one shape: seven float64 fields and one
    bool mask, each the size of the image padded by a one-pixel border.

    The harmonic fill and :class:`~pjdna.metrics.SsimReference` borrow them
    in turn and leave nothing in them that a later call reads, so one
    scratch serves any number of calls, but only one at a time: each thread
    needs its own.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        h, w = shape
        size = (h + 2) * (w + 2)
        self.fields = [np.empty(size) for _ in range(7)]
        self.mask = np.empty(size, bool)


def inpaint(
    img: np.ndarray,
    mask: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> np.ndarray:
    return _inpaint(img, mask, None, tol, max_iter)


def _inpaint(
    img: np.ndarray,
    mask: np.ndarray,
    scratch: Scratch | None,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> np.ndarray:
    """:func:`inpaint` with its fields in ``scratch``, or in a scratch of
    its own when that is None."""
    img = np.asarray(img)
    mask = np.asarray(mask, bool)
    if img.shape != mask.shape or img.ndim != 2:
        raise ShapeError(f"image {img.shape} and mask {mask.shape} must be equal 2-D shapes")
    out = img.astype(np.uint8, copy=True)
    if not mask.any():
        return out
    if mask.all() or img.size == 1:
        out[mask] = 0
        return out
    solution = _harmonic_solve(img, mask, tol, max_iter, scratch)
    np.rint(solution, out=solution)
    np.clip(solution, 0, 255, out=solution)
    np.copyto(out, solution, casting="unsafe", where=mask)
    return out


def _harmonic_solve(
    img: np.ndarray,
    mask: np.ndarray,
    tol: float,
    max_iter: int,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """The harmonic fill as an ``img``-shaped float array, zero off the mask.

    With ``u = x + v``, ``v`` the unmasked pixels and ``x`` zero off the
    mask, the masked rows of ``L u = 0`` (``L`` the 4-neighbour Laplacian)
    read ``A x = -L v``.  Fields live on the image padded by a zero border
    and flattened, so a pixel's neighbours sit at offsets -1, +1 and -/+ the
    row stride, and each stencil term is one pass over contiguous memory.

    The fields ``x``, ``r``, ``p`` and ``ap`` and the off-mask are the first
    four fields and the mask of ``scratch`` (a new one when None); the
    returned array is a view of ``x``, valid until the scratch is next used.
    The stencil multiplies by 4 everywhere and then rewrites the masked
    pixels on the image's edge with their smaller in-image neighbour counts,
    so no grid-sized degree array exists; off-mask cells are zeroed from the
    bool mask.
    """
    h, w = img.shape
    s = w + 2  # row stride of the padded grid
    if scratch is None:
        scratch = Scratch(img.shape)
    x, r, p, ap = scratch.fields[:4]
    off = scratch.mask

    def inner(field: np.ndarray) -> np.ndarray:
        return field.reshape(h + 2, s)[1:-1, 1:-1]

    off.fill(True)
    np.logical_not(mask, out=inner(off))
    edge, edge_deg = _masked_edge(mask, s)

    def laplacian(field: np.ndarray, out: np.ndarray) -> None:
        """``out = L field`` on the masked pixels and 0 elsewhere."""
        np.multiply(field, 4.0, out=out)
        out[edge] = field[edge] * edge_deg
        out[s:-s] -= field[: -2 * s]
        out[s:-s] -= field[2 * s :]
        out[1:-1] -= field[:-2]
        out[1:-1] -= field[2:]
        np.copyto(out, 0.0, where=off)

    x.fill(0.0)
    np.copyto(inner(x), img, where=inner(off))  # v, the unmasked pixels
    laplacian(x, r)
    np.negative(r, out=r)  # the residual of x = 0
    x.fill(0.0)
    np.copyto(p, r)
    rs = r @ r
    stop = tol * tol * rs
    for _ in range(max_iter):
        if rs <= stop:
            break
        laplacian(p, ap)
        alpha = rs / (p @ ap)
        ap *= alpha
        r -= ap
        np.multiply(p, alpha, out=ap)
        x += ap
        rs, rs_old = r @ r, rs
        p *= rs / rs_old
        p += r
    return inner(x)


def _masked_edge(mask: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded-grid indices (row stride ``s``) of the masked pixels on the
    image's edge, where a pixel has fewer than 4 in-image neighbours, and
    those counts.  A corner, or a row of a one-row image, is listed twice."""
    h, w = mask.shape
    rows, cols = np.arange(h), np.arange(w)
    i = np.concatenate([np.zeros_like(cols), np.full_like(cols, h - 1), rows, rows])
    j = np.concatenate([cols, cols, np.zeros_like(rows), np.full_like(rows, w - 1)])
    on = mask[i, j]
    i, j = i[on], j[on]
    deg = 4.0 - (i == 0) - (i == h - 1) - (j == 0) - (j == w - 1)
    return (i + 1) * s + j + 1, deg
