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
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["inpaint"]


def inpaint(
    img: np.ndarray,
    mask: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> np.ndarray:
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
    solution = _harmonic_solve(img, mask, tol, max_iter)
    out[mask] = np.clip(np.rint(solution[mask]), 0, 255).astype(np.uint8)
    return out


def _harmonic_solve(img: np.ndarray, mask: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """The harmonic fill as an ``img``-shaped float array, zero off the mask.

    With ``u = x + v``, ``v`` the unmasked pixels and ``x`` zero off the
    mask, the masked rows of ``L u = 0`` (``L`` the 4-neighbour Laplacian)
    read ``A x = -L v``.  Fields live on the image padded by a zero border
    and flattened, so a pixel's neighbours sit at offsets -1, +1 and -/+ the
    row stride, each stencil term is one pass over contiguous memory, and
    every buffer is allocated once.
    """
    h, w = img.shape
    s = w + 2  # row stride of the padded grid

    def padded(values) -> np.ndarray:
        field = np.zeros((h + 2, s))
        field[1:-1, 1:-1] = values
        return field.ravel()

    deg = np.full((h, w), 4.0)  # in-image neighbours
    deg[0] -= 1.0
    deg[-1] -= 1.0
    deg[:, 0] -= 1.0
    deg[:, -1] -= 1.0
    deg = padded(deg)
    on = padded(mask)

    def laplacian(field: np.ndarray, out: np.ndarray) -> None:
        """``out = L field`` on the masked pixels and 0 elsewhere."""
        np.multiply(deg, field, out=out)
        out[s:-s] -= field[: -2 * s]
        out[s:-s] -= field[2 * s :]
        out[1:-1] -= field[:-2]
        out[1:-1] -= field[2:]
        out *= on

    r = np.empty_like(on)
    laplacian(padded(np.where(mask, 0.0, img)), r)
    np.negative(r, out=r)  # the residual of x = 0
    x = np.zeros_like(on)
    p = r.copy()
    ap = np.empty_like(on)
    step = np.empty_like(on)
    rs = r @ r
    stop = tol * tol * rs
    for _ in range(max_iter):
        if rs <= stop:
            break
        laplacian(p, ap)
        alpha = rs / (p @ ap)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        rs, rs_old = r @ r, rs
        p *= rs / rs_old
        p += r
    return x.reshape(h + 2, s)[1:-1, 1:-1]
