"""Synthetic point generators used by tests, demos, and the CLI."""

from __future__ import annotations

import numpy as np

from ._common import ensure_rng

__all__ = ["two_blob_points"]


def two_blob_points(
    n: int,
    separation: float = 10.0,
    spread: float = 1.0,
    dim: int = 2,
    rng=None,
) -> np.ndarray:
    """Two Gaussian blobs centered at +-(separation/2) e_1.

    The first ceil(n/2) points belong to the positive blob, the rest to the
    negative one, so blob membership is recoverable from the index.
    """
    rng = ensure_rng(rng)
    n_pos = (n + 1) // 2
    offs = np.zeros(dim)
    offs[0] = separation / 2.0
    pts = spread * rng.normal(size=(n, dim))
    pts[:n_pos] += offs
    pts[n_pos:] -= offs
    return pts
