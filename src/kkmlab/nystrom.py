"""Landmark sampling, Nystrom embedding, and clustering on the embedded data.

A landmark set spans a subspace of the feature space; the embedding maps
every point to coordinates of its orthogonal projection onto that span,
together with the squared projection residual.  For any center c inside the
span, the Pythagorean split

    ||phi_i - c||^2 = ||z_i - z_c||^2 + residual_i

makes clustering with span-restricted centers an ordinary Euclidean problem
on the coordinates plus a fixed offset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import as_points, ensure_rng
from .clustering import Assignment, _lloyd, _onehot
from .errors import (
    EmptyCluster,
    InvalidDelta,
    KTooSmall,
    MissingXi,
    MTooLarge,
    SingularLandmarkBlockWarning,
)
from .kernels import GramMatrix, _rounding_margin
from .seeding import _BLOCK_ELEMENTS, _check_k, _dsq_centers

__all__ = [
    "LandmarkSet",
    "EmbeddedDataset",
    "sample_landmarks_uniform",
    "landmark_size",
    "nystrom_embed",
    "nystrom_kkmeans",
    "euclidean_lloyd",
    "euclidean_kmeanspp_labels",
    "landmark_coefficients",
]

_EIG_CUTOFF = 1e-10


@dataclass(frozen=True)
class LandmarkSet:
    """m distinct point indices, sorted ascending."""

    indices: np.ndarray
    m: int

    @classmethod
    def from_indices(cls, indices, n: int | None = None) -> "LandmarkSet":
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if idx.size == 0:
            raise ValueError("landmark set must be nonempty")
        if idx[0] < 0 or (n is not None and idx[-1] >= n):
            raise ValueError("landmark indices out of range")
        idx.setflags(write=False)
        return cls(indices=idx, m=int(idx.size))


@dataclass(frozen=True)
class EmbeddedDataset:
    """Projection coordinates (n x m), per-point squared residuals, and the
    symmetric map from coordinates back to landmark coefficient vectors."""

    coords: np.ndarray
    residuals: np.ndarray
    jitter: float
    coeff_map: np.ndarray
    rank: int


def sample_landmarks_uniform(n: int, m: int, rng=None) -> LandmarkSet:
    """m distinct indices sampled uniformly without replacement."""
    if not 1 <= m <= n:
        raise MTooLarge(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = ensure_rng(rng)
    idx = rng.choice(n, size=m, replace=False)
    return LandmarkSet.from_indices(idx, n=n)


def landmark_size(
    n: int,
    k: int,
    delta: float,
    xi: float | None = None,
    mode: str = "general",
    c_scale: float = 1.0,
) -> int:
    """Prescribed landmark count for a uniform sample, clamped to [1, n].

    Modes:
      * ``general``    ceil(c * sqrt(n) * log(1/delta) * min(k, xi) / sqrt(k))
      * ``eigendecay`` ceil(c * sqrt(n) * log(1/delta))
      * ``linear_k``   ceil(c * sqrt(n) * log(1/delta) * min(k, xi) / k)

    ``xi`` is the effective dimension; pass k when it is unknown.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must be in (0, 1), got {delta}")
    if k < 1:
        raise KTooSmall(f"k must be >= 1, got {k}")
    if xi is not None and not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    if mode not in ("general", "eigendecay", "linear_k"):
        raise ValueError(f"unknown landmark_size mode {mode!r}")
    if not c_scale > 0:
        raise ValueError("c_scale must be positive")
    base = c_scale * math.sqrt(n) * math.log(1.0 / delta)
    if mode == "eigendecay":
        raw = base
    else:
        if xi is None:
            raise MissingXi(f"mode={mode!r} needs xi (pass k when unknown)")
        raw = base * min(float(k), float(xi))
        raw /= math.sqrt(k) if mode == "general" else float(k)
    return int(math.ceil(min(max(raw, 1.0), n)))  # clamped first: raw may overflow to inf


def nystrom_embed(K: GramMatrix, L: LandmarkSet, jitter: float = 0.0) -> EmbeddedDataset:
    """Coordinates of every point's projection onto the landmark span.

    Uses the symmetric pseudo-inverse square root of the landmark block
    (eigenvalues below ``1e-10 * lambda_max`` are dropped) so rank-deficient
    landmark sets are handled; a rank collapse is reported as a
    :class:`SingularLandmarkBlockWarning`, not an error.
    """
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    idx = L.indices
    if idx[-1] >= K.n:
        raise ValueError("landmark indices out of range for this Gram matrix")
    Kmm = K.entries[np.ix_(idx, idx)]
    Knm = K.entries[:, idx]
    A = Kmm if jitter == 0 else Kmm + jitter * np.eye(L.m)

    w, U = np.linalg.eigh(A)
    cutoff = _EIG_CUTOFF * max(float(w[-1]), 0.0)
    keep = w > cutoff
    rank = int(np.count_nonzero(keep))
    if rank < L.m:
        warnings.warn(
            f"landmark block rank {rank} < m={L.m}; projection uses the "
            "stable eigenspace only",
            SingularLandmarkBlockWarning,
            stacklevel=2,
        )
    Uk = U[:, keep]
    inv_sqrt = (Uk / np.sqrt(w[keep])[None, :]) @ Uk.T

    Z = Knm @ inv_sqrt
    residuals = np.clip(K.diag - np.einsum("ij,ij->i", Z, Z), 0.0, None)
    Z.setflags(write=False)
    residuals.setflags(write=False)
    inv_sqrt.setflags(write=False)
    return EmbeddedDataset(
        coords=Z, residuals=residuals, jitter=float(jitter),
        coeff_map=inv_sqrt, rank=rank,
    )


def _zspace_cost(Z: np.ndarray, labels: np.ndarray, k: int) -> float:
    cost = 0.0
    for j in range(k):
        members = Z[labels == j]
        if members.shape[0] == 0:
            raise EmptyCluster(f"cluster {j} is empty")
        mean = members.mean(axis=0)
        cost += float(np.sum((members - mean) ** 2))
    return cost / Z.shape[0]


def _sq_dists(zz: np.ndarray, Z: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, k) squared distances ||z_i||^2 - 2 z_i . c_j + ||c_j||^2, unclipped,
    with zz the ||z_i||^2; (B, n, k) for a (B, k, d) stack of center sets."""
    return zz[:, None] - 2.0 * np.matmul(Z, C.swapaxes(-1, -2)) + np.einsum(
        "...ij,...ij->...i", C, C)[..., None, :]


def _zspace_dists(zz: np.ndarray, Z: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(B, n, k) squared distances to the coordinates' cluster means of each
    of the (B, n) labelings; empty clusters get +inf."""
    G, sizes = _onehot(labels, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        centers = np.matmul(G.swapaxes(1, 2), Z) / sizes[:, :, None]
    return np.clip(np.where(sizes[:, None, :] == 0, np.inf, _sq_dists(zz, Z, centers)), 0.0, None)


def _euclidean_lloyd(Z: np.ndarray, inits, max_iter: int = 300, rel_tol: float = 1e-9):
    """``euclidean_lloyd`` from each start in ``inits``, in one ``_lloyd`` batch."""
    k, zz = inits[0].k, np.einsum("ij,ij->i", Z, Z)

    def fit(labels):
        # costs from the coordinates' own means: summed from the distances they round differently
        return (np.array([_zspace_cost(Z, row, k) for row in labels]),
                lambda rows: _zspace_dists(zz, Z, labels[rows], k))

    return _lloyd(inits, fit, max_iter, rel_tol, lambda: _rounding_margin(len(Z), float(zz.max())))


def euclidean_lloyd(Z: np.ndarray, init: Assignment, max_iter: int = 300, rel_tol: float = 1e-9):
    """Plain Lloyd iteration on embedded coordinates: the kernel-space loop
    (``kernel_lloyd``) with centers restricted to the coordinates' means, and
    the rounding margin of the linear kernel on them."""
    Z = as_points(Z, "Z")
    if init.n != Z.shape[0]:
        raise ValueError("init and coordinates disagree on n")
    return _euclidean_lloyd(Z, [init], max_iter, rel_tol)[0]


def _euclidean_kmeanspp(Z: np.ndarray, k: int, rng, runs: int) -> np.ndarray:
    """(runs, n) labels of ``runs`` D^2 seedings on the coordinates, drawn up
    front from ``rng`` as ``runs`` calls of ``euclidean_kmeanspp_labels`` draw;
    the kernel-space sampler, so seeded runs line up across the geometries."""
    _check_k(k, len(Z))
    first, u = np.empty(runs, np.int64), np.empty((runs, k - 1))
    for b in range(runs):
        first[b], u[b] = rng.integers(len(Z), size=1)[0], rng.random(k - 1)
    step = max(1, _BLOCK_ELEMENTS // 4 // Z.size)  # runs a chunk; 4x larger raised peak RSS
    centers = _dsq_centers(lambda idx: np.concatenate([
        np.sum((Z[None] - Z[idx[s : s + step], None]) ** 2, axis=2)
        for s in range(0, len(idx), step)]).T, first, u)
    return np.argmin(_sq_dists(np.einsum("ij,ij->i", Z, Z), Z, Z[centers]), axis=-1)


def euclidean_kmeanspp_labels(Z: np.ndarray, k: int, rng) -> Assignment:
    """D^2-sampling seeding on Euclidean coordinates: ``_euclidean_kmeanspp``'s
    batch of one."""
    Z = as_points(Z, "Z")
    return Assignment.from_labels(_euclidean_kmeanspp(Z, k, ensure_rng(rng), 1)[0], k)


def nystrom_kkmeans(
    K: GramMatrix,
    L: LandmarkSet,
    k: int,
    rng=None,
    init_labels: Assignment | None = None,
):
    """Approximate kernel k-means with centers restricted to the landmark span.

    Runs Euclidean Lloyd on the embedded coordinates.  Returns the final
    assignment, the cost measured in the full feature space (projected cost
    plus the mean projection residual), and the projected cost alone.  Risk
    comparisons should use the in-space cost; the projected cost ignores the
    part of the data outside the landmark span.
    """
    if init_labels is not None and init_labels.n != K.n:
        raise ValueError("init and coordinates disagree on n")
    if init_labels is not None and init_labels.k != k:
        raise ValueError(f"init_labels has k={init_labels.k}, not k={k}")
    emb = nystrom_embed(K, L)
    if init_labels is None:
        init_labels = euclidean_kmeanspp_labels(emb.coords, k, rng)
    assignment, trace = euclidean_lloyd(emb.coords, init_labels)
    cost_projected = float(trace.per_iteration_cost[-1])
    cost_in_h = cost_projected + float(np.mean(emb.residuals))
    return assignment, cost_in_h, cost_projected


def landmark_coefficients(emb: EmbeddedDataset, a: Assignment) -> np.ndarray:
    """Cluster-mean centers expressed as coefficient vectors over the
    landmark points (k x m); row j reconstructs center j as a combination of
    landmark features."""
    if a.n != emb.coords.shape[0]:
        raise ValueError(f"assignment has n={a.n}, the embedding n={emb.coords.shape[0]}")
    G, sizes = _onehot(a.labels, a.k)
    if np.any(sizes == 0):
        raise EmptyCluster("cannot form a center for an empty cluster")
    z_centers = (G.T @ emb.coords) / sizes[:, None]
    return z_centers @ emb.coeff_map
