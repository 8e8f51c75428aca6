"""Small shared helpers: point and RNG coercion, and CSV float formatting."""

import numpy as np

from .errors import NonFiniteInput


def as_points(X, name: str) -> np.ndarray:
    """``X`` as a nonempty, finite (n, d) float array; 1-d is n scalar points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput(f"non-finite values in {name}")
    return X


def ensure_rng(rng) -> np.random.Generator:
    """Accept a Generator, a seed (int or sequence of ints), or None."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def fmt12(x) -> str:
    """Serialize a float with 12 significant digits, trailing zeros trimmed."""
    return format(float(x), ".12g")


def write_float_csv(path, header: str, *columns, index: bool = False) -> None:
    """Write ``header`` and one line per row of the float ``columns`` (1-d
    arrays or 2-d blocks of columns side by side), each value as ``fmt12``
    writes it, led by the row number when ``index`` is set."""
    rows = np.column_stack(columns).astype(float, copy=False)
    template = ("%d," if index else "") + ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for s in range(0, len(rows), 256):  # blocks: no Python list of the whole table
            block = rows[s : s + 256].tolist()
            if index:
                block = [[s + i, *row] for i, row in enumerate(block)]
            fh.write("".join(template % tuple(row) for row in block))
