"""Experiment configuration: an INI file with explicit sections.

Reproducible sweeps beat long flag strings, so every run is driven by a
config file; command-line flags override individual values.  The master
seed is mandatory (there is no wall-clock default) and any referenced data
file must exist at parse time.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kernels import KernelSpec

__all__ = ["ExperimentConfig", "load_config", "OUTPUT_DIR_ENV"]

OUTPUT_DIR_ENV = "KKMLAB_OUTPUT_DIR"


@dataclass
class DataConfig:
    source: str = "synthetic"  # inline | csv | synthetic
    inline: str = ""
    path: str = ""
    generator: str = "two_blobs"
    n: int = 64
    separation: float = 8.0
    spread: float = 1.0
    dim: int = 2


@dataclass
class ClusterConfig:
    k: int = 2
    method: str = "lloyd"  # lloyd | approx | nystrom
    restarts: int = 10
    rounds: int | None = None
    max_iter: int = 300
    rel_tol: float = 1e-9


@dataclass
class NystromConfig:
    m: int | None = None
    mode: str = "fixed"  # fixed | general | eigendecay | linear_k
    c_scale: float = 1.0
    delta: float = 0.1
    jitter: float = 0.0


@dataclass
class LabConfig:
    trials: int = 10_000
    grid: list[tuple[int, int]] = field(default_factory=lambda: [(2, 4), (2, 8), (4, 8)])


@dataclass
class SweepConfig:
    n_values: list[int] = field(default_factory=lambda: [64, 128, 256])
    k_values: list[int] = field(default_factory=lambda: [2])
    methods: list[str] = field(default_factory=lambda: ["exact", "nystrom"])
    reps: int = 50
    m_mode: str = "general"
    m_fixed: int | None = None
    benchmark_seed: int | None = None
    benchmark_spread: float | None = None


@dataclass
class ExperimentConfig:
    kernel: KernelSpec
    data: DataConfig
    cluster: ClusterConfig
    nystrom: NystromConfig
    lab: LabConfig
    sweep: SweepConfig
    master_seed: int
    output_dir: Path

    def load_points(self) -> np.ndarray:
        """Materialize the configured data source as an (n, d) array."""
        d = self.data
        if d.source == "inline":
            rows = [r.replace(",", " ").split() for r in d.inline.replace("\n", ";").split(";")]
            pts = []
            for i, row in enumerate(filter(None, rows), start=1):
                try:
                    pts.append([float(v) for v in row])
                except ValueError as exc:
                    raise ConfigError(f"inline row {i} is not numeric: {exc}") from None
                if len(row) != len(pts[0]):
                    raise ConfigError(f"inline row {i} has {len(row)} values, not {len(pts[0])}")
            if not pts:
                raise ConfigError("inline data source is empty")
            return np.asarray(pts, dtype=float)
        if d.source == "csv":
            return _read_points_csv(d.path)
        if d.source == "synthetic":
            if d.generator == "two_blobs":
                from .datasets import two_blob_points

                rng = np.random.default_rng([self.master_seed, 0xDA7A])
                return two_blob_points(d.n, d.separation, d.spread, d.dim, rng)
            raise ConfigError(f"unknown synthetic generator {d.generator!r}")
        raise ConfigError(f"unknown data source {d.source!r}")


def _read_points_csv(path: str) -> np.ndarray:
    if not path:
        raise ConfigError("data source csv needs a path")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.replace(",", " ").split()
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if rows:
                    raise ConfigError(f"non-numeric row in {path}: {line!r}") from None
                continue  # header row
            if len(cells) != len(rows[0]):
                raise ConfigError(
                    f"line {lineno} of {path} has {len(cells)} values, not {len(rows[0])}"
                )
    if not rows:
        raise ConfigError(f"no numeric rows in {path}")
    return np.asarray(rows, dtype=float)


def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def _str_list(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _grid_list(raw: str) -> list[tuple[int, int]]:
    cells = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        k_str, n_str = token.lower().split("x")
        cells.append((int(k_str), int(n_str)))
    return cells


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config file, apply overrides, and validate the invariants."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    overrides = overrides or {}

    try:
        kernel = KernelSpec(
            family=_get(cp, "kernel", "family", str, "gaussian"),
            bandwidth=_get(cp, "kernel", "bandwidth", float, 1.0),
            degree=_get(cp, "kernel", "degree", int, 2),
            offset=_get(cp, "kernel", "offset", float, 0.0),
            normalize=_get(cp, "kernel", "normalize", bool, False),
        )
    except ValueError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc

    data = DataConfig(
        source=_get(cp, "data", "source", str, "synthetic"),
        inline=_get(cp, "data", "inline", str, ""),
        path=_get(cp, "data", "path", str, ""),
        generator=_get(cp, "data", "generator", str, "two_blobs"),
        n=_get(cp, "data", "n", int, 64),
        separation=_get(cp, "data", "separation", float, 8.0),
        spread=_get(cp, "data", "spread", float, 1.0),
        dim=_get(cp, "data", "dim", int, 2),
    )
    cluster = ClusterConfig(
        k=_get(cp, "cluster", "k", int, 2),
        method=_get(cp, "cluster", "method", str, "lloyd"),
        restarts=_get(cp, "cluster", "restarts", int, 10),
        rounds=_get(cp, "cluster", "rounds", int, None),
        max_iter=_get(cp, "cluster", "max_iter", int, 300),
        rel_tol=_get(cp, "cluster", "rel_tol", float, 1e-9),
    )
    nystrom = NystromConfig(
        m=_get(cp, "nystrom", "m", int, None),
        mode=_get(cp, "nystrom", "mode", str, "fixed"),
        c_scale=_get(cp, "nystrom", "c_scale", float, 1.0),
        delta=_get(cp, "nystrom", "delta", float, 0.1),
        jitter=_get(cp, "nystrom", "jitter", float, 0.0),
    )
    lab = LabConfig(
        trials=_get(cp, "lab", "trials", int, 10_000),
        grid=_get(cp, "lab", "grid", _grid_list, LabConfig().grid),
    )
    sweep = SweepConfig(
        n_values=_get(cp, "sweep", "n_values", _int_list, SweepConfig().n_values),
        k_values=_get(cp, "sweep", "k_values", _int_list, SweepConfig().k_values),
        methods=_get(cp, "sweep", "methods", _str_list, SweepConfig().methods),
        reps=_get(cp, "sweep", "reps", int, 50),
        m_mode=_get(cp, "sweep", "m_mode", str, "general"),
        m_fixed=_get(cp, "sweep", "m_fixed", int, None),
        benchmark_seed=_get(cp, "sweep", "benchmark_seed", int, None),
        benchmark_spread=_get(cp, "sweep", "benchmark_spread", float, None),
    )

    if "seed" in overrides:
        master_seed = int(overrides["seed"])
    else:
        if not cp.has_option("run", "master_seed"):
            raise ConfigError("[run] master_seed is required (no wall-clock default)")
        master_seed = _get(cp, "run", "master_seed", int, None)

    out = overrides.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or _get(
        cp, "run", "output_dir", str, "out"
    )
    # runs are single-threaded; the key stays accepted for existing configs
    workers = _get(cp, "run", "workers", int, 1)
    if workers != 1:
        raise ConfigError(f"[run] workers must be 1, got {workers}")

    for key in ("method", "m", "k", "trials", "reps"):
        if overrides.get(key) is not None:
            if key == "method":
                cluster.method = str(overrides[key])
            elif key == "m":
                nystrom.m = int(overrides[key])
                nystrom.mode = "fixed"
            elif key == "k":
                cluster.k = int(overrides[key])
            elif key == "trials":
                lab.trials = int(overrides[key])
            elif key == "reps":
                sweep.reps = int(overrides[key])
    if overrides.get("methods"):
        sweep.methods = _str_list(overrides["methods"])

    cfg = ExperimentConfig(
        kernel=kernel,
        data=data,
        cluster=cluster,
        nystrom=nystrom,
        lab=lab,
        sweep=sweep,
        master_seed=master_seed,
        output_dir=Path(out),
    )

    # parse-time invariants
    if cfg.data.source == "csv" and not Path(cfg.data.path).is_file():
        raise ConfigError(f"data file not found: {cfg.data.path}")
    if cfg.cluster.k < 1:
        raise ConfigError(f"[cluster] k must be >= 1, got {cfg.cluster.k}")
    if cfg.cluster.restarts < 1:
        raise ConfigError(f"[cluster] restarts must be >= 1, got {cfg.cluster.restarts}")
    if cfg.cluster.rounds is not None and cfg.cluster.rounds < 0:
        raise ConfigError(f"[cluster] rounds must be >= 0, got {cfg.cluster.rounds}")
    if cfg.cluster.max_iter < 1:
        raise ConfigError(f"[cluster] max_iter must be >= 1, got {cfg.cluster.max_iter}")
    if not cfg.cluster.rel_tol >= 0:  # NaN too
        raise ConfigError(f"[cluster] rel_tol must be >= 0, got {cfg.cluster.rel_tol}")
    if not cfg.nystrom.c_scale > 0:
        raise ConfigError(f"[nystrom] c_scale must be positive, got {cfg.nystrom.c_scale}")
    if not cfg.lab.grid:
        raise ConfigError("[lab] grid must be nonempty")
    if not cfg.sweep.n_values or not cfg.sweep.k_values or not cfg.sweep.methods:
        raise ConfigError("[sweep] grids and methods must be nonempty")
    return cfg
