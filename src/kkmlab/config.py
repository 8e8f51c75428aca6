"""Experiment configuration: an INI file with explicit sections.

Reproducible sweeps beat long flag strings, so every run is driven by a
config file; command-line flags override individual values.  The master
seed is mandatory (there is no wall-clock default) and any referenced data
file must exist at parse time.  Each section is a dataclass and each key
one of its fields: the annotation gives the cast, ``field(metadata=...)`` a
list parser and a range rule.  Unknown sections and keys are errors.
"""

from __future__ import annotations

import configparser
import functools
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError
from .kernels import KernelSpec
from .rademacher import _EXACT_CLASS_LIMIT
from .risk import BENCHMARK_SEED, BENCHMARK_SPREAD, METHOD_ALIASES, MPolicy

__all__ = ["ExperimentConfig", "load_config", "OUTPUT_DIR_ENV", "FLAG_KEYS"]

OUTPUT_DIR_ENV = "KKMLAB_OUTPUT_DIR"

# each CLI flag and the (section, key) it sets
FLAG_KEYS = {
    "seed": ("run", "master_seed"), "output_dir": ("run", "output_dir"),
    "method": ("cluster", "method"), "k": ("cluster", "k"), "m": ("nystrom", "m"),
    "trials": ("lab", "trials"), "methods": ("sweep", "methods"), "reps": ("sweep", "reps"),
}


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def _str_list(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _grid_list(raw: str) -> list[tuple[int, int]]:
    cells = [token.lower().split("x") for token in _str_list(raw)]
    return [(int(k), int(n)) for k, n in cells]


def _key(default, rule=None, parse=None):
    """A key's field: its default, ``(check, wording)`` range rule and list parser."""
    meta = {"rule": rule, "parse": parse}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _one_of(*allowed):
    return (lambda v: v in allowed, f"one of {', '.join(allowed)}")


_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")  # NaN fails too
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_AT_LEAST_2 = (lambda v: v >= 2, ">= 2")  # a sampled verdict needs a standard error
_ALL_AT_LEAST_1 = (lambda v: v and min(v) >= 1, "nonempty with every entry >= 1")
_EACH_METHOD = (lambda v: v and set(v) <= METHOD_ALIASES.keys(),
                f"nonempty with every entry one of {', '.join(METHOD_ALIASES)}")
# rad-check lists a cell's 2^k center sets, for Monte Carlo too, so k stops
# where exact enumeration does: at 2^16 sets
_GRID_K_MAX = _EXACT_CLASS_LIMIT.bit_length() - 1


@dataclass
class DataConfig:
    source: str = _key("synthetic", _one_of("inline", "csv", "synthetic"))
    inline: str = ""
    path: str = ""
    generator: str = _key("two_blobs", _one_of("two_blobs"))
    n: int = _key(64, _AT_LEAST_1)
    separation: float = 8.0
    spread: float = 1.0
    dim: int = _key(2, _AT_LEAST_1)


@dataclass
class ClusterConfig:
    k: int = _key(2, _AT_LEAST_1)
    method: str = _key("lloyd", _one_of("lloyd", "approx", "nystrom"))
    restarts: int = _key(10, _AT_LEAST_1)
    rounds: int | None = _key(None, _AT_LEAST_0)
    max_iter: int = _key(300, _AT_LEAST_1)
    rel_tol: float = _key(1e-9, _AT_LEAST_0)


@dataclass
class NystromConfig:
    m: int | None = _key(None, _AT_LEAST_1)
    mode: str = _key("fixed", _one_of(*MPolicy.MODES))
    c_scale: float = _key(1.0, (lambda v: 0 < v < np.inf, "positive and finite"))
    delta: float = _key(0.1, (lambda v: 0 < v < 1, "in (0, 1)"))
    jitter: float = _key(0.0, (lambda v: 0 <= v < np.inf, ">= 0 and finite"))


@dataclass
class LabConfig:
    trials: int = _key(10_000, _AT_LEAST_2)
    grid: list[tuple[int, int]] = _key(
        [(2, 4), (2, 8), (4, 8)],
        (lambda v: v and min(map(min, v)) >= 1 and max(k for k, _ in v) <= _GRID_K_MAX,
         f"nonempty with every k, n >= 1 and k <= {_GRID_K_MAX}"),
        _grid_list,
    )


@dataclass
class SweepConfig:
    n_values: list[int] = _key([64, 128, 256], _ALL_AT_LEAST_1, _int_list)
    k_values: list[int] = _key([2], _ALL_AT_LEAST_1, _int_list)
    methods: list[str] = _key(["exact", "nystrom"], _EACH_METHOD, _str_list)
    reps: int = _key(50, _AT_LEAST_2)
    m_mode: str = _key("general", _one_of(*MPolicy.MODES))
    m_fixed: int | None = _key(None, _AT_LEAST_1)
    benchmark_seed: int = _key(BENCHMARK_SEED, _AT_LEAST_0)
    benchmark_spread: float = BENCHMARK_SPREAD


@dataclass
class RunConfig:
    master_seed: int = field(metadata={"rule": _AT_LEAST_0})  # numpy seeds are >= 0
    output_dir: Path = Path("out")
    # runs are single-threaded; the key stays accepted for existing configs
    workers: int = _key(1, (lambda v: v == 1, "1"))


@dataclass
class ExperimentConfig:
    kernel: KernelSpec
    data: DataConfig
    cluster: ClusterConfig
    nystrom: NystromConfig
    lab: LabConfig
    sweep: SweepConfig
    run: RunConfig

    def load_points(self) -> np.ndarray:
        """Materialize the configured data source as an (n, d) array."""
        d = self.data
        if d.source == "inline":  # rows end at ";" or a newline; blank ones are not counted
            rows = d.inline.replace("\n", ";").split(";")
            rows = [r for r in rows if r.replace(",", " ").split()]
            return _parse_rows(rows, "inline", header=False)
        if d.source == "csv":  # a byte that is not UTF-8 reads as "\ufffd", a non-numeric value
            with open(d.path, encoding="utf-8", errors="replace") as fh:
                return _parse_rows(fh, d.path, header=True)
        from .datasets import two_blob_points  # the one synthetic generator

        rng = np.random.default_rng([self.run.master_seed, 0xDA7A])
        return two_blob_points(d.n, d.separation, d.spread, d.dim, rng)


def _parse_rows(lines, where: str, header: bool) -> np.ndarray:
    """Points from rows of numbers split by commas or spaces; blank rows are
    skipped.  A file (``header``) skips the non-numeric lines before its first
    numeric one, and its errors name file lines; inline errors name rows."""
    rows, unit = [], "line" if header else "row"
    for i, line in enumerate(lines, start=1):
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            if header and not rows:
                continue
            raise ConfigError(f"{where} {unit} {i} is not numeric: {exc}") from None
        if len(cells) != len(rows[0]):
            raise ConfigError(f"{where} {unit} {i} has {len(cells)} values, not {len(rows[0])}")
    if not rows:
        raise ConfigError(f"{where} has no numeric rows")
    return np.asarray(rows, dtype=float)


_hints = functools.cache(get_type_hints)  # the section classes never change


def _cast(hint):
    """The cast an annotation names; ``int | None`` casts as ``int``, and a
    bool reads only 1/true/yes/on and 0/false/no/off (a KeyError otherwise)."""
    t = next((a for a in get_args(hint) if a is not type(None)), hint)
    return (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]) if t is bool else t


def _section(cp: configparser.ConfigParser, name: str, cls):
    """Build one section from the keys the file gives; the defaults fill the rest."""
    known, hints = {f.name: f for f in fields(cls)}, _hints(cls)
    values = {}
    for key, raw in (cp[name] if cp.has_section(name) else {}).items():
        if key not in known:
            raise ConfigError(f"[{name}] unknown key {key!r}")
        meta, raw = known[key].metadata, raw.strip()
        try:
            values[key] = value = (meta.get("parse") or _cast(hints[key]))(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"[{name}] {key}: cannot parse {raw!r}") from None
        check, wording = meta.get("rule") or (None, None)
        if check and not check(value):
            raise ConfigError(f"[{name}] {key} must be {wording}, got {value}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _flag_help(flag: str) -> str:
    """A flag's help: the ``[section] key`` it overrides and that key's rule."""
    section, key = FLAG_KEYS[flag]
    meta = next(f.metadata for f in fields(_hints(ExperimentConfig)[section]) if f.name == key)
    text = f"override [{section}] {key}" + (f", {meta['rule'][1]}" if meta.get("rule") else "")
    return text + (": a fixed landmark count, so mode = fixed" if flag == "m" else "")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a config file, apply overrides, and validate the invariants.

    ``overrides`` maps ``FLAG_KEYS`` names to values, which beat
    ``KKMLAB_OUTPUT_DIR``, which beats the file; ``m`` also fixes the mode.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # "%" is literal, and "[DEFAULT]" is an ordinary (hence unknown) section
    cp = configparser.ConfigParser(interpolation=None, default_section="",
                                   inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {' '.join(str(exc).split())}") from None

    overrides = {flag: v for flag, v in (overrides or {}).items() if v is not None}
    if os.environ.get(OUTPUT_DIR_ENV):
        overrides = {"output_dir": os.environ[OUTPUT_DIR_ENV], **overrides}
    for flag, value in overrides.items():
        section, key = FLAG_KEYS[flag]
        cp.read_dict({section: {key: value}})
    if "m" in overrides:
        cp.read_dict({"nystrom": {"mode": "fixed"}})

    sections = _hints(ExperimentConfig)
    for name in cp.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
    if not cp.has_option("run", "master_seed"):
        raise ConfigError("[run] master_seed is required (no wall-clock default)")
    cfg = ExperimentConfig(**{name: _section(cp, name, cls) for name, cls in sections.items()})

    if cfg.data.source == "csv" and not Path(cfg.data.path).is_file():
        raise ConfigError(f"data file not found: {cfg.data.path}")
    k_max, n_min = max(cfg.sweep.k_values), min(cfg.sweep.n_values)
    if k_max > n_min:
        raise ConfigError(f"[sweep] k_values must not exceed min n_values {n_min}, got {k_max}")
    return cfg
