"""Experiment configuration: JSON in, validated dataclasses out.

A config file mirrors :class:`ExperimentConfig`; CLI flags override file
values before parsing, so they are checked like the fields they replace.
Parsing reports the offending dotted field path on every error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .generators import BOUNDARIES, InitialCondition

_DATASET_KINDS = ("advection", "burgers", "heat")
_PREDICTOR_KINDS = ("identity", "upwind", "diffusion", "stencil", "global")
# the grid ranks and channel counts the heat and burgers steppers support
_RANKS = {"heat": (2, 3), "burgers": (2,)}
_CHANNELS = {"heat": 1, "burgers": 2}
# the parameter each initial-condition kind cannot generate without
_IC_PARAMETER = {"sine": "freq", "bumps": "n_bumps", "harmonics": "bandwidth"}
# Most float64 values a dataset may hold over all its frames: 16 GiB, far
# above every config in the tests, scripts and benchmark, so that a config
# slip fails at parse time instead of partway through generation.
MAX_DATASET_VALUES = 1 << 31


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: missing required field")
    return mapping[key]


def _number(value, where: str, positive: bool = False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(f"{where}: must be positive, got {v}")
    return v


def _integer(value, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def _nonnegative(value, where: str) -> float:
    v = _number(value, where)
    if v < 0:
        raise ConfigError(f"{where}: must be >= 0, got {v}")
    return v


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def window_size(value, where: str) -> int:
    """One window extent: an odd integer of at least 3 cells."""
    w = _integer(value, where, 3)
    if w % 2 == 0:
        raise ConfigError(f"{where}: sizes must be odd, got {w}")
    return w


def parse_number_list(text: str, where: str) -> list[int | float]:
    """Comma-separated numbers from a flag, integers kept as ``int``."""
    values = []
    for item in (v.strip() for v in text.split(",")):
        if not item:
            continue
        try:
            values.append(int(item))
        except ValueError:
            try:
                values.append(float(item))
            except ValueError:
                raise ConfigError(f"{where}: not a number: {item!r}") from None
    if not values:
        raise ConfigError(f"{where}: empty list")
    return values


def _parse_ic(raw: dict, where: str) -> InitialCondition:
    _check_keys(
        raw,
        {"kind", "freq", "n_bumps", "bandwidth", "base_freq", "envelope_sigma",
         "width_fraction_range", "center_margin"},
        where,
    )
    kind = raw.get("kind", "sine")
    if kind not in _IC_PARAMETER:
        raise ConfigError(f"{where}.kind: unknown initial condition {kind!r}")
    widths = raw.get("width_fraction_range", [0.05, 0.15])
    if not isinstance(widths, (list, tuple)) or len(widths) != 2:
        raise ConfigError(f"{where}.width_fraction_range: expected [low, high]")
    widths = tuple(
        _number(v, f"{where}.width_fraction_range[{i}]", True)
        for i, v in enumerate(widths)
    )
    margin = _number(raw.get("center_margin", 0.15), f"{where}.center_margin", True)
    if margin >= 0.5:
        raise ConfigError(f"{where}.center_margin: must be < 0.5, got {margin}")
    return InitialCondition(
        kind=kind,
        freq=None if "freq" not in raw else _number(raw["freq"], f"{where}.freq", True),
        n_bumps=None if "n_bumps" not in raw else _integer(raw["n_bumps"], f"{where}.n_bumps", 1),
        bandwidth=None
        if "bandwidth" not in raw
        else _number(raw["bandwidth"], f"{where}.bandwidth", True),
        base_freq=_number(raw.get("base_freq", 0.5), f"{where}.base_freq", True),
        envelope_sigma=None
        if raw.get("envelope_sigma") is None
        else _number(raw["envelope_sigma"], f"{where}.envelope_sigma", True),
        width_fraction_range=widths,
        center_margin=margin,
    )


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    batch: int
    extents: tuple[int, ...]
    channels: int
    dx: float
    dt: float
    c: tuple[float, ...] | None = None
    nu: float = 0.0
    alpha: float = 0.0
    boundary: str = "periodic"
    ic: InitialCondition = field(default_factory=lambda: InitialCondition("sine"))
    n_steps: int = 10
    seed: int = 0

    @classmethod
    def parse(cls, raw: dict, where: str = "dataset") -> "DatasetConfig":
        _check_keys(
            raw,
            {"kind", "batch", "extents", "channels", "dx", "dt", "c", "nu",
             "alpha", "boundary", "ic", "n_steps", "seed"},
            where,
        )
        kind = _require(raw, "kind", where)
        if kind not in _DATASET_KINDS:
            raise ConfigError(f"{where}.kind: unknown dataset kind {kind!r}")
        extents = _require(raw, "extents", where)
        if not isinstance(extents, list) or not extents:
            raise ConfigError(f"{where}.extents: expected a non-empty list")
        extents = tuple(_integer(n, f"{where}.extents[{i}]", 1) for i, n in enumerate(extents))
        if kind in _RANKS and len(extents) not in _RANKS[kind]:
            ranks = " or ".join(map(str, _RANKS[kind]))
            raise ConfigError(
                f"{where}.extents: {kind} datasets need {ranks} dimensions, got {len(extents)}"
            )
        channels = _integer(raw.get("channels", 1), f"{where}.channels", 1)
        if kind in _CHANNELS and channels != _CHANNELS[kind]:
            raise ConfigError(
                f"{where}.channels: {kind} datasets need {_CHANNELS[kind]}, got {channels}"
            )
        c = raw.get("c")
        if c is not None:
            if not isinstance(c, list) or len(c) != len(extents):
                raise ConfigError(f"{where}.c: expected {len(extents)} speeds")
            c = tuple(_number(v, f"{where}.c[{i}]") for i, v in enumerate(c))
        boundary = raw.get("boundary", "periodic")
        if boundary not in BOUNDARIES:
            raise ConfigError(f"{where}.boundary: unknown boundary {boundary!r}")
        batch = _integer(raw.get("batch", 1), f"{where}.batch", 1)
        n_steps = _integer(raw.get("n_steps", 10), f"{where}.n_steps", 0)
        if batch * math.prod(extents) * channels * (n_steps + 1) > MAX_DATASET_VALUES:
            raise ConfigError(
                f"{where}.batch * {where}.extents * {where}.channels * "
                f"({where}.n_steps + 1): more than {MAX_DATASET_VALUES} values"
            )
        return cls(
            kind=kind,
            batch=batch,
            extents=extents,
            channels=channels,
            dx=_number(_require(raw, "dx", where), f"{where}.dx", True),
            dt=_number(_require(raw, "dt", where), f"{where}.dt", True),
            c=c,
            nu=_nonnegative(raw.get("nu", 0.0), f"{where}.nu"),
            alpha=_nonnegative(raw.get("alpha", 0.0), f"{where}.alpha"),
            boundary=boundary,
            ic=_parse_ic(raw.get("ic", {}), f"{where}.ic"),
            n_steps=n_steps,
            seed=_integer(raw.get("seed", 0), f"{where}.seed", 0),
        )

    def check_ic(self) -> None:
        """Require the parameter of the ``ic`` kind before generating from it.

        Parsing leaves it optional because ``sweep`` replaces ``ic`` with one
        per frequency.
        """
        name = _IC_PARAMETER[self.ic.kind]
        if getattr(self.ic, name) is None:
            raise ConfigError(
                f"dataset.ic.{name}: missing required field for kind {self.ic.kind!r}"
            )


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "stencil"
    ridge_lambda: float = 1e-8
    sample_budget: int = 4096

    @classmethod
    def parse(cls, raw: dict, where: str = "predictor") -> "PredictorConfig":
        _check_keys(raw, {"kind", "ridge_lambda", "sample_budget"}, where)
        kind = raw.get("kind", "stencil")
        if kind not in _PREDICTOR_KINDS:
            raise ConfigError(f"{where}.kind: unknown predictor kind {kind!r}")
        return cls(
            kind=kind,
            ridge_lambda=_nonnegative(raw.get("ridge_lambda", 1e-8), f"{where}.ridge_lambda"),
            sample_budget=_integer(raw.get("sample_budget", 4096), f"{where}.sample_budget", 1),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    window: tuple[int, ...] | str = "auto"
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    split_fraction: float = 0.5
    seed: int = 0
    out_dir: str = "results"

    @classmethod
    def parse(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        _check_keys(
            raw,
            {"dataset", "window", "predictor", "split_fraction", "seed", "out_dir"},
            "top level",
        )
        dataset_raw = _require(raw, "dataset", "top level")
        if not isinstance(dataset_raw, dict):
            raise ConfigError("dataset: expected an object")
        window = raw.get("window", "auto")
        if window != "auto":
            if not isinstance(window, list) or not window:
                raise ConfigError('window: expected "auto" or a list of odd sizes')
            window = tuple(window_size(w, f"window[{i}]") for i, w in enumerate(window))
        split = _number(raw.get("split_fraction", 0.5), "split_fraction")
        if not 0 < split < 1:
            raise ConfigError(f"split_fraction: must be in (0, 1), got {split}")
        return cls(
            dataset=DatasetConfig.parse(dataset_raw),
            window=window,
            predictor=PredictorConfig.parse(raw.get("predictor", {})),
            split_fraction=split,
            seed=_integer(raw.get("seed", 0), "seed", 0),
            out_dir=_string(raw.get("out_dir", "results"), "out_dir"),
        )

    def snapshot(self) -> dict:
        """JSON-serializable copy of the effective configuration."""
        d = asdict(self)
        if isinstance(self.window, tuple):
            d["window"] = list(self.window)
        return d


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a JSON config file; ``overrides`` replace top-level fields first."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting past its stack
        raise ConfigError(f"{path}: {exc}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return ExperimentConfig.parse(raw)
