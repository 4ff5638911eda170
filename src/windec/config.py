"""Experiment configuration: JSON in, validated dataclasses out.

A config file mirrors :class:`ExperimentConfig`; CLI flags override file
values before parsing, so they are checked like the fields they replace.
Parsing reports the offending dotted field path on every error; field names
and defaults come from the dataclasses, and :mod:`generators` decides what a
dataset may ask for.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, WindecError
from .generators import IC_PARAMETER, InitialCondition, check_ic, check_request

_PREDICTOR_KINDS = ("identity", "upwind", "diffusion", "stencil", "global")
# Most float64 values a generated dataset may hold over all its frames (eval
# and sweep without --data hold them all in memory; gen holds two frames at a
# time but writes them all, so this caps the file; eval --data reads a file
# one or two frames at a time, so this does not bound a file it is given),
# and the most window values a stencil fit may gather (all of which a fit
# with fewer samples than features holds at once): 16 GiB, far above every
# config in the tests, scripts and benchmark, so that a config slip fails
# before the work instead of partway through it.
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


def _check_keys(mapping: dict, cls, where: str) -> None:
    unknown = set(mapping) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def _generatable(check, where: str, *args) -> None:
    """Run a :mod:`generators` check, reporting its refusal at ``where``."""
    try:
        check(*args)
    except WindecError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _nonnegative(value, where: str) -> float:
    v = _number(value, where)
    if v < 0:
        raise ConfigError(f"{where}: must be >= 0, got {v}")
    return v


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
    default = InitialCondition
    _check_keys(raw, default, where)
    kind = raw.get("kind", default.kind)
    if not isinstance(kind, str) or kind not in IC_PARAMETER:
        raise ConfigError(f"{where}.kind: unknown initial condition {kind!r}")
    widths = raw.get("width_fraction_range", default.width_fraction_range)
    if not isinstance(widths, (list, tuple)) or len(widths) != 2:
        raise ConfigError(f"{where}.width_fraction_range: expected [low, high]")
    widths = tuple(_number(v, f"{where}.width_fraction_range[{i}]", True)
                   for i, v in enumerate(widths))
    margin = _number(raw.get("center_margin", default.center_margin),
                     f"{where}.center_margin", True)
    if margin >= 0.5:
        raise ConfigError(f"{where}.center_margin: must be < 0.5, got {margin}")
    return InitialCondition(
        kind=kind,
        freq=None if "freq" not in raw else _number(raw["freq"], f"{where}.freq", True),
        n_bumps=None if "n_bumps" not in raw else _integer(raw["n_bumps"], f"{where}.n_bumps", 1),
        bandwidth=None
        if "bandwidth" not in raw
        else _number(raw["bandwidth"], f"{where}.bandwidth", True),
        base_freq=_number(raw.get("base_freq", default.base_freq), f"{where}.base_freq", True),
        envelope_sigma=None
        if raw.get("envelope_sigma") is None
        else _number(raw["envelope_sigma"], f"{where}.envelope_sigma", True),
        width_fraction_range=widths,
        center_margin=margin,
    )


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    extents: tuple[int, ...]
    dx: float
    dt: float
    batch: int = 1
    channels: int = 1
    c: tuple[float, ...] | None = None
    nu: float = 0.0
    alpha: float = 0.0
    boundary: str = "periodic"
    ic: InitialCondition = field(default_factory=InitialCondition)
    n_steps: int = 10
    seed: int = 0

    @classmethod
    def parse(cls, raw: dict, where: str = "dataset") -> "DatasetConfig":
        _check_keys(raw, cls, where)
        kind = _require(raw, "kind", where)
        extents = _require(raw, "extents", where)
        if not isinstance(extents, list) or not extents:
            raise ConfigError(f"{where}.extents: expected a non-empty list")
        extents = tuple(_integer(n, f"{where}.extents[{i}]", 1) for i, n in enumerate(extents))
        channels = _integer(raw.get("channels", cls.channels), f"{where}.channels", 1)
        boundary = raw.get("boundary", cls.boundary)
        _generatable(check_request, where, kind, len(extents), channels, boundary, raw)
        c = raw.get("c", cls.c)
        if c is not None:
            if not isinstance(c, list) or len(c) != len(extents):
                raise ConfigError(f"{where}.c: expected {len(extents)} speeds")
            c = tuple(_number(v, f"{where}.c[{i}]") for i, v in enumerate(c))
        batch = _integer(raw.get("batch", cls.batch), f"{where}.batch", 1)
        n_steps = _integer(raw.get("n_steps", cls.n_steps), f"{where}.n_steps", 0)
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
            nu=_nonnegative(raw.get("nu", cls.nu), f"{where}.nu"),
            alpha=_nonnegative(raw.get("alpha", cls.alpha), f"{where}.alpha"),
            boundary=boundary,
            ic=_parse_ic(raw.get("ic", {}), f"{where}.ic"),
            n_steps=n_steps,
            seed=_integer(raw.get("seed", cls.seed), f"{where}.seed", 0),
        )

    def check_ic(self) -> None:
        """Require the parameter of the ``ic`` kind before generating from it.

        Parsing leaves it optional because ``sweep`` replaces ``ic`` with one
        per frequency.
        """
        _generatable(check_ic, "dataset", self.ic)


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "stencil"
    ridge_lambda: float = 1e-8
    sample_budget: int = 4096

    @classmethod
    def parse(cls, raw: dict, where: str = "predictor") -> "PredictorConfig":
        _check_keys(raw, cls, where)
        kind = raw.get("kind", cls.kind)
        if kind not in _PREDICTOR_KINDS:
            raise ConfigError(f"{where}.kind: unknown predictor kind {kind!r}")
        return cls(
            kind=kind,
            ridge_lambda=_nonnegative(raw.get("ridge_lambda", cls.ridge_lambda),
                                      f"{where}.ridge_lambda"),
            sample_budget=_integer(raw.get("sample_budget", cls.sample_budget),
                                   f"{where}.sample_budget", 1),
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
        _check_keys(raw, cls, "top level")
        dataset_raw = _require(raw, "dataset", "top level")
        if not isinstance(dataset_raw, dict):
            raise ConfigError("dataset: expected an object")
        window = raw.get("window", cls.window)
        if window != "auto":
            if not isinstance(window, list) or not window:
                raise ConfigError('window: expected "auto" or a list of odd sizes')
            window = tuple(window_size(w, f"window[{i}]") for i, w in enumerate(window))
        out_dir = raw.get("out_dir", cls.out_dir)
        if not isinstance(out_dir, str):
            raise ConfigError(f"out_dir: expected a string, got {out_dir!r}")
        if not out_dir:
            raise ConfigError("out_dir: must not be empty")
        split = _number(raw.get("split_fraction", cls.split_fraction), "split_fraction")
        if not 0 < split < 1:
            raise ConfigError(f"split_fraction: must be in (0, 1), got {split}")
        return cls(
            dataset=DatasetConfig.parse(dataset_raw),
            window=window,
            predictor=PredictorConfig.parse(raw.get("predictor", {})),
            split_fraction=split,
            seed=_integer(raw.get("seed", cls.seed), "seed", 0),
            out_dir=out_dir,
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
