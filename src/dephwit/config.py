"""Experiment configuration: flat key = value files, fully validated.

The format is line-oriented: one ``key = value`` per line, ``#`` starts
a comment, arrays are bracketed comma lists (nested for tables), and
complex amplitudes are written like ``0.5+0.25i`` (whitespace anywhere).
A file describes one experiment: ``KEYS`` lists every key with its
check, default and the commands that accept or require it, and the
command itself comes from the caller (the CLI subcommand). Where the
results go, their format and the worker count are not experiment
settings and have no keys. Unknown keys are rejected, and every problem
is reported, in no fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .randmat import ENSEMBLE_KINDS

COMMANDS = (
    "discord",
    "witness-trajectory",
    "haar-average",
    "theorem-check",
    "lemma-check",
    "choi-check",
    "structured-average",
)

SPECTRUM_MODES = ("annealed", "quenched")
SEED_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description for every CLI command; see ``KEYS``."""

    command: str
    d_s: int
    d_e: int
    seed: int
    pure: np.ndarray | None
    probabilities: np.ndarray | None
    random_rank: int | None
    ensemble_kind: str | None
    mean_spacing: float
    explicit_levels: np.ndarray | None
    time_start: float | None
    time_stop: float | None
    time_steps: int | None
    n_samples: int | None
    spectrum_mode: str

    def to_dict(self) -> dict:
        """JSON-safe echo of the experiment definition: the command and
        each set key of ``KEYS`` that the command accepts
        (``mean_spacing`` only with the poisson and gue ensembles)."""
        out: dict[str, Any] = {"command": self.command}
        for key in KEYS:
            value = getattr(self, key.field)
            if isinstance(value, np.ndarray) and np.iscomplexobj(value):
                value = np.stack([value.real, value.imag], axis=-1)  # amplitudes as [re, im] pairs
            if key.name == "mean_spacing" and self.ensemble_kind == "explicit":
                continue  # explicit levels are used unscaled
            if self.command in key.commands and value is not None:
                out[key.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


# ---------------------------------------------------------------------------
# value parsing and the key table


def _split_top_level(body: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets")
    tail = "".join(current)
    if tail.strip() or parts:
        parts.append(tail)
    return parts


def _parse_scalar(token: str):
    token = token.strip()
    if not token:
        raise ValueError("empty value")
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    compact = "".join(token.split())
    if "i" in compact:
        try:
            return complex(compact.replace("i", "j"))
        except ValueError:
            pass
    return token


def parse_value(raw: str):
    """Parse one right-hand side: scalar, string, or (nested) bracket list."""
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ValueError("unterminated array")
        return [parse_value(tok) for tok in _split_top_level(raw[1:-1])]
    if "]" in raw:
        raise ValueError("unbalanced brackets")
    return _parse_scalar(raw)


@dataclass(frozen=True)
class Key:
    """One file key: the `ExperimentConfig` field it sets; ``check`` returns
    the value or raises ValueError with the message; every command in
    ``commands`` accepts the key and, when ``required``, needs it."""

    name: str
    field: str
    check: Callable[[Any], Any]
    commands: tuple[str, ...]
    required: bool = False
    default: Any = None


def _integer(minimum: int, maximum: int | None = None):
    def check(value):
        if not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be at most {maximum}, got {value}")
        return value

    return check


def _real(positive: bool = False):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a real number, got {value!r}")
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("must be finite")
        if positive and value <= 0.0:
            raise ValueError("must be positive")
        return value

    return check


def _choice(options: tuple[str, ...]):
    def check(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value

    return check


def _numbers(dtype, expected: str, table: bool = False):
    """Check of a list key, or of a table when ``table``: a nonempty list,
    equal row lengths, numbers (real unless ``dtype`` is complex), then
    all finite. A NaN passes the sum and norm checks and would fail only
    in the run, as a misleading "not Hermitian" error."""
    kinds, what, noun = (int, float), "entry", "a real number"
    if dtype is complex:
        kinds, what, noun = (int, float, complex), "amplitude", "a number"

    def check(value) -> np.ndarray:
        rows = value if table else [value]
        if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in rows):
            raise ValueError(f"expected {expected}")
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("rows have unequal lengths")
            for item in row:
                if isinstance(item, bool) or not isinstance(item, kinds):
                    raise ValueError(f"{what} {item!r} is not {noun}")
        array = np.asarray(rows, dtype=dtype)
        if not np.isfinite(array).all():
            bad = next(item for row in rows for item in row if not np.isfinite(item))
            raise ValueError(f"{what} {bad!r} is not finite")
        return array if table else array[0]

    return check


_amplitudes = _numbers(complex, "a nonempty bracket list of amplitudes")
_real_list = _numbers(float, "a nonempty bracket list of real numbers")
_table = _numbers(float, "a nested bracket table [[...],[...]]", table=True)

# the commands that take a state, and those that take a structured evolution
_STATE = ("discord", "witness-trajectory", "haar-average", "structured-average")
_EVOLUTION = ("witness-trajectory", "structured-average")

KEYS = (
    Key("d_S", "d_s", _integer(1), COMMANDS, required=True),
    Key("d_E", "d_e", _integer(1), COMMANDS, required=True),
    Key("seed", "seed", _integer(0, SEED_MAX), COMMANDS, required=True),
    # the state: exactly one of these three
    Key("pure", "pure", _amplitudes, _STATE),
    Key("probabilities", "probabilities", _table, _STATE),
    Key("random_rank", "random_rank", _integer(1), _STATE),
    # the structured evolution and its time grid
    Key("ensemble", "ensemble_kind", _choice(ENSEMBLE_KINDS), _EVOLUTION, required=True),
    Key("mean_spacing", "mean_spacing", _real(positive=True), _EVOLUTION, default=1.0),
    Key("levels", "explicit_levels", _real_list, _EVOLUTION),
    Key("time_start", "time_start", _real(), _EVOLUTION, required=True),
    Key("time_stop", "time_stop", _real(), _EVOLUTION, required=True),
    Key("time_steps", "time_steps", _integer(1), _EVOLUTION, required=True),
    # Monte Carlo; structured-average rows with a fixed spectrum (quenched, or
    # the explicit ensemble) are exact, and n_samples only labels them
    Key("n_samples", "n_samples", _integer(2),
        ("haar-average", "theorem-check", "lemma-check", "choi-check", "structured-average"),
        required=True),
    Key("spectrum_mode", "spectrum_mode", _choice(SPECTRUM_MODES), ("structured-average",),
        default="annealed"),
)

_KEY = {key.name: key for key in KEYS}


def parse_config(text: str, command: str) -> ExperimentConfig:
    """Parse and validate a config file for ``command``, one of
    ``COMMANDS``; raises ConfigError with all problems."""
    errors: list[str] = []
    entries: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            errors.append(f"line {lineno}: expected 'key = value'")
        elif key not in _KEY:
            errors.append(f"{key}: unknown key (line {lineno})")
        elif key in entries:
            errors.append(f"{key}: duplicate key (line {lineno})")
        else:
            try:
                entries[key] = parse_value(raw_value)
            except ValueError as exc:
                errors.append(f"{key}: {exc} (line {lineno})")

    # a key that fails its check keeps its default, which no check below reads
    values = {key.field: key.default for key in KEYS}
    for key in KEYS:
        if key.name not in entries:
            if key.required and command in key.commands:
                by = "" if key.commands == COMMANDS else f" by command '{command}'"
                errors.append(f"{key.name}: required{by}")
            continue
        if command not in key.commands:
            errors.append(f"{key.name}: not used by command '{command}'")
        try:
            values[key.field] = key.check(entries[key.name])
        except (ValueError, OverflowError) as exc:  # an integer too large for a float overflows
            errors.append(f"{key.name}: {exc}")

    config = ExperimentConfig(command=command, **values)
    dim = config.d_s * config.d_e if (config.d_s and config.d_e) else None
    given = sorted({"pure", "probabilities", "random_rank"} & entries.keys())
    if command in _STATE:
        if not given:
            errors.append("state_spec: give exactly one of pure, probabilities, random_rank")
        elif len(given) > 1:
            errors.append(f"state_spec: ambiguous: {' and '.join(given)} are mutually exclusive")

    pure, probabilities, levels = config.pure, config.probabilities, config.explicit_levels
    if pure is not None and dim is not None:
        if pure.size != dim:
            errors.append(f"pure: needs {dim} amplitudes, got {pure.size}")
        else:
            norm = float(np.linalg.norm(pure))
            if abs(norm - 1.0) > 1e-10:
                errors.append(f"pure: vector is not normalized (norm {norm!r})")
    if probabilities is not None and dim is not None:
        if probabilities.shape != (config.d_s, config.d_e):
            got = " x ".join(map(str, probabilities.shape))
            errors.append(f"probabilities: table must be {config.d_s} x {config.d_e}, got {got}")
        elif np.any(probabilities < 0.0):
            errors.append("probabilities: entries must be nonnegative")
        elif abs(float(probabilities.sum()) - 1.0) > 1e-10:
            total = float(probabilities.sum())
            errors.append(f"probabilities: entries sum to {total!r}, expected 1")
    if config.random_rank is not None and dim is not None and config.random_rank > dim:
        errors.append(f"random_rank: must be at most d_S*d_E = {dim}")

    if config.ensemble_kind == "explicit":
        if levels is None and "levels" not in entries:
            errors.append("levels: required by the explicit ensemble")
        elif levels is not None and dim is not None and levels.size != dim:
            errors.append(f"levels: needs {dim} levels, got {levels.size}")
        if "mean_spacing" in entries:
            errors.append("mean_spacing: only meaningful for the poisson and gue ensembles")
    elif levels is not None:
        errors.append("levels: only meaningful for the explicit ensemble")
    start, stop = config.time_start, config.time_stop
    if config.time_steps == 1 and None not in (start, stop) and stop != start:
        errors.append(f"time_steps: 1 keeps only time_start {start!r}, not time_stop {stop!r}")

    if errors:
        raise ConfigError(errors)
    return config
