"""Experiment configuration: flat key = value files, fully validated.

The format is line-oriented: one ``key = value`` per line, ``#`` starts
a comment, arrays are bracketed comma lists (nested for tables), and
complex amplitudes are written like ``0.5+0.25i`` (whitespace anywhere).
A file describes one experiment: ``KEYS`` lists every key with its
check, default and the commands that accept or require it, and the
command itself comes from the caller (the CLI subcommand). Where the
results go, their format and the worker count are not experiment
settings and have no keys; nor has the level spacing, which is the unit
of ``time_start`` and ``time_stop`` (see ``SpectrumEnsemble``). Unknown
keys are rejected, and every problem is reported, in no fixed order.
``parse_config`` returns the experiment as a plain dict under the file's
key names; the CLI runs it and echoes it into the results file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .randmat import ENSEMBLE_KINDS
from .states import STATE_TOL

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
    """One file key: ``check`` returns the value or raises ValueError with
    the message; every command in ``commands`` accepts the key and, when
    ``required``, needs it; ``default`` stands in when the file omits it."""

    name: str
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


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


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
    Key("d_S", _integer(1), COMMANDS, required=True),
    Key("d_E", _integer(1), COMMANDS, required=True),
    Key("seed", _integer(0, SEED_MAX), COMMANDS, required=True),
    # the state: exactly one of these three
    Key("pure", _amplitudes, _STATE),
    Key("probabilities", _table, _STATE),
    Key("random_rank", _integer(1), _STATE),
    # the structured evolution and its time grid
    Key("ensemble", _choice(ENSEMBLE_KINDS), _EVOLUTION, required=True),
    Key("levels", _real_list, _EVOLUTION),
    Key("time_start", _real, _EVOLUTION, required=True),
    Key("time_stop", _real, _EVOLUTION, required=True),
    Key("time_steps", _integer(1), _EVOLUTION, required=True),
    # Monte Carlo
    Key("n_samples", _integer(2),
        ("haar-average", "theorem-check", "lemma-check", "choi-check", "structured-average"),
        required=True),
    Key("spectrum_mode", _choice(SPECTRUM_MODES), ("structured-average",), default="annealed"),
)

_KEY = {key.name: key for key in KEYS}


def parse_config(text: str, command: str) -> dict[str, Any]:
    """Parse and validate a config file for ``command``, one of
    ``COMMANDS``; raises ConfigError with all problems.

    Returns the experiment as a plain dict keyed by file key: ``command``
    plus each key the command accepts that the file sets or that has a
    default, its value as checked (lists as numpy arrays)."""
    errors: list[str] = []
    given: set[str] = set()  # every key a line sets, whether or not its value parses
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
        elif key in given:
            errors.append(f"{key}: duplicate key (line {lineno})")
        else:
            given.add(key)
            try:
                entries[key] = parse_value(raw_value)
            except ValueError as exc:
                errors.append(f"{key}: {exc} (line {lineno})")

    # a key that fails to parse or check keeps its default, which no check below reads
    values = {key.name: key.default for key in KEYS}
    for key in KEYS:
        if key.name not in given:
            if key.required and command in key.commands:
                by = "" if key.commands == COMMANDS else f" by command '{command}'"
                errors.append(f"{key.name}: required{by}")
            continue
        if command not in key.commands:
            errors.append(f"{key.name}: not used by command '{command}'")
        if key.name not in entries:
            continue
        try:
            values[key.name] = key.check(entries[key.name])
        except (ValueError, OverflowError) as exc:  # an integer too large for a float overflows
            errors.append(f"{key.name}: {exc}")

    d_s, d_e = values["d_S"], values["d_E"]
    dim = d_s * d_e if (d_s and d_e) else None
    states = sorted({"pure", "probabilities", "random_rank"} & given)
    if command in _STATE:
        if not states:
            errors.append("state_spec: give exactly one of pure, probabilities, random_rank")
        elif len(states) > 1:
            errors.append(f"state_spec: ambiguous: {' and '.join(states)} are mutually exclusive")

    pure, probabilities, levels = values["pure"], values["probabilities"], values["levels"]
    if pure is not None and dim is not None:
        if pure.size != dim:
            errors.append(f"pure: needs {dim} amplitudes, got {pure.size}")
        else:
            norm = float(np.linalg.norm(pure))
            if abs(norm - 1.0) > STATE_TOL:
                errors.append(f"pure: vector is not normalized (norm {norm!r})")
    if probabilities is not None and dim is not None:
        if probabilities.shape != (d_s, d_e):
            got = " x ".join(map(str, probabilities.shape))
            errors.append(f"probabilities: table must be {d_s} x {d_e}, got {got}")
        elif np.any(probabilities < 0.0):
            errors.append("probabilities: entries must be nonnegative")
        elif abs(float(probabilities.sum()) - 1.0) > STATE_TOL:
            total = float(probabilities.sum())
            errors.append(f"probabilities: entries sum to {total!r}, expected 1")
    if values["random_rank"] is not None and dim is not None and values["random_rank"] > dim:
        errors.append(f"random_rank: must be at most d_S*d_E = {dim}")

    if values["ensemble"] == "explicit":
        if "levels" not in given:
            errors.append("levels: required by the explicit ensemble")
        elif levels is not None and dim is not None and levels.size != dim:
            errors.append(f"levels: needs {dim} levels, got {levels.size}")
    elif "levels" in given:
        errors.append("levels: only meaningful for the explicit ensemble")
    start, stop = values["time_start"], values["time_stop"]
    if values["time_steps"] == 1 and None not in (start, stop) and stop != start:
        errors.append(f"time_steps: 1 keeps only time_start {start!r}, not time_stop {stop!r}")

    if errors:
        raise ConfigError(errors)
    return {"command": command} | {
        key.name: values[key.name] for key in KEYS if command in key.commands and values[key.name] is not None
    }
