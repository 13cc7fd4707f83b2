"""Experiment configuration: flat key = value files, fully validated.

The format is line-oriented: one ``key = value`` per line, ``#`` starts
a comment, arrays are bracketed comma lists (nested for tables), and
complex amplitudes are written like ``0.5+0.25i`` (whitespace anywhere).
Unknown keys are rejected and every problem is reported, not just the
first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

COMMANDS = (
    "discord",
    "witness-trajectory",
    "haar-average",
    "theorem-check",
    "lemma-check",
    "choi-check",
    "structured-average",
)

GLOBAL_KEYS = {"command", "d_S", "d_E", "seed", "output", "format", "workers"}
STATE_KEYS = {"pure", "probabilities", "random_rank"}
ENSEMBLE_KEYS = {"ensemble", "mean_spacing", "levels"}
TIME_KEYS = {"time_start", "time_stop", "time_steps"}

STATE_COMMANDS = {"discord", "witness-trajectory", "haar-average", "structured-average"}
ENSEMBLE_COMMANDS = {"witness-trajectory", "structured-average"}
TIME_COMMANDS = {"witness-trajectory", "structured-average"}
SAMPLE_COMMANDS = {"haar-average", "theorem-check", "lemma-check", "choi-check", "structured-average"}

_EXTRA_KEYS = {
    "discord": STATE_KEYS,
    "witness-trajectory": STATE_KEYS | ENSEMBLE_KEYS | TIME_KEYS,
    "haar-average": STATE_KEYS | {"n_samples"},
    "theorem-check": {"n_samples"},
    "lemma-check": {"n_samples"},
    "choi-check": {"n_samples"},
    "structured-average": STATE_KEYS | ENSEMBLE_KEYS | TIME_KEYS | {"n_samples", "spectrum_mode"},
}

ALL_KEYS = GLOBAL_KEYS | STATE_KEYS | ENSEMBLE_KEYS | TIME_KEYS | {"n_samples", "spectrum_mode"}

FORMATS = ("csv", "json")
SPECTRUM_MODES = ("annealed", "quenched")
ENSEMBLES = ("poisson", "gue", "explicit")
SEED_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description for every CLI command."""

    command: str
    d_s: int
    d_e: int
    seed: int
    pure: np.ndarray | None = None
    probabilities: np.ndarray | None = None
    random_rank: int | None = None
    ensemble_kind: str | None = None
    mean_spacing: float = 1.0
    explicit_levels: np.ndarray | None = None
    time_start: float | None = None
    time_stop: float | None = None
    time_steps: int | None = None
    n_samples: int | None = None
    output: str | None = None
    format: str = "json"
    workers: int | None = None
    spectrum_mode: str = "annealed"

    def with_overrides(
        self,
        seed: int | None = None,
        output: str | None = None,
        format: str | None = None,
    ) -> "ExperimentConfig":
        """Copy with the given fields replaced; a seed is range-checked as in a file."""
        updates: dict[str, Any] = {}
        if seed is not None:
            errors: list[str] = []
            _Collector({"seed": seed}, errors).get_int("seed", minimum=0, maximum=SEED_MAX)
            if errors:
                raise ConfigError(errors)
            updates["seed"] = seed
        if output is not None:
            updates["output"] = output
        if format is not None:
            updates["format"] = format
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        """JSON-safe echo of the experiment definition.

        Serialization and scheduling fields (output, format, workers) are
        left out: they must not influence the results payload, and the
        echo has to stay byte-identical across worker counts.
        """
        out: dict[str, Any] = {
            "command": self.command,
            "d_S": self.d_s,
            "d_E": self.d_e,
            "seed": self.seed,
        }
        if self.pure is not None:
            out["pure"] = [[float(z.real), float(z.imag)] for z in self.pure]
        if self.probabilities is not None:
            out["probabilities"] = [[float(v) for v in row] for row in self.probabilities]
        if self.random_rank is not None:
            out["random_rank"] = self.random_rank
        if self.ensemble_kind is not None:
            out["ensemble"] = self.ensemble_kind
            out["mean_spacing"] = self.mean_spacing
        if self.explicit_levels is not None:
            out["levels"] = [float(v) for v in self.explicit_levels]
        if self.time_steps is not None:
            out["time_start"] = self.time_start
            out["time_stop"] = self.time_stop
            out["time_steps"] = self.time_steps
        if self.n_samples is not None:
            out["n_samples"] = self.n_samples
        if self.command == "structured-average":
            out["spectrum_mode"] = self.spectrum_mode
        return out


# ---------------------------------------------------------------------------
# value parsing


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


# ---------------------------------------------------------------------------
# config assembly


class _Collector:
    def __init__(self, entries: dict, errors: list[str]):
        self.entries = entries
        self.errors = errors

    def error(self, key: str, message: str) -> None:
        self.errors.append(f"{key}: {message}")

    def get_int(self, key: str, minimum=None, maximum=None):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if not isinstance(value, int):
            self.error(key, f"expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.error(key, f"must be at least {minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.error(key, f"must be at most {maximum}, got {value}")
            return None
        return value

    def get_float(self, key: str):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(key, f"expected a real number, got {value!r}")
            return None
        value = float(value)
        if not np.isfinite(value):
            self.error(key, "must be finite")
            return None
        return value

    def get_choice(self, key: str, options):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if value not in options:
            self.error(key, f"must be one of {', '.join(options)}, got {value!r}")
            return None
        return value

    def get_amplitudes(self, key: str):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if not isinstance(value, list) or not value:
            self.error(key, "expected a nonempty bracket list of amplitudes")
            return None
        amps = []
        for item in value:
            if isinstance(item, (int, float, complex)) and not isinstance(item, bool):
                amps.append(complex(item))
            else:
                self.error(key, f"amplitude {item!r} is not a number")
                return None
        return np.asarray(amps, dtype=complex)

    def get_real_list(self, key: str):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if not isinstance(value, list) or not value:
            self.error(key, "expected a nonempty bracket list of real numbers")
            return None
        vals = []
        for item in value:
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                vals.append(float(item))
            else:
                self.error(key, f"entry {item!r} is not a real number")
                return None
        return np.asarray(vals, dtype=float)

    def get_table(self, key: str):
        if key not in self.entries:
            return None
        value = self.entries[key]
        if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
            self.error(key, "expected a nested bracket table [[...],[...]]")
            return None
        width = len(value[0])
        rows = []
        for row in value:
            if len(row) != width:
                self.error(key, "rows have unequal lengths")
                return None
            entries = []
            for item in row:
                if isinstance(item, (int, float)) and not isinstance(item, bool):
                    entries.append(float(item))
                else:
                    self.error(key, f"entry {item!r} is not a real number")
                    return None
            rows.append(entries)
        return np.asarray(rows, dtype=float)


def parse_config(text: str, command: str | None = None) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError with all problems.

    ``command`` is the CLI subcommand; a ``command`` key in the file must
    agree with it when both are present.
    """
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
            continue
        if key not in ALL_KEYS:
            errors.append(f"{key}: unknown key (line {lineno})")
            continue
        if key in entries:
            errors.append(f"{key}: duplicate key (line {lineno})")
            continue
        try:
            entries[key] = parse_value(raw_value)
        except ValueError as exc:
            errors.append(f"{key}: {exc} (line {lineno})")

    file_command = entries.get("command")
    if file_command is not None and file_command not in COMMANDS:
        errors.append(f"command: unknown command {file_command!r}")
        file_command = None
    if command is not None and command not in COMMANDS:
        errors.append(f"command: unknown command {command!r}")
        command = None
    if command is not None and file_command is not None and command != file_command:
        errors.append(
            f"command: config says {file_command!r} but {command!r} was requested"
        )
    cmd = command or file_command
    if cmd is None:
        if not any(e.startswith("command:") for e in errors):
            errors.append("command: missing")
        raise ConfigError(errors)

    allowed = GLOBAL_KEYS | _EXTRA_KEYS[cmd]
    for key in entries:
        if key not in allowed:
            errors.append(f"{key}: not used by command '{cmd}'")

    col = _Collector(entries, errors)
    d_s = col.get_int("d_S", minimum=1)
    d_e = col.get_int("d_E", minimum=1)
    seed = col.get_int("seed", minimum=0, maximum=SEED_MAX)
    for key, value in (("d_S", d_s), ("d_E", d_e), ("seed", seed)):
        if key not in entries:
            col.error(key, "required")
    n_samples = col.get_int("n_samples", minimum=2)
    if cmd in SAMPLE_COMMANDS and "n_samples" not in entries:
        col.error("n_samples", f"required by command '{cmd}'")
    workers = col.get_int("workers", minimum=1)
    fmt = col.get_choice("format", FORMATS) or "json"
    output = entries.get("output")
    if output is not None and not isinstance(output, str):
        output = str(output)
    spectrum_mode = col.get_choice("spectrum_mode", SPECTRUM_MODES) or "annealed"

    pure = col.get_amplitudes("pure")
    probabilities = col.get_table("probabilities")
    random_rank = col.get_int("random_rank", minimum=1)
    given_state_keys = sorted(STATE_KEYS & entries.keys())
    if cmd in STATE_COMMANDS:
        if not given_state_keys:
            col.error("state_spec", "give exactly one of pure, probabilities, random_rank")
        elif len(given_state_keys) > 1:
            col.error(
                "state_spec",
                f"ambiguous: {' and '.join(given_state_keys)} are mutually exclusive",
            )

    dim = d_s * d_e if (d_s and d_e) else None
    if pure is not None and dim is not None:
        if pure.size != dim:
            col.error("pure", f"needs {dim} amplitudes, got {pure.size}")
        else:
            norm = float(np.linalg.norm(pure))
            if abs(norm - 1.0) > 1e-10:
                col.error("pure", f"vector is not normalized (norm {norm!r})")
    if probabilities is not None and d_s and d_e:
        if probabilities.shape != (d_s, d_e):
            col.error(
                "probabilities",
                f"table must be {d_s} x {d_e}, got {probabilities.shape[0]} x {probabilities.shape[1]}",
            )
        elif np.any(probabilities < 0.0):
            col.error("probabilities", "entries must be nonnegative")
        elif abs(float(probabilities.sum()) - 1.0) > 1e-10:
            col.error("probabilities", f"entries sum to {float(probabilities.sum())!r}, expected 1")
    if random_rank is not None and dim is not None and random_rank > dim:
        col.error("random_rank", f"must be at most d_S*d_E = {dim}")

    ensemble_kind = col.get_choice("ensemble", ENSEMBLES)
    if cmd in ENSEMBLE_COMMANDS and "ensemble" not in entries:
        col.error("ensemble", f"required by command '{cmd}'")
    mean_spacing = col.get_float("mean_spacing")
    if mean_spacing is not None and mean_spacing <= 0.0:
        col.error("mean_spacing", "must be positive")
        mean_spacing = None
    levels = col.get_real_list("levels")
    if ensemble_kind == "explicit":
        if levels is None and "levels" not in entries:
            col.error("levels", "required by the explicit ensemble")
        elif levels is not None and dim is not None and levels.size != dim:
            col.error("levels", f"needs {dim} levels, got {levels.size}")
    elif levels is not None:
        col.error("levels", "only meaningful for the explicit ensemble")

    time_start = col.get_float("time_start")
    time_stop = col.get_float("time_stop")
    time_steps = col.get_int("time_steps", minimum=1)
    if cmd in TIME_COMMANDS:
        for key in ("time_start", "time_stop", "time_steps"):
            if key not in entries:
                col.error(key, f"required by command '{cmd}'")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        command=cmd,
        d_s=d_s,
        d_e=d_e,
        seed=seed,
        pure=pure,
        probabilities=probabilities,
        random_rank=random_rank,
        ensemble_kind=ensemble_kind,
        mean_spacing=1.0 if mean_spacing is None else mean_spacing,
        explicit_levels=levels,
        time_start=time_start,
        time_stop=time_stop,
        time_steps=time_steps,
        n_samples=n_samples,
        output=output,
        format=fmt,
        workers=workers,
        spectrum_mode=spectrum_mode,
    )
