"""Command-line driver for reproducible witness experiments.

Usage: ``dephwit <command> --config <path> --output <path>
[--format csv|json]``, the options before or after the command. The
config file describes the experiment and the command line says where its
results go. The command-line parser is built on the first call of
``main`` and kept, one per process, so a caller that runs many
experiments in process pays for it once. The JSON results echo the
config under ``config``, as ``parse_config`` returns it; the JSON writer
turns its arrays into lists and complex amplitudes into ``[re, im]``
pairs. Every run is pinned by the file's seed: the master seed spawns
fixed substreams for state generation, operator draws, and the Monte
Carlo chunks, so identical configs produce byte-identical output files
for any worker count. Wall-clock timing goes to stderr only.
A ``structured-average`` run with a fixed spectrum has exact rows: the
explicit ensemble's levels, or in ``quenched`` mode one Poisson or GUE
spectrum drawn once and then used as an explicit one. Its ``n_samples``
is still required but unused, and the stderr line says so.
``lemma-check`` and ``choi-check`` sample only the traceless parts of
their operators A and B and add the identity parts exactly. The identity
parts therefore add no noise, and the error bars fall further below
those of sampling A and B whole the larger the trace weights Tr(A)/d
and Tr(B)/d are.

The Monte Carlo commands run on ``DEPHWIT_WORKERS`` threads, one when
the variable is unset. It has no upper limit, but a run starts at most
``os.cpu_count()`` threads.
Exit status: 0 on success, 1 when the run fails (out of memory
included), its results are not finite or its output cannot be written
(``DEPHWIT_WORKERS`` not a positive integer included), 2 when the config
cannot be read or is invalid; each problem is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import COMMANDS, ConfigError, parse_config
from .dephasing import CLASSICALITY_TOL, dephase_total, eigenbasis_of_marginal
from .linalg import dagger, hs_norm
from .randmat import RngHandle, SpectrumEnsemble, ginibre, sample_spectrum
from .states import BipartiteState, classical_state, from_pure, purity, random_mixed
from .witness import (
    choi_isotropic_check,
    haar_average_distance_sq,
    haar_witness_prefactor_sq,
    structured_average_grid,
    theorem_mc_check,
    twirl_constants,
    twirl_mc,
    witness_trajectory,
)

WORKERS_ENV = "DEPHWIT_WORKERS"
FORMATS = ("csv", "json")

# fixed substream layout under the master seed
_STATE_STREAM = 0
_OPERATOR_STREAM = 1
_MC_STREAM = 2


def _effective_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"{WORKERS_ENV} must be at least 1, got {value}")
        return value
    return 1


def _build_state(config: dict, rng: RngHandle) -> BipartiteState:
    if "pure" in config:
        return from_pure(config["pure"], config["d_S"], config["d_E"])
    if "probabilities" in config:
        return classical_state(config["probabilities"])
    return random_mixed(config["d_S"], config["d_E"], config["random_rank"], rng)


def _build_ensemble(config: dict) -> SpectrumEnsemble:
    return SpectrumEnsemble(config["ensemble"], config["d_S"] * config["d_E"], config.get("levels"))


def _time_grid(config: dict) -> np.ndarray:
    return np.linspace(config["time_start"], config["time_stop"], config["time_steps"])


def _dephased_pair(config: dict, rng: RngHandle):
    """The state, its dephased image, the degeneracy flag and the discord delta."""
    state = _build_state(config, rng)
    basis, degenerate = eigenbasis_of_marginal(state)
    if degenerate:
        print(
            "warning: reduced system state has a degenerate spectrum; "
            "delta depends on the basis the eigensolver picks inside the degenerate eigenspace\n"
            "warning: the tie is among nonzero eigenvalues; ties among zero eigenvalues leave delta "
            "basis-free and are not flagged",
            file=sys.stderr,
        )
    deph = dephase_total(state, basis)
    return state, deph, degenerate, float(hs_norm(state.rho - deph.rho))


def _safe_z(mean: float, std_error: float, reference: float) -> float:
    if std_error == 0.0:
        return 0.0
    return (mean - reference) / std_error


def _run_discord(config: dict, master: RngHandle, workers: int):
    state, deph, degenerate, delta = _dephased_pair(config, master.derive(_STATE_STREAM))
    return {
        "delta": delta,
        "delta_sq": delta**2,
        "purity": purity(state),
        "purity_dephased": purity(deph),
        "classical": int(delta <= CLASSICALITY_TOL),
        "degenerate_marginal": int(degenerate),
    }


def _run_witness_trajectory(config: dict, master: RngHandle, workers: int):
    state, deph, _, _ = _dephased_pair(config, master.derive(_STATE_STREAM))
    times = _time_grid(config)
    hs_distance, trace_distance = witness_trajectory(
        state, deph, _build_ensemble(config), times, master.derive(_OPERATOR_STREAM)
    )
    return [
        {"t": float(t), "hs_distance": float(h), "trace_distance": float(td)}
        for t, h, td in zip(times, hs_distance, trace_distance)
    ]


def _run_haar_average(config: dict, master: RngHandle, workers: int):
    state, deph, _, delta = _dephased_pair(config, master.derive(_STATE_STREAM))
    est = haar_average_distance_sq(
        state, deph, config["n_samples"], master.derive(_MC_STREAM), workers=workers
    )
    rms, rms_err = est.rms()
    predicted_sq = haar_witness_prefactor_sq(config["d_S"], config["d_E"]) * delta**2
    return {
        "mean_sq": est.mean,
        "std_error": est.std_error,
        "rms": rms,
        "rms_std_error": rms_err,
        "delta": delta,
        "predicted_mean_sq": predicted_sq,
        "predicted_rms": math.sqrt(predicted_sq),
        "z_score": _safe_z(est.mean, est.std_error, predicted_sq),
        "n_samples": est.n_samples,
    }


def _run_theorem_check(config: dict, master: RngHandle, workers: int):
    d = config["d_S"] * config["d_E"]
    g = ginibre(d, master.derive(_OPERATOR_STREAM))
    m = 0.5 * (g + dagger(g))
    est, rhs = theorem_mc_check(
        m, config["d_S"], config["d_E"], config["n_samples"], master.derive(_MC_STREAM), workers=workers
    )
    return {
        "mc_mean": est.mean,
        "mc_std_error": est.std_error,
        "rhs": rhs,
        "z_score": _safe_z(est.mean, est.std_error, rhs),
        "n_samples": est.n_samples,
    }


def _run_lemma_check(config: dict, master: RngHandle, workers: int):
    d = config["d_S"] * config["d_E"]
    ops = master.derive(_OPERATOR_STREAM)
    a_op = ginibre(d, ops)
    b_op = ginibre(d, ops)
    x = ginibre(d, ops)
    consts = twirl_constants(a_op, b_op)
    mean, stderr = twirl_mc(
        a_op, b_op, x, config["n_samples"], master.derive(_MC_STREAM),
        workers=workers, return_stderr=True,
    )
    exact = consts.a * np.trace(x) * np.eye(d) + consts.b * x
    deviation = np.abs(mean - exact)
    z = np.where(stderr > 0.0, deviation / stderr, 0.0)
    return {
        "a_real": consts.a.real,
        "a_imag": consts.a.imag,
        "b_real": consts.b.real,
        "b_imag": consts.b.imag,
        "max_abs_error": float(deviation.max()),
        "max_z_score": float(z.max()),
        "n_samples": config["n_samples"],
    }


def _run_choi_check(config: dict, master: RngHandle, workers: int):
    d = config["d_S"] * config["d_E"]
    ops = master.derive(_OPERATOR_STREAM)
    a_op = ginibre(d, ops)
    b_op = ginibre(d, ops)
    result = choi_isotropic_check(
        a_op, b_op, config["n_samples"], master.derive(_MC_STREAM), workers=workers
    )
    ratio = result.residual / result.mc_error if result.mc_error > 0.0 else 0.0
    return {
        "residual": result.residual,
        "mc_error": result.mc_error,
        "error_ratio": ratio,
        "a_real": result.constants.a.real,
        "a_imag": result.constants.a.imag,
        "b_real": result.constants.b.real,
        "b_imag": result.constants.b.imag,
        "n_samples": result.n_samples,
    }


def _run_structured_average(config: dict, master: RngHandle, workers: int):
    state, deph, _, delta = _dephased_pair(config, master.derive(_STATE_STREAM))
    ensemble = _build_ensemble(config)
    mc = master.derive(_MC_STREAM)
    if config["spectrum_mode"] == "quenched":
        # one spectrum from the Monte Carlo stream's substream 1, kept for every row
        ensemble = SpectrumEnsemble("explicit", ensemble.dim, sample_spectrum(ensemble, mc.derive(1)))
    times = _time_grid(config)
    estimates = structured_average_grid(state, deph, ensemble, times, config["n_samples"], mc, workers=workers)
    rows = []
    for t, est in zip(times, estimates):
        rms, rms_err = est.rms()
        rows.append(
            {
                "t": float(t),
                "mean_sq": est.mean,
                "std_error": est.std_error,
                "rms": rms,
                "rms_std_error": rms_err,
                "delta": delta,
                "ratio_to_delta": rms / delta if delta > 0.0 else 0.0,
            }
        )
    return rows


_RUNNERS = {
    "discord": _run_discord,
    "witness-trajectory": _run_witness_trajectory,
    "haar-average": _run_haar_average,
    "theorem-check": _run_theorem_check,
    "lemma-check": _run_lemma_check,
    "choi-check": _run_choi_check,
    "structured-average": _run_structured_average,
}


def run(config: dict) -> dict:
    """Execute one validated config and return the output record.

    The record holds only deterministic fields, so repeated runs of one
    config serialize byte-identically. Raises ValueError when a result
    is not finite, which neither output format can hold.
    """
    results = _RUNNERS[config["command"]](config, RngHandle(config["seed"]), _effective_workers())
    rows = [results] if isinstance(results, dict) else results
    bad = sorted({key for row in rows for key, value in row.items() if not math.isfinite(value)})
    if bad:
        raise ValueError(f"results are not finite: {', '.join(bad)}")
    return {
        "command": config["command"],
        "config": config,
        "version": __version__,
        "seed": config["seed"],
        "results": results,
    }


# ---------------------------------------------------------------------------
# serialization


def _format_number(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def render_csv(results: dict | list) -> str:
    """Tabular form: key,value rows for scalar payloads, a header plus one
    row per entry for trajectory payloads. Floats carry 17 significant
    digits so they round-trip exactly."""
    lines = []
    if isinstance(results, dict):
        lines.append("key,value")
        for key, value in results.items():
            lines.append(f"{key},{_format_number(value)}")
    else:
        keys = list(results[0].keys())
        lines.append(",".join(keys))
        for row in results:
            lines.append(",".join(_format_number(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _plain_array(value: np.ndarray) -> list:
    """The JSON form of an array in the config echo: a (nested) list, with
    complex amplitudes as [re, im] pairs."""
    if np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    return value.tolist()


def render_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True, allow_nan=False, default=_plain_array) + "\n"


def write_output(record: dict, path: str, fmt: str) -> None:
    text = render_json(record) if fmt == "json" else render_csv(record["results"])
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and kept: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="dephwit",
        description="Seeded witness experiments for nonclassical bipartite correlations.",
    )
    parser.add_argument("--version", action="version", version=f"dephwit {__version__}")
    parser.add_argument("command", choices=COMMANDS, metavar="command", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--output", required=True, help="path of the results file")
    parser.add_argument("--format", choices=FORMATS, default="json", help="results format (default json)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # utf-8-sig drops the byte-order mark some editors write
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, args.command)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        # an overflow surfaces as non-finite results, which `run` reports as one line
        with np.errstate(all="ignore"):
            record = run(config)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    duration = time.perf_counter() - started
    try:
        write_output(record, args.output, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    exact = config["command"] == "structured-average" and (
        config["ensemble"] == "explicit" or config["spectrum_mode"] == "quenched"
    )
    print(
        f"{config['command']}: wrote {args.output} in {duration:.3f}s (seed {config['seed']})"
        + ("; rows exact, n_samples unused" if exact else ""),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
