"""The benchmark's four workloads: inputs, operations and their checks.

A workload is a fixed list of operations, a *round*. Round k of a run
draws its inputs from ``np.random.default_rng([seed, k])``, so one seed
gives the same inputs, and every round has the same make-up. An operation
is one CLI run (`dephwit.cli.main`, in process) or one call of a public
Monte Carlo function; only the call itself is timed. Its results go to a
file under the round's directory, and the checks compare them with the
references in `reference.py` or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

Z_MAX = 6.0  # |z| limit of every Monte Carlo comparison
TOL = 1e-9  # absolute limit on exact quantities: delta, purities, trajectories
REL_TOL = 1e-9  # relative limit on closed forms and twirl constants
CHOI_RATIO = (0.8, 1.25)  # accepted range of residual / mc_error


@dataclass
class Op:
    """One operation of a round.

    ``call`` is the timed program call; ``finish`` turns its return value
    into the checked result (reading the CLI's results file, or writing
    one for a public call); ``check`` returns the failed checks, given the
    results of the round so far. ``rel_errors`` lists the relative
    standard errors of the op's Monte Carlo estimates, None for an exact op.
    """

    label: str
    call: Callable[[], object]
    finish: Callable[[object], object]
    check: Callable[[object, dict], list[str]]
    samples: int
    rel_errors: Callable[[object], list[float]] | None = None


class OpFailed(RuntimeError):
    """The program did not complete an operation."""


# ---------------------------------------------------------------------------
# CLI operations


def _amplitudes(psi: np.ndarray) -> str:
    terms = (f"{float(z.real)!r}{'-' if z.imag < 0 else '+'}{float(abs(z.imag))!r}i" for z in psi)
    return "[" + ", ".join(terms) + "]"


def _table(p: np.ndarray) -> str:
    return "[" + ", ".join("[" + ", ".join(repr(float(v)) for v in row) + "]" for row in p) + "]"


def _read_csv(path: Path) -> list[dict]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    keys = header.split(",")
    return [dict(zip(keys, map(float, row.split(",")))) for row in rows]


def cli_op(label, outdir: Path, command: str, entries: dict, fmt: str, samples: int, check, rel_errors=None) -> Op:
    """A CLI run of ``command`` on a config file holding ``entries``."""
    from dephwit import cli

    cfg = outdir / f"{label}.cfg"
    out = outdir / f"{label}.{fmt}"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--output", str(out), "--format", fmt]

    def call():
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"{command} exited {code}: {log.getvalue().strip()}")
        return code

    def finish(_):
        if fmt == "csv":
            return _read_csv(out)
        return json.loads(out.read_text(encoding="utf-8"))["results"]

    return Op(label, call, finish, check, samples, rel_errors)


def call_op(label, outdir: Path, fn, samples: int, serialize, check, rel_errors=None) -> Op:
    """A public-function call; ``serialize`` gives the results file's JSON."""
    path = outdir / f"{label}.json"

    def finish(value):
        path.write_text(json.dumps(serialize(value), sort_keys=True) + "\n", encoding="utf-8")
        return value

    return Op(label, fn, finish, check, samples, rel_errors)


def _complex_list(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _errors(*pairs) -> list[str]:
    return [message for ok, message in pairs if not ok]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _pure(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def _classical_table(rng: np.random.Generator, d_s: int, d_e: int) -> np.ndarray:
    # row weights (i + 1 + u/2), u in [0, 1), keep the marginal gaps at
    # least 1/(2 sum) apart: no degenerate marginal
    weights = rng.permutation(np.arange(1, d_s + 1) + 0.5 * rng.random(d_s))
    p = weights[:, None] * rng.dirichlet(np.ones(d_e), size=d_s)
    return p / p.sum()


def _rho(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# sweep


def _check_discord(kind: str, d_s: int, d_e: int, known=None):
    """Checks of a discord result; ``known`` is the input state when the
    benchmark made it (a pure vector or a probability table)."""
    d = d_s * d_e

    def check(r, _):
        delta, purity, deph = r["delta"], r["purity"], r["purity_dephased"]
        errs = _errors(
            (abs(r["delta_sq"] - (purity - deph)) <= TOL, "delta^2 != purity - purity_dephased"),
            (r["degenerate_marginal"] == 0, "input marginal reported degenerate"),
            (1.0 / d - TOL <= deph <= purity + TOL <= 1.0 + 2 * TOL, "purities out of order"),
        )
        if kind == "pure":
            delta_ref = ref.discord(_rho(known), d_s, d_e)
            errs += _errors(
                (abs(delta - delta_ref) <= TOL, f"delta {delta!r} != reference {delta_ref!r}"),
                (abs(delta - ref.concurrence(known, d_s, d_e) / math.sqrt(2)) <= TOL, "delta != C/sqrt 2"),
                (abs(purity - 1.0) <= TOL, "pure input with purity != 1"),
                (r["classical"] == 0, "entangled pure state reported classical"),
            )
        elif kind == "classical":
            delta_ref = ref.discord(np.diag(known.reshape(-1)).astype(complex), d_s, d_e)
            errs += _errors(
                (abs(delta - delta_ref) <= TOL, f"delta {delta!r} != reference {delta_ref!r}"),
                (abs(purity - float(np.sum(known**2))) <= TOL, "purity != sum p^2"),
                (r["classical"] == 1, "classical table not reported classical"),
            )
        else:
            errs += _errors((0.0 < r["delta_sq"] <= purity - 1.0 / d + TOL, "delta^2 outside (0, purity - 1/d]"))
        return errs

    return check


def _check_trajectory(d_s: int, d_e: int, times: np.ndarray, delta_of):
    """Checks of a trajectory; ``delta_of(round_results)`` gives the
    input's discord."""

    def check(rows, done):
        delta = delta_of(done)
        hs = np.array([row["hs_distance"] for row in rows])
        td = np.array([row["trace_distance"] for row in rows])
        return _errors(
            (np.array_equal([row["t"] for row in rows], times), "time grid differs from the config"),
            (hs[0] <= TOL and td[0] <= TOL, "nonzero witness at t = 0"),
            (np.all(hs <= math.sqrt(d_e) * delta + TOL), "hs above sqrt(d_E) delta"),
            (np.all(hs / 2 - TOL <= td), "trace distance below hs / 2"),
            (np.all(td <= math.sqrt(d_s) * hs / 2 + TOL), "trace distance above sqrt(d_S) hs / 2"),
        )

    return check


# (command, state, d_S, d_E): dimensions 4 to 30. Pure inputs keep
# d_S <= d_E, so their marginals have full rank; a random_rank trajectory
# follows a discord run of the same seed, which gives its delta.
SWEEP = [
    ("discord", "pure", 2, 2),
    ("discord", "pure", 2, 6),
    ("discord", "pure", 3, 5),
    ("discord", "pure", 4, 5),
    ("discord", "pure", 5, 6),
    ("discord", "classical", 2, 3),
    ("discord", "classical", 3, 4),
    ("discord", "classical", 4, 6),
    ("discord", "random", 2, 4),
    ("discord", "random", 3, 6),
    ("discord", "random", 4, 7),
    ("witness-trajectory", "pure", 3, 4),
    ("witness-trajectory", "classical", 2, 5),
    ("discord", "random", 2, 8),
    ("witness-trajectory", "random", 2, 8),
]
SWEEP_WARMUP = [("discord", "pure", 2, 2), ("witness-trajectory", "pure", 2, 2)]
TRAJECTORY_STOP = 2.0
TRAJECTORY_STEPS = 8
RANDOM_RANK = 3


def sweep_round(rng: np.random.Generator, outdir: Path, plan=SWEEP) -> list[Op]:
    ops = []
    seed = None
    for i, (command, kind, d_s, d_e) in enumerate(plan):
        label = f"{i:02d}-{command}-{kind}-{d_s}x{d_e}"
        # a random_rank trajectory reuses the seed of the discord run before it
        if not (kind == "random" and command == "witness-trajectory"):
            seed = _seed(rng)
        entries = {"d_S": d_s, "d_E": d_e, "seed": seed}
        known = None
        if kind == "pure":
            known = _pure(rng, d_s * d_e)
            entries["pure"] = _amplitudes(known)
        elif kind == "classical":
            known = _classical_table(rng, d_s, d_e)
            entries["probabilities"] = _table(known)
        else:
            entries["random_rank"] = RANDOM_RANK
        if command == "discord":
            ops.append(cli_op(label, outdir, command, entries, "json", 1, _check_discord(kind, d_s, d_e, known)))
            continue
        times = np.linspace(0.0, TRAJECTORY_STOP, TRAJECTORY_STEPS)
        entries.update(
            ensemble="poisson" if kind == "classical" else "gue",
            time_start=0.0,
            time_stop=TRAJECTORY_STOP,
            time_steps=TRAJECTORY_STEPS,
        )
        if kind == "pure":
            delta = ref.discord(_rho(known), d_s, d_e)
            delta_of = lambda done, delta=delta: delta
        elif kind == "classical":
            delta_of = lambda done: 0.0
        else:
            previous = ops[-1].label
            delta_of = lambda done, previous=previous: done[previous]["delta"]
        check = _check_trajectory(d_s, d_e, times, delta_of)
        ops.append(cli_op(label, outdir, command, entries, "csv", TRAJECTORY_STEPS, check))
    return ops


# ---------------------------------------------------------------------------
# haar-mc


HAAR_DIMS = (2, 8)  # haar-average: a pure state, d_S <= d_E
THEOREM_DIMS = (4, 4)
HAAR_SAMPLES = 10_000


def haar_round(rng: np.random.Generator, outdir: Path, n: int = HAAR_SAMPLES) -> list[Op]:
    from dephwit import RngHandle, witness

    d_s, d_e = HAAR_DIMS
    psi = _pure(rng, d_s * d_e)
    rho = _rho(psi)
    m = rho - ref.dephase(rho, d_s, d_e)[0]
    expected = ref.haar_mean_sq(m, d_s, d_e)
    delta = ref.discord(rho, d_s, d_e)

    def check_average(r, _):
        z = ref.z_score(r["mean_sq"], r["std_error"], expected)
        return _errors(
            (abs(r["delta"] - delta) <= TOL, f"delta {r['delta']!r} != reference {delta!r}"),
            (abs(r["predicted_mean_sq"] - expected) <= REL_TOL * expected, "predicted mean != closed form"),
            (abs(z) <= Z_MAX, f"haar-average z = {z:.2f} against the closed form"),
            (r["n_samples"] == n, "sample count differs from the config"),
        )

    entries = {"d_S": d_s, "d_E": d_e, "seed": _seed(rng), "pure": _amplitudes(psi), "n_samples": n}
    average = cli_op(
        "haar-average", outdir, "haar-average", entries, "json", n, check_average,
        lambda r: [r["std_error"] / r["mean_sq"]],
    )

    t_s, t_e = THEOREM_DIMS
    d = t_s * t_e
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = (g + g.conj().T) / 2 + np.eye(d)  # traced, so both terms of the closed form count
    closed = ref.haar_mean_sq(op, t_s, t_e)
    handle = RngHandle(_seed(rng))

    def check_theorem(value, _):
        est, rhs = value
        z = ref.z_score(est.mean, est.std_error, closed)
        return _errors(
            (abs(rhs - closed) <= REL_TOL * closed, f"theorem_rhs {rhs!r} != closed form {closed!r}"),
            (abs(z) <= Z_MAX, f"theorem_mc_check z = {z:.2f} against the closed form"),
            (est.n_samples == n, "sample count differs from the request"),
        )

    theorem = call_op(
        "theorem-check", outdir,
        lambda: witness.theorem_mc_check(op, t_s, t_e, n, handle, workers=1), n,
        lambda v: {"mean": v[0].mean, "std_error": v[0].std_error, "n_samples": v[0].n_samples, "rhs": v[1]},
        check_theorem, lambda v: [v[0].std_error / v[0].mean],
    )
    return [average, theorem]


# ---------------------------------------------------------------------------
# structured


STRUCTURED_DIMS = (2, 4)
STRUCTURED_SAMPLES = 4000
GUE_STEPS = 7  # t = 0, 0.5, ..., 3
POISSON_STEPS = 4  # t = 0, 1, 2, 3
TIME_STOP = 3.0
REFERENCE_ROWS = (2, 6)  # GUE rows checked against the benchmark's own Monte Carlo


def _structured_rel_errors(rows):
    return [row["std_error"] / row["mean_sq"] for row in rows if row["t"] != 0.0]


def _check_structured_rows(rows, d_e, delta, steps):
    zero = rows[0]
    return _errors(
        (len(rows) == steps, "row count differs from time_steps"),
        (zero["t"] == 0.0 and zero["mean_sq"] == 0.0 and zero["std_error"] == 0.0, "t = 0 row is not exactly 0"),
        (all(0.0 <= row["mean_sq"] <= d_e * delta**2 * (1 + REL_TOL) for row in rows), "mean_sq outside [0, d_E delta^2]"),
    )


def structured_round(rng: np.random.Generator, outdir: Path, n: int = STRUCTURED_SAMPLES, steps=(GUE_STEPS, POISSON_STEPS), ref_rows=REFERENCE_ROWS) -> list[Op]:
    d_s, d_e = STRUCTURED_DIMS
    psi = _pure(rng, d_s * d_e)
    rho = _rho(psi)
    m = rho - ref.dephase(rho, d_s, d_e)[0]
    delta = ref.discord(rho, d_s, d_e)
    ref_rng = np.random.default_rng(rng.integers(0, 2**63))
    gue_steps, poisson_steps = steps

    def check_gue(rows, _):
        errs = _check_structured_rows(rows, d_e, delta, gue_steps)
        errs += _errors((all(abs(row["delta"] - delta) <= TOL for row in rows), "delta != reference"))
        for i in ref_rows:
            row = rows[i]
            mean, err = ref.structured_mean_sq(m, d_s, d_e, row["t"], n, ref_rng)
            z = ref.z_score(row["mean_sq"], row["std_error"], mean, err)
            errs += _errors((abs(z) <= Z_MAX, f"GUE t = {row['t']}: z = {z:.2f} against the reference Monte Carlo"))
        return errs

    gue = cli_op(
        "structured-gue", outdir, "structured-average",
        {"d_S": d_s, "d_E": d_e, "seed": _seed(rng), "pure": _amplitudes(psi), "ensemble": "gue",
         "spectrum_mode": "annealed", "time_start": 0.0, "time_stop": TIME_STOP,
         "time_steps": gue_steps, "n_samples": n},
        "json", n * (gue_steps - 1), check_gue, _structured_rel_errors,
    )

    def check_poisson(rows, _):
        delta_p = rows[0]["delta"]
        return _check_structured_rows(rows, d_e, delta_p, poisson_steps) + _errors(
            (delta_p > 0.0 and all(row["delta"] == delta_p for row in rows), "delta not constant and positive"),
        )

    poisson = cli_op(
        "structured-poisson", outdir, "structured-average",
        {"d_S": d_s, "d_E": d_e, "seed": _seed(rng), "random_rank": RANDOM_RANK, "ensemble": "poisson",
         "spectrum_mode": "quenched", "time_start": 0.0, "time_stop": TIME_STOP,
         "time_steps": poisson_steps, "n_samples": n},
        "json", n * (poisson_steps - 1), check_poisson, _structured_rel_errors,
    )
    return [gue, poisson]


# ---------------------------------------------------------------------------
# twirl-choi


TWIRL_DIM = 9
TWIRL_SAMPLES = 8192
CHOI_SAMPLES = 2048
WORKERS = 2


def twirl_round(rng: np.random.Generator, outdir: Path, d: int = TWIRL_DIM, n=(TWIRL_SAMPLES, CHOI_SAMPLES)) -> list[Op]:
    from dephwit import RngHandle, witness

    # A and B positive (Wishart), so b, the weight of X in the twirl, stays
    # near Tr A Tr B / d^2 and the relative errors do not swing with the draw
    g_a, g_b, x = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3))
    a_op, b_op = g_a @ g_a.conj().T / (2 * d), g_b @ g_b.conj().T / (2 * d)
    a, b = ref.twirl_constants(a_op, b_op)
    exact = a * np.trace(x) * np.eye(d) + b * x
    iso_norm = float(np.linalg.norm(ref.isotropic_choi(a, b, d)))
    n_twirl, n_choi = n
    twirl_rng, choi_rng = RngHandle(_seed(rng)), RngHandle(_seed(rng))

    def check_twirl(value, _):
        mean, stderr = value
        z = float(np.max(np.abs(mean - exact) / stderr))
        return _errors((z <= Z_MAX, f"twirl_mc max entrywise z = {z:.2f} against a Tr(X) 1 + b X"))

    twirl = call_op(
        "twirl", outdir,
        lambda: witness.twirl_mc(a_op, b_op, x, n_twirl, twirl_rng, workers=WORKERS, return_stderr=True),
        n_twirl, lambda v: {"mean": _complex_list(v[0]), "std_error": v[1].tolist()},
        check_twirl, lambda v: [float(np.linalg.norm(v[1]) / np.linalg.norm(v[0]))],
    )

    def check_choi(r, _):
        ratio = r.residual / r.mc_error
        close = abs(r.constants.a - a) <= REL_TOL * max(1.0, abs(a)) and abs(r.constants.b - b) <= REL_TOL * max(1.0, abs(b))
        return _errors(
            (CHOI_RATIO[0] <= ratio <= CHOI_RATIO[1], f"choi residual / mc_error = {ratio:.3f}"),
            (close, "choi twirl constants differ from the reference"),
            (r.n_samples == n_choi, "sample count differs from the request"),
        )

    choi = call_op(
        "choi", outdir,
        lambda: witness.choi_isotropic_check(a_op, b_op, n_choi, choi_rng, workers=WORKERS),
        n_choi,
        lambda r: {"residual": r.residual, "mc_error": r.mc_error, "n_samples": r.n_samples,
                   "a": [r.constants.a.real, r.constants.a.imag], "b": [r.constants.b.real, r.constants.b.imag]},
        check_choi, lambda r: [r.mc_error / iso_norm],
    )
    return [twirl, choi]


# ---------------------------------------------------------------------------
# registry: full rounds, and the small warm-up round a fresh process runs


WORKLOADS: dict[str, Callable[[np.random.Generator, Path], list[Op]]] = {
    "sweep": sweep_round,
    "haar-mc": haar_round,
    "structured": structured_round,
    "twirl-choi": twirl_round,
}

WARMUPS: dict[str, Callable[[np.random.Generator, Path], list[Op]]] = {
    "sweep": lambda rng, outdir: sweep_round(rng, outdir, SWEEP_WARMUP),
    "haar-mc": lambda rng, outdir: haar_round(rng, outdir, n=64),
    "structured": lambda rng, outdir: structured_round(rng, outdir, n=64, steps=(2, 2), ref_rows=()),
    "twirl-choi": lambda rng, outdir: twirl_round(rng, outdir, d=3, n=(64, 64)),
}
