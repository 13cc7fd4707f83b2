import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephwit import __version__, cli
from dephwit.config import _parse_scalar, parse_value
from dephwit.dephasing import CLASSICALITY_TOL, dephase_total, discord_delta, eigenbasis_of_marginal
from dephwit.randmat import RngHandle, SpectrumEnsemble, ginibre, sample_spectrum
from dephwit.states import classical_state, from_pure, purity, random_mixed
from dephwit.witness import (
    choi_isotropic_check,
    haar_average_distance_sq,
    haar_witness_prefactor_sq,
    structured_average_grid,
    theorem_mc_check,
    twirl_constants,
    twirl_mc,
    witness_trajectory,
)
from helpers import parse_value_loop

GUE_CONFIG = """\
d_S = 2
d_E = 2
seed = 11
pure = [0.8, 0, 0, 0.6]
ensemble = gue
spectrum_mode = annealed
time_start = 0
time_stop = 2
time_steps = 3
n_samples = 1100
"""

POISSON_CONFIG = """\
d_S = 2
d_E = 2
seed = 12
random_rank = 3
ensemble = poisson
spectrum_mode = quenched
time_start = 0
time_stop = 3
time_steps = 4
n_samples = 1100
"""

CONFIGS = {"gue": GUE_CONFIG, "poisson": POISSON_CONFIG}

# the results-file echo of each config
ECHOES = {
    "gue": {
        "command": "structured-average", "d_S": 2, "d_E": 2, "seed": 11,
        "pure": [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]],
        "ensemble": "gue", "spectrum_mode": "annealed",
        "time_start": 0.0, "time_stop": 2.0, "time_steps": 3, "n_samples": 1100,
    },
    "poisson": {
        "command": "structured-average", "d_S": 2, "d_E": 2, "seed": 12,
        "random_rank": 3, "ensemble": "poisson", "spectrum_mode": "quenched",
        "time_start": 0.0, "time_stop": 3.0, "time_steps": 4, "n_samples": 1100,
    },
}


def _run(tmp_path, name, text, *extra, command="structured-average"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"{name}.json"
    code = cli.main([command, "--config", str(cfg), "--output", str(out), *extra])
    return code, out


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_structured_average_output_is_identical_for_any_worker_count(tmp_path, monkeypatch, kind):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    text = CONFIGS[kind]
    code, out = _run(tmp_path, "unset", text)
    assert code == 0
    outputs = [out.read_bytes()]
    for workers in ("1", "2"):
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        code, out = _run(tmp_path, f"w{workers}", text)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    assert json.loads(outputs[0])["config"] == ECHOES[kind]
    rows = json.loads(outputs[0])["results"]
    zero = rows[0]
    assert zero["t"] == 0.0
    assert (zero["mean_sq"], zero["std_error"], zero["rms"], zero["rms_std_error"]) == (0.0, 0.0, 0.0, 0.0)
    assert all(row["mean_sq"] > 0.0 for row in rows[1:])


def test_structured_average_rows_come_from_one_grid_call(tmp_path):
    # the rows share the Monte Carlo stream derived from the master seed
    code, out = _run(tmp_path, "gue", GUE_CONFIG)
    assert code == 0
    rows = json.loads(out.read_text())["results"]
    state = from_pure(np.array([0.8, 0, 0, 0.6], dtype=complex), 2, 2)
    grid = structured_average_grid(
        state, dephase_total(state), SpectrumEnsemble("gue", 4), np.linspace(0.0, 2.0, 3),
        1100, RngHandle(11).derive(cli._MC_STREAM),
    )
    assert [(row["mean_sq"], row["std_error"]) for row in rows] == [(e.mean, e.std_error) for e in grid]

    code, out = _run(tmp_path, "poisson", POISSON_CONFIG)
    assert code == 0
    rows = json.loads(out.read_text())["results"]
    # quenched: one Poisson spectrum from substream 1 of the Monte Carlo stream, passed in as explicit
    state = random_mixed(2, 2, 3, RngHandle(12).derive(cli._STATE_STREAM))
    mc = RngHandle(12).derive(cli._MC_STREAM)
    frozen = SpectrumEnsemble("explicit", 4, sample_spectrum(SpectrumEnsemble("poisson", 4), mc.derive(1)))
    grid = structured_average_grid(
        state, dephase_total(state), frozen, np.linspace(0.0, 3.0, 4), 1100, mc,
    )
    assert [(row["mean_sq"], row["std_error"]) for row in rows] == [(e.mean, e.std_error) for e in grid]


def test_the_seed_comes_from_the_file_only(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        _run(tmp_path, "gue", GUE_CONFIG, "--seed", "5")
    assert exit_info.value.code == 2
    assert not (tmp_path / "gue.json").exists()


CHECK_CONFIG = """\
d_S = 2
d_E = 2
seed = 13
n_samples = 1100
"""


def _lemma_direct(seed, n_samples):
    # operators from derive(1) in the order A, B, X; Monte Carlo from derive(2)
    ops = RngHandle(seed).derive(1)
    a_op, b_op, x = ginibre(4, ops), ginibre(4, ops), ginibre(4, ops)
    consts = twirl_constants(a_op, b_op)
    mean, stderr = twirl_mc(a_op, b_op, x, n_samples, RngHandle(seed).derive(2), return_stderr=True)
    deviation = np.abs(mean - (consts.a * np.trace(x) * np.eye(4) + consts.b * x))
    return {
        "a_real": consts.a.real,
        "a_imag": consts.a.imag,
        "b_real": consts.b.real,
        "b_imag": consts.b.imag,
        "max_abs_error": float(deviation.max()),
        "max_z_score": float((deviation / stderr).max()),
        "n_samples": n_samples,
    }


def _choi_direct(seed, n_samples):
    ops = RngHandle(seed).derive(1)
    a_op, b_op = ginibre(4, ops), ginibre(4, ops)
    result = choi_isotropic_check(a_op, b_op, n_samples, RngHandle(seed).derive(2))
    return {
        "residual": result.residual,
        "mc_error": result.mc_error,
        "error_ratio": result.residual / result.mc_error,
        "a_real": result.constants.a.real,
        "a_imag": result.constants.a.imag,
        "b_real": result.constants.b.real,
        "b_imag": result.constants.b.imag,
        "n_samples": result.n_samples,
    }


DIRECT = {"lemma-check": _lemma_direct, "choi-check": _choi_direct}


@pytest.mark.parametrize("command", sorted(DIRECT))
def test_twirl_checks_are_identical_for_any_worker_count_and_match_a_direct_call(
    tmp_path, monkeypatch, command
):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    outputs = {}
    for fmt in ("json", "csv"):
        code, out = _run(tmp_path, f"{fmt}unset", CHECK_CONFIG, "--format", fmt, command=command)
        assert code == 0
        runs = [out.read_bytes()]
        for workers in ("1", "2"):
            monkeypatch.setenv(cli.WORKERS_ENV, workers)
            code, out = _run(tmp_path, f"{fmt}{workers}", CHECK_CONFIG, "--format", fmt, command=command)
            monkeypatch.delenv(cli.WORKERS_ENV)
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1] == runs[2]
        outputs[fmt] = runs[0].decode()

    expected = DIRECT[command](13, 1100)
    record = json.loads(outputs["json"])
    assert (record["command"], record["seed"]) == (command, 13)
    assert record["config"] == {"command": command, "d_S": 2, "d_E": 2, "seed": 13, "n_samples": 1100}
    assert record["results"] == expected
    lines = outputs["csv"].splitlines()
    assert lines[0] == "key,value"
    # 17 significant digits round-trip every float of the JSON results
    rows = [line.split(",") for line in lines[1:]]
    assert [key for key, _ in rows] == list(expected)
    assert {key: json.loads(value) for key, value in rows} == expected


# ---------------------------------------------------------------------------
# golden runs of discord, witness-trajectory, haar-average and theorem-check


def _dephased(state):
    basis, degenerate = eigenbasis_of_marginal(state)
    return dephase_total(state, basis), degenerate


def _discord_direct(state):
    deph, degenerate = _dephased(state)
    delta = discord_delta(state)
    return {
        "delta": delta,
        "delta_sq": delta**2,
        "purity": purity(state),
        "purity_dephased": purity(deph),
        "classical": int(delta <= CLASSICALITY_TOL),
        "degenerate_marginal": int(degenerate),
    }


def _trajectory_direct(state, ensemble, seed, times):
    deph, _ = _dephased(state)
    hs_distance, trace_distance = witness_trajectory(state, deph, ensemble, times, RngHandle(seed).derive(1))
    return [
        {"t": t, "hs_distance": h, "trace_distance": td}
        for t, h, td in zip(times.tolist(), hs_distance.tolist(), trace_distance.tolist())
    ]


def _haar_direct(state, seed, n_samples):
    deph, _ = _dephased(state)
    delta = discord_delta(state)
    est = haar_average_distance_sq(state, deph, n_samples, RngHandle(seed).derive(2))
    rms, rms_err = est.rms()
    predicted = haar_witness_prefactor_sq(state.d_s, state.d_e) * delta**2
    return {
        "mean_sq": est.mean,
        "std_error": est.std_error,
        "rms": rms,
        "rms_std_error": rms_err,
        "delta": delta,
        "predicted_mean_sq": predicted,
        "predicted_rms": math.sqrt(predicted),
        "z_score": (est.mean - predicted) / est.std_error,
        "n_samples": n_samples,
    }


def _theorem_direct(seed, d_s, d_e, n_samples):
    g = ginibre(d_s * d_e, RngHandle(seed).derive(1))
    est, rhs = theorem_mc_check(0.5 * (g + g.conj().T), d_s, d_e, n_samples, RngHandle(seed).derive(2))
    return {
        "mc_mean": est.mean,
        "mc_std_error": est.std_error,
        "rhs": rhs,
        "z_score": (est.mean - rhs) / est.std_error,
        "n_samples": n_samples,
    }


def _structured_direct(state, ensemble, seed, times, n_samples):
    deph, _ = _dephased(state)
    delta = discord_delta(state)
    grid = structured_average_grid(state, deph, ensemble, times, n_samples, RngHandle(seed).derive(2))
    rows = []
    for t, est in zip(times.tolist(), grid):
        rms, rms_err = est.rms()
        rows.append({
            "t": t, "mean_sq": est.mean, "std_error": est.std_error, "rms": rms, "rms_std_error": rms_err,
            "delta": delta, "ratio_to_delta": rms / delta,
        })
    return rows


PURE = np.array([0.6, 0, 0.48j, 0.64])

# name -> (command, config text, literal config echo, direct API result)
GOLDEN = {
    "discord-classical": (
        "discord",
        "d_S = 2\nd_E = 3\nseed = 21\nprobabilities = [[0.1, 0.2, 0.05], [0.3, 0.25, 0.1]]\n",
        {
            "command": "discord", "d_S": 2, "d_E": 3, "seed": 21,
            "probabilities": [[0.1, 0.2, 0.05], [0.3, 0.25, 0.1]],
        },
        lambda: _discord_direct(
            classical_state(np.array([[0.1, 0.2, 0.05], [0.3, 0.25, 0.1]]))
        ),
    ),
    "discord-mixed": (
        "discord",
        "d_S = 2\nd_E = 3\nseed = 22\nrandom_rank = 3\n",
        {"command": "discord", "d_S": 2, "d_E": 3, "seed": 22, "random_rank": 3},
        lambda: _discord_direct(random_mixed(2, 3, 3, RngHandle(22).derive(0))),
    ),
    "trajectory-explicit": (
        "witness-trajectory",
        "d_S = 2\nd_E = 2\nseed = 23\n"
        "pure = [0.6, 0, 0.48i, 0.64]\nensemble = explicit\nlevels = [0, 1, 2.5, 4]\n"
        "time_start = 0\ntime_stop = 3\ntime_steps = 4\n",
        {
            "command": "witness-trajectory", "d_S": 2, "d_E": 2, "seed": 23,
            "pure": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.48], [0.64, 0.0]],
            "ensemble": "explicit", "levels": [0.0, 1.0, 2.5, 4.0],
            "time_start": 0.0, "time_stop": 3.0, "time_steps": 4,
        },
        lambda: _trajectory_direct(
            from_pure(PURE, 2, 2),
            SpectrumEnsemble("explicit", 4, explicit_levels=np.array([0, 1, 2.5, 4.0])),
            23, np.linspace(0.0, 3.0, 4),
        ),
    ),
    "trajectory-gue": (
        "witness-trajectory",
        "d_S = 2\nd_E = 2\nseed = 24\nrandom_rank = 2\nensemble = gue\n"
        "time_start = 0.5\ntime_stop = 2\ntime_steps = 3\n",
        {
            "command": "witness-trajectory", "d_S": 2, "d_E": 2, "seed": 24,
            "random_rank": 2, "ensemble": "gue",
            "time_start": 0.5, "time_stop": 2.0, "time_steps": 3,
        },
        lambda: _trajectory_direct(
            random_mixed(2, 2, 2, RngHandle(24).derive(0)),
            SpectrumEnsemble("gue", 4), 24, np.linspace(0.5, 2.0, 3),
        ),
    ),
    # d_S > d_E: a system wider than its environment
    "trajectory-poisson-4x2": (
        "witness-trajectory",
        "d_S = 4\nd_E = 2\nseed = 29\nrandom_rank = 3\nensemble = poisson\n"
        "time_start = 0\ntime_stop = 3\ntime_steps = 4\n",
        {
            "command": "witness-trajectory", "d_S": 4, "d_E": 2, "seed": 29,
            "random_rank": 3, "ensemble": "poisson",
            "time_start": 0.0, "time_stop": 3.0, "time_steps": 4,
        },
        lambda: _trajectory_direct(
            random_mixed(4, 2, 3, RngHandle(29).derive(0)),
            SpectrumEnsemble("poisson", 8), 29, np.linspace(0.0, 3.0, 4),
        ),
    ),
    "structured-explicit": (
        "structured-average",
        "d_S = 2\nd_E = 2\nseed = 27\npure = [0.6, 0, 0.48i, 0.64]\nensemble = explicit\n"
        "levels = [0, 1, 2.5, 4]\ntime_start = 0\ntime_stop = 3\ntime_steps = 4\nn_samples = 1100\n",
        {
            "command": "structured-average", "d_S": 2, "d_E": 2, "seed": 27,
            "pure": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.48], [0.64, 0.0]],
            "ensemble": "explicit", "levels": [0.0, 1.0, 2.5, 4.0],
            "time_start": 0.0, "time_stop": 3.0, "time_steps": 4, "n_samples": 1100,
            "spectrum_mode": "annealed",
        },
        lambda: _structured_direct(
            from_pure(PURE, 2, 2), SpectrumEnsemble("explicit", 4, explicit_levels=np.array([0, 1, 2.5, 4.0])),
            27, np.linspace(0.0, 3.0, 4), 1100,
        ),
    ),
    "haar-average": (
        "haar-average",
        "d_S = 2\nd_E = 2\nseed = 25\npure = [0.6, 0, 0.48i, 0.64]\nn_samples = 1100\n",
        {
            "command": "haar-average", "d_S": 2, "d_E": 2, "seed": 25,
            "pure": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.48], [0.64, 0.0]], "n_samples": 1100,
        },
        lambda: _haar_direct(from_pure(PURE, 2, 2), 25, 1100),
    ),
    "theorem-check": (
        "theorem-check",
        "d_S = 2\nd_E = 3\nseed = 26\nn_samples = 1100\n",
        {"command": "theorem-check", "d_S": 2, "d_E": 3, "seed": 26, "n_samples": 1100},
        lambda: _theorem_direct(26, 2, 3, 1100),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_runs_are_identical_for_any_worker_count_and_match_direct_calls(
    tmp_path, monkeypatch, name
):
    command, text, echo, direct = GOLDEN[name]
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    outputs = {}
    for fmt in ("json", "csv"):
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(cli.WORKERS_ENV, workers)
            code, out = _run(tmp_path, f"{fmt}{workers}", text, "--format", fmt, command=command)
            monkeypatch.delenv(cli.WORKERS_ENV)
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        outputs[fmt] = runs[0].decode()

    expected = direct()
    record = json.loads(outputs["json"])
    assert sorted(record) == ["command", "config", "results", "seed", "version"]
    assert (record["command"], record["seed"], record["version"]) == (command, echo["seed"], __version__)
    assert record["config"] == echo
    assert record["results"] == expected
    lines = outputs["csv"].splitlines()
    if isinstance(expected, dict):
        assert lines[0] == "key,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [key for key, _ in rows] == list(expected)
        assert {key: json.loads(value) for key, value in rows} == expected
    else:
        header = lines[0].split(",")
        assert header == list(expected[0])
        assert [dict(zip(header, map(json.loads, line.split(",")))) for line in lines[1:]] == expected


def test_discord_on_a_degenerate_table_warns_and_keeps_its_results(tmp_path, capsys):
    # marginal {0.2, 0.4, 0.4}; the last two rows carry the same environment
    # weights, so every eigenbasis of the marginal leaves the state fixed
    text = "d_S = 3\nd_E = 2\nseed = 28\nprobabilities = [[0.1, 0.1], [0.2, 0.2], [0.2, 0.2]]\n"
    code, out = _run(tmp_path, "degenerate", text, command="discord")
    assert code == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        "warning: reduced system state has a degenerate spectrum; "
        "delta depends on the basis the eigensolver picks inside the degenerate eigenspace"
    )
    assert json.loads(out.read_text())["results"] == {
        "classical": 1, "degenerate_marginal": 1, "delta": 0.0, "delta_sq": 0.0,
        "purity": 0.18000000000000002, "purity_dephased": 0.18000000000000002,
    }


def test_version_matches_pyproject():
    # results files record the version, so the package metadata must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == __version__


def test_structured_average_explicit_rows_are_exact(tmp_path, capsys):
    # a fixed spectrum needs no sampling, in either spectrum mode, and the
    # stderr line says that n_samples went unused
    command, text, _, _ = GOLDEN["structured-explicit"]
    results = []
    for mode in ("annealed", "quenched"):
        code, out = _run(tmp_path, mode, text + f"spectrum_mode = {mode}\n", command=command)
        assert code == 0
        assert capsys.readouterr().err.rstrip().endswith("; rows exact, n_samples unused")
        rows = json.loads(out.read_text())["results"]
        assert [(row["std_error"], row["rms_std_error"]) for row in rows] == [(0.0, 0.0)] * 4
        assert rows[0]["mean_sq"] == 0.0 and all(row["mean_sq"] > 0.0 for row in rows[1:])
        results.append(rows)
    assert results[0] == results[1]
    code, _ = _run(tmp_path, "gue", text.replace("ensemble = explicit", "ensemble = gue").replace(
        "levels = [0, 1, 2.5, 4]\n", ""), command=command)
    assert code == 0
    assert capsys.readouterr().err.rstrip().endswith("(seed 27)")


# ---------------------------------------------------------------------------
# error paths

DIMS = "d_S = 2\nd_E = 2\nseed = 1\n"
CHECK = DIMS + "n_samples = 4\n"
STATE = DIMS + "pure = [0.6, 0, 0.48i, 0.64]\n"
TRAJECTORY = STATE + "ensemble = gue\ntime_start = 0\ntime_stop = 1\ntime_steps = 2\n"
EXPLICIT = STATE + "ensemble = explicit\ntime_start = 0\ntime_stop = 1\ntime_steps = 2\n"
# a trajectory config whose eighth line, time_stop, the test appends
STOP = TRAJECTORY.replace("time_stop = 1\n", "")

# (command, config text, the one message)
CONFIG_ERRORS = [
    ("theorem-check", CHECK + "this line\n", "line 5: expected 'key = value'"),
    ("theorem-check", CHECK + " = 3\n", "line 5: expected 'key = value'"),
    ("theorem-check", CHECK + "colour = red\n", "colour: unknown key (line 5)"),
    ("theorem-check", CHECK + "seed = 2\n", "seed: duplicate key (line 5)"),
    # a value that fails to parse still counts as given
    ("theorem-check", "d_S = 2\nd_E = 2\nseed = [1\nn_samples = 4\n", "seed: unterminated array (line 3)"),
    ("discord", DIMS + "pure = [0.6, 0, 0.48i\n", "pure: unterminated array (line 4)"),
    ("witness-trajectory", EXPLICIT + "levels = [0, 1, 2\n", "levels: unterminated array (line 9)"),
    ("witness-trajectory", STOP + "time_stop = [4\n", "time_stop: unterminated array (line 8)"),
    ("witness-trajectory", STOP + "time_stop = 4]\n", "time_stop: unbalanced brackets (line 8)"),
    ("witness-trajectory", STOP + "time_stop = [[4]\n", "time_stop: unbalanced brackets (line 8)"),
    ("witness-trajectory", STOP + "time_stop =\n", "time_stop: empty value (line 8)"),
    # the command comes from the subcommand, the output, format and worker count from the command line
    ("theorem-check", CHECK + "command = theorem-check\n", "command: unknown key (line 5)"),
    ("theorem-check", CHECK + "output = out.json\n", "output: unknown key (line 5)"),
    ("lemma-check", CHECK + "format = csv\n", "format: unknown key (line 5)"),
    ("lemma-check", CHECK + "workers = 2\n", "workers: unknown key (line 5)"),
    ("theorem-check", CHECK + "pure = [1, 0, 0, 0]\n", "pure: not used by command 'theorem-check'"),
    ("discord", STATE + "ensemble = gue\n", "ensemble: not used by command 'discord'"),
    ("haar-average", STATE + "n_samples = 4\nspectrum_mode = quenched\n",
     "spectrum_mode: not used by command 'haar-average'"),
    ("discord", STATE + "time_steps = 3\n", "time_steps: not used by command 'discord'"),
    ("theorem-check", "d_S = two\nd_E = 2\nseed = 1\nn_samples = 4\n", "d_S: expected an integer, got 'two'"),
    ("theorem-check", "d_S = 2.0\nd_E = 2\nseed = 1\nn_samples = 4\n", "d_S: expected an integer, got 2.0"),
    ("theorem-check", "d_S = 0\nd_E = 2\nseed = 1\nn_samples = 4\n", "d_S: must be at least 1, got 0"),
    ("theorem-check", "d_S = 2\nd_E = 2\nseed = -1\nn_samples = 4\n", "seed: must be at least 0, got -1"),
    (
        "theorem-check", f"d_S = 2\nd_E = 2\nseed = {2**64}\nn_samples = 4\n",
        "seed: must be at most 18446744073709551615, got 18446744073709551616",
    ),
    ("theorem-check", "d_S = 2\nseed = 1\nn_samples = 4\n", "d_E: required"),
    ("theorem-check", "d_S = 2\nd_E = 2\nn_samples = 4\n", "seed: required"),
    ("theorem-check", DIMS, "n_samples: required by command 'theorem-check'"),
    ("choi-check", DIMS + "n_samples = 1\n", "n_samples: must be at least 2, got 1"),
    (
        "structured-average", TRAJECTORY + "n_samples = 4\nspectrum_mode = frozen\n",
        "spectrum_mode: must be one of annealed, quenched, got 'frozen'",
    ),
    ("discord", DIMS, "state_spec: give exactly one of pure, probabilities, random_rank"),
    (
        "discord", STATE + "random_rank = 2\nprobabilities = [[0.5, 0], [0, 0.5]]\n",
        "state_spec: ambiguous: probabilities and pure and random_rank are mutually exclusive",
    ),
    ("discord", DIMS + "pure = [1, 0]\n", "pure: needs 4 amplitudes, got 2"),
    ("discord", DIMS + "pure = [1, 1, 0, 0]\n", "pure: vector is not normalized (norm 1.4142135623730951)"),
    ("discord", DIMS + "pure = 1\n", "pure: expected a nonempty bracket list of amplitudes"),
    ("discord", DIMS + "pure = []\n", "pure: expected a nonempty bracket list of amplitudes"),
    ("discord", DIMS + "pure = [1, x, 0, 0]\n", "pure: amplitude 'x' is not a number"),
    ("discord", DIMS + "pure = [1, [0], 0, 0]\n", "pure: amplitude [0] is not a number"),
    ("discord", DIMS + "probabilities = [[0.5, 0.5]]\n", "probabilities: table must be 2 x 2, got 1 x 2"),
    ("discord", DIMS + "probabilities = [[0.5, -0.1], [0.3, 0.3]]\n", "probabilities: entries must be nonnegative"),
    (
        "discord", DIMS + "probabilities = [[0.5, 0.25], [0.125, 0.0625]]\n",
        "probabilities: entries sum to 0.9375, expected 1",
    ),
    ("discord", DIMS + "probabilities = [0.5, 0.5]\n", "probabilities: expected a nested bracket table [[...],[...]]"),
    ("discord", DIMS + "probabilities = [[0.5, 0.5], [0]]\n", "probabilities: rows have unequal lengths"),
    ("discord", DIMS + "probabilities = [[0.5, a], [0, 0]]\n", "probabilities: entry 'a' is not a real number"),
    ("discord", DIMS + "random_rank = 5\n", "random_rank: must be at most d_S*d_E = 4"),
    ("discord", DIMS + "random_rank = 0\n", "random_rank: must be at least 1, got 0"),
    (
        "witness-trajectory", STATE + "time_start = 0\ntime_stop = 1\ntime_steps = 2\n",
        "ensemble: required by command 'witness-trajectory'",
    ),
    (
        "witness-trajectory", TRAJECTORY.replace("gue", "goe"),
        "ensemble: must be one of poisson, gue, explicit, got 'goe'",
    ),
    ("witness-trajectory", STOP + "time_stop = inf\n", "time_stop: must be finite"),
    ("witness-trajectory", STOP + "time_stop = fast\n", "time_stop: expected a real number, got 'fast'"),
    # the unit level spacing is the time unit: there is no spacing key
    ("witness-trajectory", TRAJECTORY + "mean_spacing = 2\n", "mean_spacing: unknown key (line 9)"),
    ("witness-trajectory", EXPLICIT, "levels: required by the explicit ensemble"),
    ("witness-trajectory", EXPLICIT + "levels = [0, 1]\n", "levels: needs 4 levels, got 2"),
    ("witness-trajectory", TRAJECTORY + "levels = [0, 1, 2, 3]\n", "levels: only meaningful for the explicit ensemble"),
    ("witness-trajectory", EXPLICIT + "levels = [0, 1, 2, 3]\nmean_spacing = 0.5\n", "mean_spacing: unknown key (line 10)"),
    ("witness-trajectory", EXPLICIT + "levels = 3\n", "levels: expected a nonempty bracket list of real numbers"),
    ("witness-trajectory", EXPLICIT + "levels = [0, 1i, 2, 3]\n", "levels: entry 1j is not a real number"),
    (
        "witness-trajectory", TRAJECTORY.replace("time_stop = 1\n", ""),
        "time_stop: required by command 'witness-trajectory'",
    ),
    (
        "structured-average", TRAJECTORY.replace("time_start = 0", "time_start = soon") + "n_samples = 4\n",
        "time_start: expected a real number, got 'soon'",
    ),
    (
        "witness-trajectory", TRAJECTORY.replace("time_steps = 2", "time_steps = 0"),
        "time_steps: must be at least 1, got 0",
    ),
    (
        "witness-trajectory", TRAJECTORY.replace("time_steps = 2", "time_steps = 1"),
        "time_steps: 1 keeps only time_start 0.0, not time_stop 1.0",
    ),
]


@pytest.mark.parametrize("command, text, message", CONFIG_ERRORS)
def test_config_errors_exit_2_with_one_exact_message_and_write_nothing(
    tmp_path, capsys, command, text, message
):
    code, out = _run(tmp_path, "bad", text, command=command)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_a_multi_error_config_reports_every_message_in_any_order(tmp_path, capsys):
    text = (
        "d_S = 0\nd_E = two\ncolour = red\nseed = 1\nseed = 2\n"
        "pure = [1, 0]\nrandom_rank = 2\nn_samples = 1\nlevels = [1]\n"
    )
    code, out = _run(tmp_path, "bad", text, command="discord")
    assert code == 2
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(
        f"config error: {message}"
        for message in [
            "colour: unknown key (line 3)",
            "seed: duplicate key (line 5)",
            "n_samples: not used by command 'discord'",
            "levels: not used by command 'discord'",
            "d_S: must be at least 1, got 0",
            "d_E: expected an integer, got 'two'",
            "n_samples: must be at least 2, got 1",
            "state_spec: ambiguous: pure and random_rank are mutually exclusive",
            "levels: only meaningful for the explicit ensemble",
        ]
    )
    assert not out.exists()


@pytest.mark.parametrize("command, text, messages", [
    (
        "theorem-check", "d_S = 2\nd_E = 2\nseed = [1\nn_samples = 4\nseed = 2\n",
        ["seed: unterminated array (line 3)", "seed: duplicate key (line 5)"],
    ),
    (
        "theorem-check", CHECK + "pure = [1, 0\n",
        ["pure: unterminated array (line 5)", "pure: not used by command 'theorem-check'"],
    ),
    (
        "witness-trajectory", TRAJECTORY + "levels = [0, 1\n",
        ["levels: unterminated array (line 9)", "levels: only meaningful for the explicit ensemble"],
    ),
])
def test_a_key_whose_value_fails_to_parse_still_counts_as_given(tmp_path, capsys, command, text, messages):
    code, out = _run(tmp_path, "bad", text, command=command)
    assert code == 2
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(f"config error: {m}" for m in messages)
    assert not out.exists()


def test_an_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "out.json"
    assert cli.main(["discord", "--config", str(missing), "--output", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot read {missing}: ")
    assert not out.exists()


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(CHECK.encode() + b"# caf\xe9\n")
    out = tmp_path / "out.json"
    assert cli.main(["theorem-check", "--config", str(cfg), "--output", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xe9")
    assert not out.exists()


def test_a_config_with_a_utf8_byte_order_mark_writes_the_same_bytes(tmp_path):
    # some editors start a UTF-8 file with the mark U+FEFF
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(STATE.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + STATE.encode())
    outputs = []
    for cfg in (plain, marked):
        out = tmp_path / f"{cfg.stem}.json"
        assert cli.main(["discord", "--config", str(cfg), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_missing_output_exits_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CHECK)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["theorem-check", "--config", str(cfg)])
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == [cfg]


def test_options_before_the_command_write_the_same_bytes(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CHECK)
    after, before = tmp_path / "after.csv", tmp_path / "before.csv"
    assert cli.main(["theorem-check", "--config", str(cfg), "--output", str(after), "--format", "csv"]) == 0
    assert cli.main(["--format", "csv", "--config", str(cfg), "theorem-check", "--output", str(before)]) == 0
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{cfg}", "--output", "{out}"],  # no command
        ["theorem", "--config", "{cfg}", "--output", "{out}"],  # not a command
        ["theorem-check", "--config", "{cfg}", "--output", "{out}", "--format", "xml"],
    ],
)
def test_a_bad_command_line_exits_2(tmp_path, capsys, argv):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CHECK)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([arg.format(cfg=cfg, out=out) for arg in argv])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("dephwit: error: ")
    assert not out.exists()


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"dephwit {__version__}\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ("x", "error: DEPHWIT_WORKERS must be an integer, got 'x'"),
        ("0", "error: DEPHWIT_WORKERS must be at least 1, got 0"),
    ],
)
def test_a_bad_workers_variable_is_a_run_error(tmp_path, capsys, monkeypatch, value, message):
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    code, out = _run(tmp_path, "c", CHECK, command="theorem-check")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()



@pytest.mark.parametrize(
    "command, text, message",
    [
        ("discord", DIMS + "pure = [nan, 0, 0, 0]\n", "pure: amplitude nan is not finite"),
        ("discord", DIMS + "pure = [1, 0, 0, nan+1i]\n", "pure: amplitude (nan+1j) is not finite"),
        ("discord", DIMS + "probabilities = [[nan, 0.5], [0.5, 0]]\n", "probabilities: entry nan is not finite"),
        ("witness-trajectory", EXPLICIT + "levels = [inf, 1, 2, 3]\n", "levels: entry inf is not finite"),
        # an integer too large for a float is no finite number either
        ("discord", DIMS + f"pure = [1, 0, 0, {10**400}]\n", "pure: int too large to convert to float"),
        ("witness-trajectory", STOP + f"time_stop = {10**400}\n", "time_stop: int too large to convert to float"),
    ],
)
def test_non_finite_list_entries_are_config_errors(tmp_path, capsys, command, text, message):
    code, out = _run(tmp_path, "bad", text, command=command)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_an_unwritable_output_is_a_one_line_run_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CHECK)
    out = tmp_path / "missing" / "out.json"
    assert cli.main(["theorem-check", "--config", str(cfg), "--output", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_running_out_of_memory_is_a_one_line_run_error(tmp_path, capsys, monkeypatch):
    # d_E = 4000000000 asks for 119 GiB; the stand-in fails as numpy would,
    # without allocating anything
    def out_of_memory(d_s, d_e, rank, rng):
        raise MemoryError(f"Unable to allocate for a {d_s * d_e} x {rank} draw")

    monkeypatch.setattr(cli, "random_mixed", out_of_memory)
    text = "d_S = 2\nd_E = 4000000000\nseed = 1\nrandom_rank = 1\n"
    code, out = _run(tmp_path, "big", text, command="discord")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: Unable to allocate for a 8000000000 x 1 draw"
    ]
    assert not out.exists()


def test_an_eigensolver_that_does_not_converge_is_a_one_line_run_error(tmp_path, capsys, monkeypatch):
    # LAPACK's failure is a LinAlgError, which is a ValueError
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    code, out = _run(tmp_path, "stuck", "d_S = 2\nd_E = 3\nseed = 1\nrandom_rank = 3\n", command="discord")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: Eigenvalues did not converge"]
    assert not out.exists()


@pytest.mark.parametrize("workers", [None, "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_results_are_a_run_error_in_either_format(tmp_path, capsys, monkeypatch, fmt, workers):
    # exp(-i t E) overflows at t = 1e308, so the t > 0 rows come out NaN; numpy's
    # overflow warnings stay off stderr, in the pool threads too (three chunks)
    if workers is None:
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
    text = TRAJECTORY.replace("time_stop = 1", "time_stop = 1e308") + "n_samples = 1025\n"
    code, out = _run(tmp_path, "big", text, "--format", fmt)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: results are not finite: mean_sq, ratio_to_delta, rms, rms_std_error, std_error"
    ]
    assert not out.exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(STATE)
    first, again, bad = tmp_path / "first.json", tmp_path / "again.json", tmp_path / "bad.json"
    assert cli.main(["discord", "--config", str(cfg), "--output", str(first)]) == 0
    for argv in (
        ["discrod", "--config", str(cfg), "--output", str(bad)],
        ["discord", "--config", str(cfg), "--output", str(bad), "--format", "xml"],
        ["discord", "--output", str(bad)],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("dephwit: error: ")
        assert not bad.exists()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"dephwit {__version__}\n"
    assert cli.main(["discord", "--config", str(cfg), "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert cli._build_parser() is cli._build_parser()


def test_golden_runs_repeated_in_one_process_write_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    passes = []
    for names in (list(GOLDEN), list(reversed(GOLDEN))):
        outputs = {}
        for name in names:
            command, text, _, _ = GOLDEN[name]
            for fmt in ("json", "csv"):
                code, out = _run(tmp_path, f"{name}-{fmt}", text, "--format", fmt, command=command)
                assert code == 0
                outputs[name, fmt] = out.read_bytes()
        passes.append(outputs)
    assert passes[0] == passes[1]


def test_a_tie_only_at_zero_in_the_marginal_gives_no_warning(tmp_path, capsys):
    # rank 3 at 16 x 2: the marginal's 10 zero eigenvalues tie, the rest are
    # at least 0.03 apart
    text = "d_S = 16\nd_E = 2\nseed = 1\nrandom_rank = 3\n"
    code, out = _run(tmp_path, "zero-tie", text, command="discord")
    assert code == 0
    assert not [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert json.loads(out.read_text())["results"]["degenerate_marginal"] == 0


# config right-hand sides over the characters that matter to the splitter
VALUE_TEXT = st.text(alphabet="[],1.i+- ", max_size=40)
# well-formed nested lists, which random text seldom is
NESTED_TEXT = st.recursive(
    st.text(alphabet="1.i+- ", max_size=6),
    lambda inner: st.lists(inner, max_size=4).map(lambda items: "[" + ",".join(items) + "]"),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(VALUE_TEXT, VALUE_TEXT.map(lambda s: f"[{s}]"), NESTED_TEXT))
# a closing bracket below depth 0 is an error at once, though a later "[" rebalances
@example("[[1]]1,[]")
def test_parse_value_matches_the_character_loop(raw):
    try:
        expected = parse_value_loop(raw, _parse_scalar)
    except ValueError as exc:
        with pytest.raises(ValueError) as exc_info:
            parse_value(raw)
        assert str(exc_info.value) == str(exc)
        assert str(exc) in ("unbalanced brackets", "unterminated array", "empty value")
    else:
        assert repr(parse_value(raw)) == repr(expected)
