import json

import numpy as np
import pytest

from dephwit import cli
from dephwit.dephasing import dephase_total
from dephwit.randmat import RngHandle, SpectrumEnsemble
from dephwit.states import from_pure, random_mixed
from dephwit.witness import structured_average_grid

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


def _run(tmp_path, name, text, *extra):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"{name}.json"
    code = cli.main(["structured-average", "--config", str(cfg), "--output", str(out), *extra])
    return code, out


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_structured_average_output_is_identical_for_any_worker_count(tmp_path, monkeypatch, kind):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    text = CONFIGS[kind]
    outputs = []
    for workers in (1, 2):
        code, out = _run(tmp_path, f"w{workers}", text + f"workers = {workers}\n")
        assert code == 0
        outputs.append(out.read_bytes())
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    code, out = _run(tmp_path, "env", text)
    assert code == 0
    outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

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
    state = random_mixed(2, 2, 3, RngHandle(12).derive(cli._STATE_STREAM))
    grid = structured_average_grid(
        state, dephase_total(state), SpectrumEnsemble("poisson", 4), np.linspace(0.0, 3.0, 4),
        1100, RngHandle(12).derive(cli._MC_STREAM), redraw_spectrum=False,
    )
    assert [(row["mean_sq"], row["std_error"]) for row in rows] == [(e.mean, e.std_error) for e in grid]


@pytest.mark.parametrize(
    "seed, message",
    [
        ("-1", "config error: seed: must be at least 0, got -1"),
        (
            "18446744073709551616",
            "config error: seed: must be at most 18446744073709551615, got 18446744073709551616",
        ),
    ],
)
def test_seed_override_out_of_range_is_a_config_error(tmp_path, capsys, seed, message):
    code, out = _run(tmp_path, "gue", GUE_CONFIG, "--seed", seed)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_seed_override_in_range_replaces_the_file_seed(tmp_path):
    code, out = _run(tmp_path, "gue", GUE_CONFIG, "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 2**64 - 1
