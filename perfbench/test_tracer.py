"""Tests of the benchmark's tracer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dephwit  # noqa: E402
import tracer  # noqa: E402
from dephwit import cli, randmat, witness  # noqa: E402


def _span(ident, parent, start, end, thread=1, name="x"):
    return tracer.Span(ident, parent, name, start, end, thread, 1)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, thread=2),
        _span(2, 0, 3.0, 6.0, thread=3),
        _span(3, 1, 1.5, 2.0, thread=2),  # a grandchild does not count for 0
        _span(4, 0, 9.0, 12.0),  # clipped to the parent's interval
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.5)
    assert own[3] == pytest.approx(0.5)


def _bindings():
    modules = [dephwit] + [getattr(dephwit, m) for m in tracer.MODULES[1:]]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_tracer_counts_layers_and_restores_every_name(tmp_path):
    before = _bindings()
    normals = vars(randmat.RngHandle)["normals"]
    cfg = tmp_path / "c.cfg"
    cfg.write_text("d_S = 2\nd_E = 2\nseed = 3\nrandom_rank = 2\n")
    out = tmp_path / "out.json"
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    with tracer.Tracer() as t:
        assert witness.eig_hermitian is not before[("dephwit.witness", "eig_hermitian")]
        assert cli.main(["discord", "--config", str(cfg), "--output", str(out)]) == 0
        witness.theorem_mc_check(m, 2, 2, 1100, randmat.RngHandle(1), workers=2)
    assert _bindings() == before
    assert vars(randmat.RngHandle)["normals"] is normals

    metrics = tracer.layer_metrics(t.spans)
    assert metrics["witness.samples"] == 1100
    assert metrics["randmat.unitaries"] == 1100
    # random_mixed draws 2 * 4 * 2 variates, the unitaries 2 * 1100 * 4 * 4
    assert metrics["randmat.normals"] == 16 + 2 * 1100 * 16
    assert metrics["witness.threads"] == 2
    assert metrics["cli.bytes_written"] == out.stat().st_size
    # state validation, the marginal's basis and the dephased state's validation
    assert metrics["linalg.eig_calls"] == 3
    assert 0.0 < metrics["witness.self_s"] < metrics["witness.mc_s"]
    assert metrics["randmat.spectra"] == 0 and metrics["witness.trajectory_s"] == 0
