"""The benchmark's tracer looks program functions up by name; a refactor
that renames or removes one breaks ``bench/run.py --trace 1``.  This test
fails first.  ``bench/tracing.py`` is loaded read-only, without writing
bytecode next to it."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from birange import cli, nrcore
from helpers import general_example_matrix

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layer_resolves(tracing):
    for name, module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_boundary_observer_hooks_exist():
    assert callable(nrcore._as_ndarray)
    assert isinstance(nrcore._DEGENERATE_REL, float)


def test_traced_check_records_spans_and_restores(tracing, tmp_path, capsys):
    path = tmp_path / "gen.json"
    matrix = general_example_matrix()
    path.write_text(json.dumps({
        "form": "raw",
        "matrix": [[[matrix[i, j].real, matrix[i, j].imag] for j in range(4)]
                   for i in range(4)],
    }))
    tracer = tracing.Tracer()
    with tracer.installed():
        wrappers = tracer.wrappers()
        with tracer.op(0):
            code = cli.main(["check", "--format", "json", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "BiElliptical"
    assert tracing.reachable(wrappers) == 0
    layers = tracer.summary(1, 1)["layers"]
    for name in ("cli.cmd_check", "criteria.check_general", "nrcore.boundary_support",
                 "nrcore.flat_portions", "verify.commutant_dim",
                 "verify.factorization_residual"):
        assert layers[name]["calls"] == 1, name
    assert tracer.counts["nrcore.boundary_support.degenerate_directions"] > 0
