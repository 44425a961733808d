"""The benchmark's tracer looks program functions up by name; a refactor
that renames or removes one breaks ``bench/run.py --trace 1``.  This test
fails first.  ``bench/tracing.py`` is loaded read-only, without writing
bytecode next to it."""

import importlib
import json

import pytest

from birange import cli, nrcore
from helpers import general_example_matrix, load_bench_module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


def test_every_layer_resolves(tracing):
    for name, module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_boundary_observer_hooks_exist():
    assert callable(nrcore._as_ndarray)
    assert isinstance(nrcore._DEGENERATE_REL, float)


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gen.json"
    matrix = general_example_matrix()
    path.write_text(json.dumps({
        "form": "raw",
        "matrix": [[[matrix[i, j].real, matrix[i, j].imag] for j in range(4)]
                   for i in range(4)],
    }))
    return str(path)


def traced_main(tracing, argv):
    """``cli.main(argv)`` as one traced op: its exit code and the tracer,
    after checking that no wrapper is left behind."""
    tracer = tracing.Tracer()
    with tracer.installed():
        wrappers = tracer.wrappers()
        with tracer.op(0):
            code = cli.main(argv)
    assert tracing.reachable(wrappers) == 0
    return code, tracer


def test_traced_check_records_spans_and_restores(tracing, gen_file, capsys):
    code, tracer = traced_main(tracing, ["check", "--format", "json", gen_file])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "BiElliptical"
    layers = tracer.summary(1, 1)["layers"]
    for name in ("cli.cmd_check", "criteria.check_general", "nrcore.boundary_support",
                 "nrcore.flat_portions", "verify.commutant_dim",
                 "verify.factorization_residual"):
        assert layers[name]["calls"] == 1, name
    assert tracer.counts["nrcore.boundary_support.degenerate_directions"] > 0


def test_traced_verify_reaches_the_patched_command(tracing, gen_file, capsys):
    # ``cli.main`` dispatches to the ``cli.cmd_verify`` the tracer patched
    # in.  The pencil closed forms take one call for the decision and one
    # array call per spot check.
    code, tracer = traced_main(tracing, ["verify", gen_file])
    assert code == 0
    assert capsys.readouterr().out.endswith("verdict: BiElliptical\n")
    layers = tracer.summary(1, 1)["layers"]
    assert layers["cli.cmd_verify"]["calls"] == 1
    assert layers["nrcore.pencil_eigs"]["calls"] <= 3
