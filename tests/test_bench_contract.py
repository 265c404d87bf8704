"""The benchmark's tracer must find every program name it wraps.

bench/tracing.py rebinds functions and methods of src/grafenne by name; a
name that is renamed or moved makes its per-layer metrics silently absent,
and BENCHMARK.json then misses metrics it declares. This test reads bench/
and changes nothing in it.
"""

import json
import sys
from pathlib import Path

import numpy as np

import grafenne.cli as cli
import grafenne.continual as continual
import grafenne.graph as graph
import grafenne.imputation as imputation
import grafenne.model as model
import grafenne.optim as optim
import grafenne.stream as stream
import grafenne.synth as synth
import grafenne.tasks as tasks
import grafenne.tensor as tensor

ROOT = Path(__file__).resolve().parent.parent
MODULES = (cli, continual, graph, imputation, model, optim, stream, synth, tasks, tensor)
CLASSES = (model.GrafenneModel, model.VanillaAltModel, imputation.DenseGnnModel)


def _bindings():
    """Every module- and class-level binding the tracer could replace."""
    out = {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}
    out.update({(cls.__qualname__, name): value for cls in CLASSES
                for name, value in vars(cls).items()})
    return out


def _tracing():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing


def test_tracer_wraps_every_name_and_restores_them():
    tracing = _tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
        assert _bindings() != before  # something was wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_per_layer_names_are_traced():
    tracing = _tracing()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in tracing.PER_LAYER] == []


def test_tracer_counts_tape_nodes_and_times_backward_through_attach():
    # an op that bound _attach at import would bypass the rebound name:
    # the wrapped-name check above would pass and both metrics read zero
    tracing = _tracing()
    p = tensor.Parameter(np.full((2, 3), 0.5), "P")
    q = tensor.Parameter(np.full((3, 2), -0.5), "Q")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tensor.backward(tensor.sum_all(tensor.leaky_relu(tensor.matmul(p, q))))
        assert tracer.stats["tensor.tape_nodes"] == 3
        assert tracer.stats["tensor.matmul.bwd_s"] > 0
    finally:
        tracer.uninstall()
