"""Per-module tracing built only from wrappers installed by the benchmark.

Tracer.install() replaces functions and methods of the program with timed
wrappers in every grafenne module that binds them (tasks and continual
both import adam_step, for example), and uninstall() puts the originals
back. Nothing inside src/ knows about it.

Backward time is taken by wrapping the closure each tensor op attaches to
its output (tensor._attach). It is charged to the op that created the
node and to the phase method, or DenseGnnModel.forward, that was running
when the node was created.

A wrapped name that no longer exists makes its metrics absent; the run
goes on and the names are listed by Tracer.absent.
"""

import sys
import time
from collections import defaultdict

TENSOR_OPS = ("matmul", "add", "mul", "concat", "reshape", "leaky_relu", "relu",
              "gather_rows", "segment_sum", "segment_softmax", "stack_rows",
              "cross_entropy", "sum_all")

COUNT_UNITS = {"calls": "calls", "backwards": "backwards", "epochs": "epochs",
               "forwards": "forwards", "tensors": "tensors", "tape_nodes": "tape_nodes"}


def _metric_names():
    names = []
    for op in TENSOR_OPS:
        names += [f"tensor.{op}.fwd_s", f"tensor.{op}.bwd_s", f"tensor.{op}.calls"]
    names += ["tensor.backward.s", "tensor.backward.calls", "tensor.topo_order.s",
              "tensor.topo_order.calls", "tensor.tape_nodes",
              "model.forward.s", "model.forward.calls",
              "model.p1.fwd_s", "model.p1.bwd_s", "model.p2.fwd_s", "model.p2.bwd_s",
              "model.p3.fwd_s", "model.p3.bwd_s",
              "optim.adam_step.s", "optim.adam_step.calls", "optim.adam_step.tensors",
              "graph.to_allotropic.s", "graph.to_allotropic.calls",
              "graph.apply_missing_mask.s", "graph.make_split.s", "graph.load_graph.s",
              "imputation.feature_propagation.s", "imputation.impute_special_label.s",
              "imputation.dense.fwd_s", "imputation.dense.bwd_s",
              "tasks.train.s", "tasks.train.epochs", "tasks.train.forwards",
              "continual.compute_importance.s", "continual.compute_importance.calls",
              "continual.compute_importance.backwards", "continual.continual_loss.s",
              "stream.apply_delta.s", "stream.apply_delta.calls", "stream.generate_stream.s",
              "synth.make_community_graph.s",
              "cli.read_config.s", "cli.write_results_csv.s",
              "trace.overhead_s"]
    return tuple(names)


PER_LAYER = _metric_names()


def unit_of(name):
    return COUNT_UNITS.get(name.rsplit(".", 1)[-1], "s")


class Tracer:
    """Accumulates per-module seconds and counts while installed."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.absent = set()
        self._undo = []
        self._ops = []      # listed tensor ops currently running
        self._scope = []    # backward-charge keys of running phases
        self._inside = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self):
        import grafenne.cli as cli
        import grafenne.continual as continual
        import grafenne.graph as graph
        import grafenne.imputation as imputation
        import grafenne.model as model
        import grafenne.optim as optim
        import grafenne.stream as stream
        import grafenne.synth as synth
        import grafenne.tasks as tasks
        import grafenne.tensor as T

        for op in TENSOR_OPS:
            self._function(T, op, self._op(op), f"tensor.{op}.")
        self._function(T, "_attach", self._attach,
                       tuple(n for n in PER_LAYER if n.endswith(".bwd_s")) + ("tensor.tape_nodes",))
        self._function(T, "backward", self._backward, "tensor.backward.")
        self._function(T, "_topo_order", self._timed("tensor.topo_order", calls=True),
                       "tensor.topo_order.")
        self._method(model, "GrafenneModel", "forward", self._model_forward("model.forward"),
                     "model.forward.")
        self._method(model, "VanillaAltModel", "forward", self._model_forward("model.forward"),
                     ())
        for k in (1, 2, 3):
            self._method(model, "GrafenneModel", f"_phase{k}",
                         self._phase(f"model.p{k}"), f"model.p{k}.")
        self._method(imputation, "DenseGnnModel", "forward",
                     self._model_forward("imputation.dense", scoped=True), "imputation.dense.")
        self._function(optim, "adam_step", self._adam, "optim.adam_step.")
        self._function(graph, "to_allotropic", self._timed("graph.to_allotropic", calls=True),
                       "graph.to_allotropic.")
        for name in ("apply_missing_mask", "make_split", "load_graph"):
            self._function(graph, name, self._timed(f"graph.{name}"), f"graph.{name}.")
        for name in ("feature_propagation", "impute_special_label"):
            self._function(imputation, name, self._timed(f"imputation.{name}"),
                           f"imputation.{name}.")
        self._function(tasks, "train", self._timed("tasks.train", inside="train"),
                       "tasks.train.")
        self._function(continual, "compute_importance",
                       self._timed("continual.compute_importance", calls=True,
                                   inside="importance"),
                       "continual.compute_importance.")
        self._function(continual, "continual_loss", self._timed("continual.continual_loss"),
                       "continual.continual_loss.")
        self._function(stream, "apply_delta", self._timed("stream.apply_delta", calls=True),
                       "stream.apply_delta.")
        self._function(stream, "generate_stream", self._timed("stream.generate_stream"),
                       "stream.generate_stream.")
        self._function(synth, "make_community_graph",
                       self._timed("synth.make_community_graph"), "synth.make_community_graph.")
        self._function(cli, "read_config", self._timed("cli.read_config"), "cli.read_config.")
        self._function(tasks, "write_results_csv", self._timed("cli.write_results_csv"),
                       "cli.write_results_csv.")

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _function(self, owner, name, make, fed):
        """Rebind owner.name in every grafenne module that holds it.

        `fed` names the metrics the wrapper feeds: a name prefix or a tuple
        of names. They become absent when owner.name does not exist."""
        orig = owner.__dict__.get(name)
        if orig is None:
            self._mark_absent(fed)
            return
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "grafenne" and mod.__dict__.get(name) is orig:
                self._undo.append((mod, name, orig))
                setattr(mod, name, wrapped)

    def _method(self, module, cls_name, name, make, fed):
        cls = module.__dict__.get(cls_name)
        orig = cls.__dict__.get(name) if cls is not None else None
        if orig is None:
            self._mark_absent(fed)
            return
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def _mark_absent(self, fed):
        if isinstance(fed, str):
            fed = tuple(n for n in PER_LAYER if n.startswith(fed))
        self.absent.update(fed)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key, calls=False, inside=None):
        stats, depth = self.stats, self._inside

        def make(orig):
            def wrapper(*args, **kwargs):
                if inside:
                    depth[inside] += 1
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    stats[f"{key}.s"] += time.perf_counter() - t0
                    if calls:
                        stats[f"{key}.calls"] += 1
                    if inside:
                        depth[inside] -= 1
            return wrapper
        return make

    def _op(self, op):
        stats, ops = self.stats, self._ops

        def make(orig):
            def wrapper(*args, **kwargs):
                ops.append(op)
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    stats[f"tensor.{op}.fwd_s"] += time.perf_counter() - t0
                    stats[f"tensor.{op}.calls"] += 1
                    ops.pop()
            return wrapper
        return make

    def _attach(self, orig):
        stats, ops, scope = self.stats, self._ops, self._scope

        def wrapper(out, parents, backward_fn):
            op_key = f"tensor.{ops[-1]}.bwd_s" if ops else None
            scope_key = scope[-1] if scope else None

            def timed_backward():
                t0 = time.perf_counter()
                backward_fn()
                dt = time.perf_counter() - t0
                if op_key:
                    stats[op_key] += dt
                if scope_key:
                    stats[scope_key] += dt

            result = orig(out, parents, timed_backward)
            if out._backward is not None:
                stats["tensor.tape_nodes"] += 1
            return result
        return wrapper

    def _backward(self, orig):
        timed = self._timed("tensor.backward", calls=True)(orig)
        stats, depth = self.stats, self._inside

        def wrapper(loss):
            if depth["importance"]:
                stats["continual.compute_importance.backwards"] += 1
            return timed(loss)
        return wrapper

    def _phase(self, key):
        stats, scope = self.stats, self._scope

        def make(orig):
            def wrapper(*args, **kwargs):
                scope.append(f"{key}.bwd_s")
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    stats[f"{key}.fwd_s"] += time.perf_counter() - t0
                    scope.pop()
            return wrapper
        return make

    def _model_forward(self, key, scoped=False):
        stats, depth = self.stats, self._inside
        timed = self._phase(key) if scoped else self._timed(key, calls=True)

        def make(orig):
            inner = timed(orig)

            def wrapper(*args, **kwargs):
                if depth["train"]:
                    stats["tasks.train.forwards"] += 1
                return inner(*args, **kwargs)
            return wrapper
        return make

    def _adam(self, orig):
        timed = self._timed("optim.adam_step", calls=True)(orig)
        stats, depth = self.stats, self._inside

        def wrapper(params, *args, **kwargs):
            params = list(params)
            stats["optim.adam_step.tensors"] += len(params)
            if depth["train"]:
                stats["tasks.train.epochs"] += 1
            return timed(params, *args, **kwargs)
        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self, rounds, overhead_s):
        """Per-round averages of every present per-layer metric."""
        out = {}
        for name in PER_LAYER:
            if name in self.absent or (name == "trace.overhead_s" and overhead_s is None):
                continue
            value = overhead_s if name == "trace.overhead_s" else self.stats[name] / rounds
            out[name] = {"value": value, "unit": unit_of(name)}
        return out
