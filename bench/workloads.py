"""The three workloads. Each one prepares its inputs from the seed, then runs
whole rounds of the same operations. A round records its timing samples in
the run.Round it is given and leaves in `state` what check() needs.

Program calls go through module attributes (tasks.train, not a name
imported from tasks) so that the traced pass sees them.
"""

import csv
import math
from pathlib import Path

import numpy as np

import grafenne.cli as cli
import grafenne.continual as continual
import grafenne.graph as graph
import grafenne.imputation as imputation
import grafenne.model as model_mod
import grafenne.stream as stream
import grafenne.synth as synth
import grafenne.tasks as tasks

import checks
import inputs



def epoch_times(starts, end, epochs):
    """Per-epoch wall times of one tasks.train call, from the times it
    called its forward (`starts`) and the time it returned (`end`).

    train calls forward a fixed number of times per epoch (a training and
    a validation forward today), then once more for the test predictions,
    so every k-th call starts an epoch. When that cannot be read off the
    call count, the call's mean epoch time is the one sample."""
    per = (len(starts) - 1) // epochs if epochs else 0
    if per < 1 or len(starts) - 1 != per * epochs:
        return [(end - starts[0]) / epochs] if starts and epochs else []
    return [b - a for a, b in zip(starts[0:-1:per], starts[per::per])]


class StaticCoraLike:
    """GRAFENNE (SAGE phase 2) trained on a Cora-scale graph masked at
    p=0.5, with the last HELD_OUT feature ids kept out of training and
    present at inference."""

    name = "static-cora-like"
    # The first round maps ~2 GB of fresh pages (2 s of system time);
    # later rounds reuse the freed heap.
    WARMUP = 1
    N, M, EDGES = 2708, 1433, 5278
    HELD_OUT = 143
    P = 0.5
    EPOCHS = 4
    INFERENCES = 4
    DIM, LAYERS, LR = 64, 2, 0.005

    def __init__(self, seed, workdir):
        self.seed = seed
        data = inputs.cora_like(seed, self.N, self.M, self.EDGES)
        self.g = graph.HeteroGraph(range(self.N), data.edges.tolist(),
                                   inputs.feature_maps(data),
                                   dict(enumerate(data.labels.tolist())),
                                   num_classes=inputs.CLASSES)

    def _setup(self, r):
        """Mask, split, build the model and transform the inference graph,
        timed as one setup_s sample; dropping the held-out block is not."""
        seed, seen = self.seed, self.M - self.HELD_OUT
        t0 = r.clock()
        g_inf = graph.apply_missing_mask(self.g, self.P, seed)
        setup = r.clock() - t0
        g_train = g_inf.replace(feats={v: {f: w for f, w in fmap.items() if f < seen}
                                       for v, fmap in g_inf.feats.items()})
        t0 = r.clock()
        split = graph.make_split(g_train, seed=seed)
        model, forward = tasks.method_model("grafenne", g_train, "node_classification",
                                            dim=self.DIM, layers=self.LAYERS, seed=seed)
        alt_inf = graph.to_allotropic(g_inf)
        r.add("setup_s", setup + r.clock() - t0)
        return g_inf, g_train, split, model, forward, alt_inf

    def round(self, r):
        g_inf, g_train, split, model, forward, alt_inf = self._setup(r)
        cfg = tasks.TrainConfig(epochs=self.EPOCHS, lr=self.LR, seeds=(self.seed,),
                                patience=self.EPOCHS)
        starts = []

        def stamped():
            r.reference()  # a reference time from inside the timed call
            starts.append(r.clock())
            return forward()

        t0 = r.clock()
        result = tasks.train(model, g_train, split, cfg, forward=stamped, record_history=True)
        end = r.clock()
        r.add("run_s", end - t0)
        r.ops += 1
        for seconds in epoch_times(starts, end, len(result.history)):
            r.add("epoch_s", seconds)
        # further set-ups between the timed calls spread their samples over the round
        self._setup(r)
        for _ in range(self.INFERENCES):
            hg, hf = r.timed("infer_s", self._infer, model, alt_inf)
        self._setup(r)
        self.state = (model, g_inf, alt_inf, hg, hf, result)

    @staticmethod
    def _infer(model, alt):
        hg, hf = model.forward(alt)
        model.logits(hg)
        return hg, hf

    def check(self, first):
        model, g_inf, alt_inf, hg, hf, result = self.state
        errors = checks.at_least("test accuracy", result.values[self.seed], 2 / inputs.CLASSES)
        hist = result.history
        if not hist[-1] < hist[0]:
            errors.append(f"validation loss did not fall: {hist}")
        if first:
            if graph.project_back(alt_inf) != g_inf.feats:
                errors.append("project_back(to_allotropic(g)) != g.feats")
            errors += checks.forward_matches_reference("sage inference forward", model,
                                                       g_inf, alt_inf, hg, hf)
        return errors


class ContinualEwc:
    """continual.run_stream with EWC on the c11 graph and stream; the seed
    picks the model initialisation and the train/val/test split."""

    name = "continual-c11-ewc"
    WARMUP = 0  # its first round is no slower than the next ones
    GRAPH = dict(n=500, classes=4, feats_per_class=6, p_in=0.02, p_out=0.004,
                 density=0.45, noise=0.15, seed=1)
    STREAM = dict(T=9, p_n=0.03, p_f_add=0.05, p_f_del=0.4, p_e_add=0.0005,
                  p_e_del=0.0005, seed=7)
    INFERENCES = 20  # per timestamp after t=1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfg = continual.StreamConfig(epochs=150, stream_epochs=50, lr=0.01, lam=1e5,
                                          u_size=25, dim=8, layers=2, seed=seed)
        # the graph and stream are fixed, so every round sees these snapshots
        self.g1 = synth.make_community_graph(**self.GRAPH)
        self.deltas = stream.generate_stream(self.g1, **self.STREAM)
        self.snapshots = [self.g1]
        for delta in self.deltas:
            self.snapshots.append(stream.apply_delta(self.snapshots[-1], delta)[0])
        self.alt_final = graph.to_allotropic(self.snapshots[-1])
        # inference runs the previous round's final model; before the first
        # round ends, an untrained one of the same shape
        cfg = self.cfg
        self.model = model_mod.GrafenneModel(
            model_mod.GrafenneConfig(layers=cfg.layers, dim=cfg.dim, phase2=cfg.phase2,
                                     seed=cfg.seed), self.g1.num_classes)

    def _setup(self, r):
        t0 = r.clock()
        g1 = synth.make_community_graph(**self.GRAPH)
        deltas = stream.generate_stream(g1, **self.STREAM)
        r.add("setup_s", r.clock() - t0)
        return g1, deltas

    def _paced(self, deltas, r, updates):
        """Hand run_stream its deltas one by one. The time from one request
        for a delta to the next is one timestamp's update (apply_delta,
        importance, adaptation, evaluation); it goes to `updates`. Between
        timestamps, outside those times, one set-up and INFERENCES forwards
        run, so that their samples are spread over the round."""
        start = None
        for delta in deltas:
            if start is not None:
                updates.append(r.clock() - start)
            self._setup(r)
            for _ in range(self.INFERENCES):
                r.timed("infer_s", self._infer)
            start = r.clock()
            yield delta
        updates.append(r.clock() - start)

    def _infer(self):
        model = self.model
        return model.logits(model.forward(self.alt_final)[0])

    def round(self, r):
        g1, deltas = self._setup(r)
        updates = []
        records, model = continual.run_stream(g1, self._paced(deltas, r, updates), "EWC",
                                              self.cfg)
        r.ops += 1
        # a timestamp whose delta touches no training node skips adaptation;
        # only timestamps that adapted are samples
        for rec, update in zip(records[1:], updates):
            if rec.params_changed > 0:
                r.add("run_s", update)
                # adaptation time per epoch, as run_stream records it (the EWC
                # importance pass included)
                r.add("epoch_s", rec.seconds / self.cfg.stream_epochs)
        self.model = model
        self.state = (records, model)

    def check(self, first):
        records, model = self.state
        errors = []
        if [rec.t for rec in records] != [1] + [d.t for d in self.deltas]:
            errors.append(f"records for timestamps {[rec.t for rec in records]}")
        for rec in records:
            errors += checks.at_least(f"accuracy at t={rec.t}", rec.accuracy, 1.5 / 4)
        train = set(graph.make_split(self.g1, self.cfg.split_fractions, seed=self.seed).train)
        if records[0].params_changed <= 0:
            errors.append("parameters did not change at t=1")
        for delta, snap, rec in zip(self.deltas, self.snapshots[1:], records[1:]):
            affected = {v for v in checks.touched_nodes(delta) if v in train and v in snap.labels}
            if affected and rec.params_changed <= 0:
                errors.append(f"t={delta.t}: {len(affected)} affected training nodes but "
                              "no parameter changed")
        if first:
            replay = checks.SetGraph(self.g1)
            for delta, snap in zip(self.deltas, self.snapshots[1:]):
                errors += replay.apply(delta)
                errors += replay.differences(snap, delta.t)
            g_last = self.snapshots[-1]
            alive = sorted(v for v in train if v in g_last.labels)
            u = continual.sample_U(alive, min(self.cfg.u_size, len(alive)), seed=self.seed)
            omega = continual.compute_importance(model, g_last, u)
            bad = [k for k, w in omega.items() if not (np.isfinite(w).all() and (w >= 0).all())]
            if bad:
                errors.append(f"importance not finite and >= 0 for {bad[:3]}")
        return errors


class CliGrid:
    """grafenne.cli.main(["run", ...]) over five cells on a smaller
    Cora-like graph written as TSV files."""

    name = "cli-baseline-grid"
    WARMUP = 1
    N, M, EDGES = 700, 600, 1364
    METHODS = ("grafenne_gat", "grafenne_gin", "vanilla_alt", "gat", "fp+sage")
    P = 0.5
    EPOCHS = 4
    DIM, LAYERS, LR = 32, 2, 0.01
    FP_ITERATIONS = 40

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        data = inputs.cora_like(seed, self.N, self.M, self.EDGES)
        paths = inputs.write_tsvs(data, self.workdir)
        self.config = self.workdir / "grid.conf"
        self.config.write_text(
            "dataset = cora-like-small\n"
            + "".join(f"{key} = {path}\n" for key, path in paths.items())
            + f"methods = {','.join(self.METHODS)}\np = {self.P}\nseeds = {seed}\n"
            f"epochs = {self.EPOCHS}\npatience = {self.EPOCHS}\nlr = {self.LR}\n"
            f"dim = {self.DIM}\nlayers = {self.LAYERS}\nfp_iterations = {self.FP_ITERATIONS}\n"
            "timing = wall\n", encoding="utf-8")
        g = cli.build_graph(cli.read_config(str(self.config), cli._SCHEMAS["run"]))
        self.g_masked = graph.apply_missing_mask(g, self.P, seed)
        self.models = [tasks.method_model(m, self.g_masked, "node_classification",
                                          dim=self.DIM, layers=self.LAYERS, seed=seed,
                                          fp_iterations=self.FP_ITERATIONS)
                       for m in self.METHODS]

    def _setup(self, r):
        t0 = r.clock()
        cli.build_graph(cli.read_config(str(self.config), cli._SCHEMAS["run"]))
        r.add("setup_s", r.clock() - t0)

    def _infer(self, r):
        r.timed("infer_s", lambda: [model.logits(fwd()) for model, fwd in self.models])

    def round(self, r):
        # set-ups and inferences alternate with the timed run, so that their
        # samples are spread over the round
        self._setup(r)
        self._infer(r)
        out = self.workdir / "grid.csv"
        argv = ["run", "--config", str(self.config), "--out", str(out), "--workers", "1"]
        code = r.timed("run_s", cli.main, argv)
        r.ops += len(self.METHODS) - 1
        rows = []
        if code == 0:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        cells = [row for row in rows if row["seed"] == str(self.seed)]
        if len(cells) == len(self.METHODS):
            trained = sum(float(row["seconds"]) for row in cells)
            r.add("epoch_s", trained / (len(self.METHODS) * self.EPOCHS))
        self._setup(r)
        self._infer(r)
        self._setup(r)
        self.state = (code, cells)

    def check(self, first):
        code, cells = self.state
        if code != 0:
            return [f"grafenne run exited with {code}"]
        errors = []
        if sorted(row["method"] for row in cells) != sorted(self.METHODS):
            errors.append(f"CSV has cells {[row['method'] for row in cells]}, "
                          f"expected one per {self.METHODS}")
        for row in cells:
            value = float(row["value"])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                errors.append(f"{row['method']}: value {row['value']} outside [0, 1]")
        if first:
            g = self.g_masked
            dense = imputation.feature_propagation(g, iterations=self.FP_ITERATIONS)
            errors += checks.feature_propagation_matches(dense, g, self.FP_ITERATIONS)
            alt = graph.to_allotropic(g)
            for method, (model, _) in zip(self.METHODS, self.models):
                if method in ("grafenne_gat", "grafenne_gin"):
                    hg, hf = model.forward(alt)
                    errors += checks.forward_matches_reference(f"{method} forward", model,
                                                               g, alt, hg, hf)
        return errors


WORKLOADS = {w.name: w for w in (StaticCoraLike, ContinualEwc, CliGrid)}
