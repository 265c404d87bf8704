"""Acceptance gate: one pass/fail line per criterion (see the terminal
summary section at the end of the pytest run).

The Cora criteria read data/cora/{edges,features,labels}.tsv. Without the
dataset they fail with a diagnostic instead of silently skipping — prepare
it with: python3 scripts/prepare_cora.py <raw download dir> data/cora
"""

import inspect
import time
from pathlib import Path

import numpy as np

import grafenne.tensor as T
from grafenne.cli import main as cli_main
from grafenne.continual import StreamConfig, run_stream, _sum_loss, _train_plain
from grafenne.graph import Edges, load_graph, make_split, project_back, to_allotropic
from grafenne.model import GrafenneConfig, GrafenneModel
from grafenne.stream import StreamDelta, apply_delta, generate_stream
from grafenne.synth import make_community_graph
from grafenne.tasks import TrainConfig, run_experiment
from grafenne.optim import zero_grad

from conftest import ACCEPTANCE
from naive_ref import naive_forward
from probe import mean_all, recovery_probe, sub
from test_graph import random_graph, toy, translate_features
from test_stream import C11_GRAPH, C11_STREAM

CORA = Path(__file__).resolve().parent.parent / "data" / "cora"
CORA_MISSING = ("dataset not present at data/cora; "
                "run scripts/prepare_cora.py <raw download dir> data/cora")


def check(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else "")
    ACCEPTANCE.append(line)
    print(line)
    assert ok, line


# ----------------------------------------------------- 1: gradient suite

_DIFF_OPS = ("add", "sub", "mul", "matmul", "reshape", "concat", "leaky_relu",
             "relu", "gather_rows", "slice_rows", "segment_sum",
             "segment_softmax", "spmm", "attention", "sage", "stack_rows", "sum_all",
             "mean_all", "mlp", "cross_entropy", "bce_with_logits", "ewc_penalty")


class _Builder:
    """Random composed computation graph, replayable for finite differences."""

    def __init__(self, rng):
        self.rng = rng
        self.params = []
        self.steps = []   # fn(list of built tensors) -> Tensor
        self.shapes = []

    def leaf(self, shape, scale=1.0):
        raw = self.rng.uniform(0.2, 1.5, size=shape) * self.rng.choice(
            [-1.0, 1.0], size=shape)
        p = T.Parameter(np.asarray(raw * scale), f"leaf{len(self.params)}")
        self.params.append(p)
        self._emit(lambda ts, p=p: p, tuple(np.shape(p.values)))
        return len(self.shapes) - 1

    def _emit(self, fn, shape):
        self.steps.append(fn)
        self.shapes.append(shape)

    def pick(self, pred=None):
        idxs = [i for i, s in enumerate(self.shapes) if pred is None or pred(s)]
        if not idxs:
            return None
        return int(self.rng.choice(idxs))

    def replay(self):
        ts = []
        for fn in self.steps:
            ts.append(fn(ts))
        return ts


# the ops c01 composes that only tests use, kept beside the probe
_TEST_OPS = {"sub": sub, "mean_all": mean_all}


def _dim(rng):
    return int(rng.integers(2, 9))


def _apply_op(b, name):
    rng = b.rng
    if name in ("add", "sub", "mul"):
        i = b.pick()
        j = b.pick(lambda s, ref=b.shapes[i]: s == ref)
        fn = _TEST_OPS.get(name) or getattr(T, name)
        b._emit(lambda ts, i=i, j=j, fn=fn: fn(ts[i], ts[j]), b.shapes[i])
    elif name == "matmul":
        i = b.pick(lambda s: len(s) == 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        k = b.shapes[i][1]
        j = b.leaf((k, _dim(rng)), scale=1.0 / k)
        b._emit(lambda ts, i=i, j=j: T.matmul(ts[i], ts[j]),
                (b.shapes[i][0], b.shapes[j][1]))
    elif name == "reshape":
        i = b.pick()
        size = int(np.prod(b.shapes[i])) if b.shapes[i] else 1
        new = (size,) if len(b.shapes[i]) != 1 else (1, size)
        b._emit(lambda ts, i=i, new=new: T.reshape(ts[i], new), new)
    elif name == "concat":
        i = b.pick(lambda s: len(s) >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        s = b.shapes[i]
        b._emit(lambda ts, i=i: T.concat([ts[i], ts[i]], axis=0),
                (2 * s[0],) + s[1:])
    elif name in ("leaky_relu", "relu"):
        i = b.pick()
        fn = getattr(T, name)
        b._emit(lambda ts, i=i, fn=fn: fn(ts[i]), b.shapes[i])
    elif name == "gather_rows":
        i = b.pick(lambda s: len(s) >= 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        n = b.shapes[i][0]
        idx = rng.integers(0, n, size=int(rng.integers(1, 9)))
        b._emit(lambda ts, i=i, idx=idx: T.gather_rows(ts[i], idx),
                (len(idx),) + b.shapes[i][1:])
    elif name == "slice_rows":
        i = b.pick(lambda s: len(s) >= 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        n = b.shapes[i][0]
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        b._emit(lambda ts, i=i, lo=lo, hi=hi: T.slice_rows(ts[i], lo, hi),
                (hi - lo,) + b.shapes[i][1:])
    elif name == "segment_sum":
        i = b.pick(lambda s: len(s) >= 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        n = b.shapes[i][0]
        k = int(rng.integers(1, min(4, n) + 1))
        ids = rng.integers(0, k, size=n)
        b._emit(lambda ts, i=i, ids=ids, k=k: T.segment_sum(ts[i], ids, k),
                (k,) + b.shapes[i][1:])
    elif name == "segment_softmax":
        i = b.pick(lambda s: len(s) == 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        n = b.shapes[i][0]
        k = int(rng.integers(1, min(3, n) + 1))
        ids = np.sort(rng.integers(0, k, size=n))
        # softmax alone has zero row sums in the gradient; mix it back in
        b._emit(lambda ts, i=i, ids=ids, k=k:
                T.mul(T.segment_softmax(ts[i], ids, k), ts[i]), (n,))
    elif name == "spmm":
        i = b.pick(lambda s: len(s) == 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        n = b.shapes[i][0]
        e = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        rows = np.sort(rng.integers(0, k, size=e))  # rows never hit are empty
        cols = rng.integers(0, n, size=e)           # columns repeat
        edges = Edges(cols, rows, (k, n))
        if rng.random() < 0.5:
            alpha = rng.uniform(-1.5, 1.5, size=e)  # constant weights
            b._emit(lambda ts, i=i, a=alpha, edges=edges:
                    T.spmm(a, edges, ts[i]), (k, b.shapes[i][1]))
        else:
            j = b.leaf((e,))                        # learned weights
            b._emit(lambda ts, i=i, j=j, edges=edges:
                    T.spmm(ts[j], edges, ts[i]), (k, b.shapes[i][1]))
    elif name == "attention":
        i = b.pick(lambda s: len(s) == 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        n, c = b.shapes[i]
        d, o = _dim(rng), _dim(rng)
        e = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        rows = np.sort(rng.integers(0, k, size=e))  # rows never hit are empty
        cols = rng.integers(0, n, size=e)           # columns repeat
        edges = Edges(cols, rows, (k, n))
        w_src, w_msg = b.leaf((c, d), scale=1.0 / c), b.leaf((c, o), scale=1.0 / c)
        if rng.random() < 0.5:                      # with an edge channel
            coef = rng.uniform(-1.5, 1.5, size=(e, 2))
            w_att, w_edge = b.leaf((2 * d,)), b.leaf((d,))
            b._emit(lambda ts, i=i, ws=(w_src, w_att, w_msg), we=w_edge, c=coef, edges=edges:
                    T.attention(ts[i], edges, *(ts[w] for w in ws), 0.2, c, ts[we]), (k, o))
        else:
            w_att = b.leaf((d,))
            b._emit(lambda ts, i=i, ws=(w_src, w_att, w_msg), edges=edges:
                    T.attention(ts[i], edges, *(ts[w] for w in ws), 0.2), (k, o))
    elif name == "sage":
        i = b.pick(lambda s: len(s) == 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        n, c = b.shapes[i]
        e = int(rng.integers(1, 9))
        rows = np.sort(rng.integers(0, n, size=e))  # rows never hit are empty
        edges = Edges(rng.integers(0, n, size=e), rows, (n, n))
        inv_deg = (1.0 / np.maximum(np.diff(edges.indptr), 1)).reshape(-1, 1)
        o = _dim(rng)
        w = b.leaf((2 * c, o), scale=1.0 / (2 * c))
        b._emit(lambda ts, i=i, w=w, edges=edges, inv_deg=inv_deg:
                T.sage(ts[i], edges, inv_deg, ts[w]), (n, o))
    elif name == "stack_rows":
        i = b.pick(lambda s: len(s) == 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        b._emit(lambda ts, i=i: T.stack_rows([ts[i], ts[i]]),
                (2,) + b.shapes[i])
    elif name in ("sum_all", "mean_all"):
        i = b.pick()
        fn = _TEST_OPS.get(name) or getattr(T, name)
        b._emit(lambda ts, i=i, fn=fn: fn(ts[i]), ())
    elif name == "mlp":
        i = b.pick(lambda s: len(s) == 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        k, h, o = b.shapes[i][1], _dim(rng), _dim(rng)
        ws = [b.leaf((k, h), scale=1.0 / k), b.leaf((h,)),
              b.leaf((h, o), scale=1.0 / h), b.leaf((o,))]
        b._emit(lambda ts, i=i, ws=ws:
                T.mlp(ts[i], [ts[w] for w in ws]), (b.shapes[i][0], o))
    elif name == "cross_entropy":
        i = b.pick(lambda s: len(s) == 2 and s[1] >= 2)
        if i is None:
            i = b.leaf((_dim(rng), _dim(rng)))
        n, c = b.shapes[i]
        labels = rng.integers(0, c, size=n)
        b._emit(lambda ts, i=i, labels=labels: T.cross_entropy(ts[i], labels), ())
    elif name == "bce_with_logits":
        i = b.pick(lambda s: len(s) == 1 and s[0] >= 1)
        if i is None:
            i = b.leaf((_dim(rng),))
        t = rng.integers(0, 2, size=b.shapes[i][0]).astype(float)
        b._emit(lambda ts, i=i, t=t: T.bce_with_logits(ts[i], t), ())
    elif name == "ewc_penalty":
        picks = sorted({b.pick() for _ in range(int(rng.integers(1, 4)))})
        shapes = [b.shapes[i] for i in picks]
        anchors = [rng.normal(size=s) for s in shapes]
        weights = [rng.uniform(0.0, 2.0, size=s) * (rng.random(size=s) < 0.7)
                   for s in shapes]  # some ω = 0
        a, w = (np.concatenate([np.ravel(x) for x in xs]) for xs in (anchors, weights))
        b._emit(lambda ts, picks=picks, a=a, w=w:
                T.ewc_penalty([ts[i] for i in picks], a, w), ())
    else:  # pragma: no cover
        raise AssertionError(name)


def _trial_loss(b):
    ts = b.replay()
    total = None
    for t in ts:
        term = T.sum_all(T.mul(t, t))
        total = term if total is None else T.add(total, term)
    return total


def _fd_step(loss):
    """The central-difference step for a program whose loss is `loss`:
    1e-6, grown as the cube root of |loss| above 1. The loss carries a
    rounding error of about |loss| * 1e-16, which a fixed step divides by
    2e-6 alone; this step keeps that term and the truncation error both
    small."""
    return 1e-6 * max(1.0, abs(loss)) ** (1.0 / 3.0)


def _fd_check(b, step=_fd_step):
    """The worst relative error between backward's gradients of b's program
    and its central differences of step step(loss), and where it is."""
    loss = _trial_loss(b)
    zero_grad(b.params)
    T.backward(loss)
    grads = [p.grad.copy() for p in b.params]
    h = step(loss.item())
    worst, where = 0.0, None
    for p, g in zip(b.params, grads):
        flat = p.values.ravel()
        gflat = np.asarray(g).ravel()
        for e in range(flat.size):
            keep = flat[e]
            flat[e] = keep + h
            up = float(_trial_loss(b).values)
            flat[e] = keep - h
            dn = float(_trial_loss(b).values)
            flat[e] = keep
            fd = (up - dn) / (2 * h)
            rel = abs(gflat[e] - fd) / max(abs(gflat[e]), abs(fd), 1.0)
            if rel >= worst:
                worst, where = rel, (p.name, e, gflat[e], fd)
    return worst, where


def test_c01_gradient_suite():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        b = _Builder(rng)
        b.leaf((_dim(rng),))
        b.leaf((_dim(rng), _dim(rng)))
        depth = int(rng.integers(3, 7))
        for step in range(depth):
            name = _DIFF_OPS[trial % len(_DIFF_OPS)] if step == 0 \
                else _DIFF_OPS[int(rng.integers(0, len(_DIFF_OPS)))]
            _apply_op(b, name)
        rel, where = _fd_check(b)
        worst = max(worst, rel)
        assert rel <= 1e-4, (trial, *where)
    elapsed = time.perf_counter() - t0
    check("c01 gradient suite", worst <= 1e-4 and elapsed < 60.0,
          f"200 graphs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c01_step_scales_with_a_large_loss():
    """A loss near 1e7 rounds to about 2e-9: at a fixed 1e-6 step that is
    an error near 1e-3 in a gradient near 1, which the scaled step keeps
    below the gate's 1e-4."""
    b = _Builder(np.random.default_rng(5))
    b.leaf((3,), scale=2000.0)  # squares near 3e6 each
    b.leaf((2, 3))              # gradients 2x, between 0.4 and 3
    loss = _trial_loss(b).item()
    assert 1e6 < loss < 1e8
    fixed, _ = _fd_check(b, step=lambda loss: 1e-6)
    scaled, _ = _fd_check(b)
    assert fixed > 1e-4 >= scaled
def test_c01_covers_every_tape_op():
    """Every public tensor function that builds a tape node through _node
    is one of the ops c01 composes."""
    tape_ops = {name for name, fn in vars(T).items()
                if inspect.isfunction(fn) and fn.__module__ == T.__name__
                and not name.startswith("_") and "_node" in fn.__code__.co_names}
    assert {"matmul", "spmm", "attention", "sage", "mlp", "ewc_penalty"} <= tape_ops
    assert tape_ops <= set(_DIFF_OPS), sorted(tape_ops - set(_DIFF_OPS))


# ------------------------------------------- 2: transformation oracle


def test_c02_transformation_oracle():
    rng = np.random.default_rng(64)
    t0 = time.perf_counter()
    for _ in range(100):
        g = random_graph(rng, n_max=50)
        alt = to_allotropic(g)
        stored = sum(len(f) for f in g.feats.values())
        assert alt.n + alt.m == len(g.nodes) + len(g.feature_ids())
        assert len(alt.graph_edge_array) + len(alt.feat_to_node) == len(g.edges) + stored
        assert project_back(alt) == g.feats
    check("c02 transformation oracle", True,
          f"100 graphs, {time.perf_counter() - t0:.2f}s")


# ------------------------------------- 3: hand-evaluation equivalence


def test_c03_hand_evaluation():
    g = toy()
    model = GrafenneModel(GrafenneConfig(layers=2, dim=3, phase2="sage", seed=42))
    hg, hf = model.forward(to_allotropic(g))
    hg_ref, hf_ref = naive_forward(model, g)
    worst = 0.0
    for i, v in enumerate(g.nodes):
        worst = max(worst, np.abs(hg.values[i] - hg_ref[v]).max())
    for i, f in enumerate(g.feature_ids()):
        worst = max(worst, np.abs(hf.values[i] - hf_ref[f]).max())
    check("c03 hand-evaluation equivalence", worst <= 1e-9,
          f"max |model - scripted| = {worst:.2e}")


# ------------------------------------------------------ 4: inductivity


def test_c04_inductivity():
    g = make_community_graph(n=30, classes=2, feats_per_class=4, p_in=0.15,
                             p_out=0.02, density=0.9, noise=0.0, seed=11)
    model = GrafenneModel(GrafenneConfig(layers=2, dim=8, phase2="sage", seed=0),
                          g.num_classes)
    split = make_split(g, (0.6, 0.2, 0.2), seed=0)
    pool = sorted(split.train)
    fwd = lambda: model.forward(to_allotropic(g))[0]
    task = _sum_loss(model, g, pool)
    _train_plain(model, fwd, lambda h: T.mul(task(h), 1.0 / len(pool)), epochs=30, lr=0.01)
    count = sum(p.values.size for p in model.params.values())

    base = max(g.nodes) + 1
    new_nodes = tuple((base + i, None) for i in range(5))
    new_feats = tuple((base + i, 900 + (i % 3), 0.7) for i in range(5))
    g2, _ = apply_delta(g, StreamDelta(
        t=2, add_nodes=new_nodes, add_feats=new_feats,
        add_edges=tuple((base + i, i) for i in range(5))))
    hg, hf = model.forward(to_allotropic(g2))
    ok = (np.isfinite(hg.values).all() and np.isfinite(hf.values).all()
          and sum(p.values.size for p in model.params.values()) == count)
    check("c04 inductivity", bool(ok),
          "5 unseen nodes + 3 unseen features; outputs finite, "
          f"non-embedding params {count} unchanged")


# ------------------------------------------------- 5: feature recovery


def test_c05_feature_recovery():
    trained, untrained = recovery_probe(d=4, trials=256, seed=0)
    check("c05 feature recovery", trained < 1e-2 and untrained > trained,
          f"trained MSE {trained:.4f} < 1e-2, untrained {untrained:.2f}")


# ------------------------------------------------------ Cora machinery

_cora_runs = {}


def cora_graph():
    paths = [CORA / f"{n}.tsv" for n in ("edges", "features", "labels")]
    if not all(p.exists() for p in paths):
        return None
    return load_graph(*paths)


def cora_run(method, task="node_classification", p=0.0, scale=None):
    key = (method, task, p, scale)
    if key not in _cora_runs:
        g = cora_graph()
        if scale is not None:
            g = translate_features(g, scale, 0.0)
        cfg = TrainConfig(task=task, epochs=1000, lr=1e-4,
                          seeds=(0, 1, 2, 3, 4), patience=200)
        _cora_runs[key] = run_experiment(g, method, p=p, cfg=cfg, dim=64, layers=2)
    return _cora_runs[key]


def test_c06_cora_reproduction():
    if cora_graph() is None:
        check("c06 cora reproduction", False, CORA_MISSING)
    means = {p: 100.0 * cora_run("grafenne", p=p).mean for p in (0.0, 0.5, 0.99)}
    ok = means[0.0] >= 82.0 and means[0.5] >= 79.0 and means[0.99] >= 73.0
    check("c06 cora reproduction", ok,
          f"p=0: {means[0.0]:.2f} (>=82), p=0.5: {means[0.5]:.2f} (>=79), "
          f"p=0.99: {means[0.99]:.2f} (>=73)")


def test_c07_baseline_ordering_p99():
    if cora_graph() is None:
        check("c07 baseline ordering p=0.99", False, CORA_MISSING)
    graf = 100.0 * cora_run("grafenne", p=0.99).mean
    sage = 100.0 * cora_run("sage", p=0.99).mean
    fpg = 100.0 * cora_run("fp+grafenne", p=0.99).mean
    ok = graf - sage >= 3.0 and fpg >= graf
    check("c07 baseline ordering p=0.99", ok,
          f"grafenne {graf:.2f} vs sage {sage:.2f} (gap >= 3); "
          f"fp+grafenne {fpg:.2f} >= grafenne")


def test_c08_ablation_vs_vanilla_alt():
    if cora_graph() is None:
        check("c08 ablation vs vanilla-on-alt", False, CORA_MISSING)
    graf = 100.0 * cora_run("grafenne", p=0.0).mean
    van = 100.0 * cora_run("vanilla_alt", p=0.0).mean
    check("c08 ablation vs vanilla-on-alt", graf - van >= 3.0,
          f"grafenne {graf:.2f} vs vanilla_alt {van:.2f} (gap >= 3)")


def test_c09_link_prediction():
    if cora_graph() is None:
        check("c09 link prediction AUCROC", False, CORA_MISSING)
    auc = cora_run("grafenne", task="link_prediction").mean
    check("c09 link prediction AUCROC", auc >= 0.84, f"AUCROC {auc:.4f} >= 0.84")


def test_c10_translation_robustness():
    if cora_graph() is None:
        check("c10 translation robustness", False, CORA_MISSING)
    plain = 100.0 * cora_run("grafenne", p=0.0).mean
    scaled = 100.0 * cora_run("grafenne", p=0.0, scale=10.0).mean
    check("c10 translation robustness", abs(plain - scaled) <= 1.5,
          f"x10 features: {scaled:.2f} vs {plain:.2f} (|diff| <= 1.5)")


# ------------------------------------------------ 11: continual stream


def test_c11_continual_ordering():
    t0 = time.perf_counter()
    g = make_community_graph(**C11_GRAPH)
    deltas = generate_stream(g, **C11_STREAM)
    base = dict(epochs=150, stream_epochs=50, lr=0.01, u_size=25, dim=8,
                layers=2, seed=0)
    ft, m_ft = run_stream(g, deltas, "FT", StreamConfig(**base))
    ewc, _ = run_stream(g, deltas, "EWC", StreamConfig(lam=100000.0, **base))
    oracle, _ = run_stream(g, deltas, "ORACLE", StreamConfig(**base))
    lam0, m_lam0 = run_stream(g, deltas, "EWC", StreamConfig(lam=0.0, **base))
    elapsed = time.perf_counter() - t0

    f_ft, f_ewc, f_or = ft[-1].accuracy, ewc[-1].accuracy, oracle[-1].accuracy
    same_traj = [r.accuracy for r in lam0] == [r.accuracy for r in ft]
    pf = {p.name: p.values for p in m_ft.trainable_parameters()}
    pl = {p.name: p.values for p in m_lam0.trainable_parameters()}
    same_params = (pf.keys() == pl.keys()
                   and all(np.array_equal(pf[k], pl[k]) for k in pf))
    ok = (f_or >= f_ewc >= f_ft and (f_ewc - f_ft) >= 0.02
          and same_traj and same_params and elapsed < 600.0)
    check("c11 continual ordering", bool(ok),
          f"final acc ORACLE {f_or:.3f} >= EWC {f_ewc:.3f} >= FT {f_ft:.3f}, "
          f"EWC-FT {100 * (f_ewc - f_ft):.1f} pts (>=2), lam=0 == FT: "
          f"{same_traj and same_params}, {elapsed:.0f}s (<600)")


# ---------------------------------------------------- 12: determinism


def test_c12_determinism(tmp_path):
    conf = tmp_path / "cell.conf"
    data = Path(__file__).resolve().parent.parent / "data" / "toy"
    conf.write_text(
        f"edges = {data/'edges.tsv'}\nfeatures = {data/'features.tsv'}\n"
        f"labels = {data/'labels.tsv'}\ndataset = toy\nmethods = grafenne\n"
        "p = 0.5\nseeds = 0,1\nepochs = 15\nlr = 0.01\ndim = 8\nlayers = 2\n"
        "patience = 15\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(conf), "--out", str(b)]) == 0
    check("c12 determinism", a.read_bytes() == b.read_bytes(),
          "rerun with same seed emits byte-identical CSV")
