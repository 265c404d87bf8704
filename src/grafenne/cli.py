"""Experiment runner CLI.

Four subcommands: ``run`` (static experiments), ``stream`` (continual
experiments over a drift stream), ``transform`` (allotropic dump),
``translate`` (feature-file rescaling). Each takes a flat ``key = value``
config file; the key tables live in each subcommand's ``--help``. Unknown
and duplicate keys are hard errors — silent typos corrupt experiments.
Only ``run`` and ``stream`` take ``--seed`` and ``--workers``.

Exit codes: 0 success, 2 config/usage error, 3 data error, 4 numerical
error (a NaN or infinite training or validation loss, or a parameter
left non-finite by training). A NaN or infinite number is a config error
in a float key and a data error in a feature value.
"""

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .continual import (STRATEGIES, StreamConfig, run_stream, stream_rows,
                        write_stream_csv)
from .graph import (DataError, GraphError, feature_value, load_graph, to_allotropic,
                    write_allotropic)
from .stream import generate_stream
from .synth import make_community_graph
from .tasks import (METHODS, TASKS, RunResult, TrainConfig, result_rows,
                    run_experiment, write_results_csv)


class ConfigError(ValueError):
    """Bad config file: unknown/duplicate/missing keys or invalid values."""


REQUIRED = object()


def _float(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


def _bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_KINDS = {
    "int": int,
    "float": _float,
    "str": str,
    "bool": _bool,
    "ints": lambda s: tuple(int(x) for x in s.split(",")),
    "floats": lambda s: tuple(_float(x) for x in s.split(",")),
    "strs": lambda s: tuple(x.strip() for x in s.split(",")),
}

# shared graph-source keys: either three TSV paths or a synthetic recipe
_SOURCE_KEYS = (
    ("edges", "str", None, "edge TSV: node<TAB>node"),
    ("features", "str", None, "feature TSV: node<TAB>feature<TAB>value"),
    ("labels", "str", None, "label TSV: node<TAB>class"),
    ("synth_nodes", "int", None, "synthetic graph size (alternative to TSVs)"),
    ("synth_classes", "int", 2, "synthetic class count"),
    ("synth_feats_per_class", "int", 5, "indicator features per class"),
    ("synth_p_in", "float", 0.05, "within-community edge probability"),
    ("synth_p_out", "float", 0.005, "cross-community edge probability"),
    ("synth_density", "float", 0.7, "per-node own-class feature retention"),
    ("synth_noise", "float", 0.02, "foreign-class feature probability"),
    ("synth_seed", "int", 0, "synthetic generator seed"),
)

_SCHEMAS = {
    "run": _SOURCE_KEYS + (
        ("dataset", "str", "dataset", "dataset name written into the CSV"),
        ("task", "str", "node_classification",
         "node_classification | link_prediction"),
        ("methods", "strs", REQUIRED, "comma list from: " + ", ".join(METHODS)),
        ("p", "floats", (0.0,), "comma list of missing-feature rates in [0,1]"),
        ("seeds", "ints", (0, 1, 2, 3, 4), "comma list of run seeds"),
        ("epochs", "int", 1000, "max training epochs"),
        ("lr", "float", 1e-4, "Adam learning rate"),
        ("patience", "int", 200, "early-stopping patience (epochs)"),
        ("neg_ratio", "float", 1.0, "link task: negatives per positive"),
        ("dim", "int", 64, "hidden width"),
        ("layers", "int", 2, "layer count"),
        ("fp_iterations", "int", 40, "feature-propagation iterations"),
        ("caps", "ints", (0, 0, 0), "sampling caps per phase (0 = no cap)"),
        ("timing", "str", "none", "none (byte-stable CSV) | wall"),
        ("out", "str", None, "output CSV path (or --out)"),
    ),
    "stream": _SOURCE_KEYS + (
        ("strategies", "strs", STRATEGIES,
         "comma list from: " + ", ".join(STRATEGIES)),
        ("T", "int", REQUIRED, "number of stream timestamps after t=1"),
        ("p_n", "float", 0.0, "per-timestamp node perturbation probability"),
        ("p_f_add", "float", 0.0, "feature addition probability"),
        ("p_f_del", "float", 0.0, "feature deletion probability"),
        ("p_e_add", "float", 0.0, "edge addition probability"),
        ("p_e_del", "float", 0.0, "edge deletion probability"),
        ("stream_seed", "int", 0, "delta-generator seed"),
        ("epochs", "int", 200, "full-training epochs (t=1 and ORACLE)"),
        ("stream_epochs", "int", 50, "per-timestamp adaptation epochs"),
        ("lr", "float", 0.01, "Adam learning rate"),
        ("lam", "float", 100000.0, "EWC penalty strength"),
        ("u_size", "int", 25, "EWC importance sample size |U|"),
        ("er_capacity", "int", None, "replay buffer capacity (default u_size)"),
        ("dim", "int", 32, "hidden width"),
        ("layers", "int", 2, "layer count"),
        ("phase2", "str", "sage", "sage | gat | gin"),
        ("seed", "int", 0, "model/split seed"),
        ("timing", "str", "none", "none (byte-stable CSV) | wall"),
        ("out", "str", None, "output CSV path (or --out)"),
    ),
    "transform": _SOURCE_KEYS + (
        ("out", "str", None, "output dump path (or --out)"),
    ),
    "translate": (
        ("features", "str", REQUIRED, "feature TSV to rewrite"),
        ("scale", "float", REQUIRED, "multiplier a in value <- a*value + b"),
        ("shift", "float", 0.0, "offset b"),
        ("out", "str", None, "output TSV path (or --out)"),
    ),
}


def read_config(path, schema):
    """Parse a flat key = value file against one subcommand's schema."""
    known = {key: (kind, default) for key, kind, default, _ in schema}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    cfg, seen = {}, set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; known keys: "
                              + ", ".join(sorted(known)))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        kind, _ = known[key]
        try:
            cfg[key] = _KINDS[kind](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad {key}: {e}") from None
    for key, (kind, default) in known.items():
        if key not in cfg:
            if default is REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            cfg[key] = default
    return cfg


def build_graph(cfg):
    """Load the TSV triple or generate the synthetic graph, exclusively."""
    tsv = [k for k in ("edges", "features", "labels") if cfg.get(k)]
    if tsv and cfg.get("synth_nodes") is not None:
        raise ConfigError("give either edges/features/labels or synth_nodes, not both")
    if tsv:
        if len(tsv) != 3:
            raise ConfigError("TSV input needs all of edges, features, labels")
        return load_graph(cfg["edges"], cfg["features"], cfg["labels"])
    if cfg.get("synth_nodes") is None:
        raise ConfigError("no graph source: set edges/features/labels or synth_nodes")
    return make_community_graph(
        n=cfg["synth_nodes"], classes=cfg["synth_classes"],
        feats_per_class=cfg["synth_feats_per_class"], p_in=cfg["synth_p_in"],
        p_out=cfg["synth_p_out"], density=cfg["synth_density"],
        noise=cfg["synth_noise"], seed=cfg["synth_seed"])


def _resolve_out(cfg, args):
    out = args.out if args.out else cfg.get("out")
    if not out:
        raise ConfigError("no output path: set --out or the 'out' key")
    return out


def _atomic(path, write_fn):
    tmp = f"{path}.tmp"
    write_fn(tmp)
    os.replace(tmp, path)


def _map_cells(fn, payloads, workers):
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))  # ex.map keeps submission order


def _run_cell(payload):
    g, method, p, tc, dim, layers, fp_iterations, caps = payload
    return run_experiment(g, method, p=p, cfg=tc, dim=dim, layers=layers,
                          fp_iterations=fp_iterations, caps=caps)


def cmd_run(cfg, args):
    for m in cfg["methods"]:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: " + ", ".join(METHODS))
    if cfg["task"] not in TASKS:
        raise ConfigError(f"unknown task {cfg['task']!r}")
    for p in cfg["p"]:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1], got {p}")
    if cfg["timing"] not in ("none", "wall"):
        raise ConfigError(f"timing must be none or wall, got {cfg['timing']!r}")
    if len(cfg["caps"]) != 3:
        raise ConfigError("caps needs exactly 3 integers")
    seeds = (args.seed,) if args.seed is not None else cfg["seeds"]
    train_cfg = TrainConfig(task=cfg["task"], epochs=cfg["epochs"], lr=cfg["lr"],
                            seeds=seeds, patience=cfg["patience"],
                            neg_ratio=cfg["neg_ratio"])
    try:
        train_cfg.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    out = _resolve_out(cfg, args)
    g = build_graph(cfg)

    payloads, index = [], []
    for method in cfg["methods"]:
        for p in cfg["p"]:
            for seed in seeds:
                tc = dataclasses.replace(train_cfg, seeds=(seed,))
                payloads.append((g, method, p, tc, cfg["dim"], cfg["layers"],
                                 cfg["fp_iterations"], tuple(cfg["caps"])))
                index.append((method, p, seed))
    results = dict(zip(index, _map_cells(_run_cell, payloads, args.workers)))

    rows = []
    for method in cfg["methods"]:
        for p in cfg["p"]:
            values, secs, metric = {}, {}, None
            for seed in seeds:
                res = results[(method, p, seed)]
                metric = res.metric
                values.update(res.values)
                secs.update(res.seconds_by_seed)
            merged = RunResult(metric, values, secs)
            rows.extend(result_rows(cfg["dataset"], method, cfg["task"], p,
                                    merged, timing=cfg["timing"]))
    _atomic(out, lambda tmp: write_results_csv(tmp, rows))
    return 0


def _stream_cell(payload):
    g, deltas, strategy, scfg = payload
    records, _ = run_stream(g, deltas, strategy, scfg)
    return records


def cmd_stream(cfg, args):
    strategies = tuple(s.upper() for s in cfg["strategies"])
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; known: " + ", ".join(STRATEGIES))
    if cfg["timing"] not in ("none", "wall"):
        raise ConfigError(f"timing must be none or wall, got {cfg['timing']!r}")
    for key in ("p_n", "p_f_add", "p_f_del", "p_e_add", "p_e_del"):
        if not 0.0 <= cfg[key] <= 1.0:
            raise ConfigError(f"{key} must lie in [0, 1], got {cfg[key]}")
    if cfg["T"] < 1:
        raise ConfigError("T must be >= 1")
    seed = args.seed if args.seed is not None else cfg["seed"]
    scfg = StreamConfig(epochs=cfg["epochs"], stream_epochs=cfg["stream_epochs"],
                        lr=cfg["lr"], lam=cfg["lam"], u_size=cfg["u_size"],
                        er_capacity=cfg["er_capacity"], dim=cfg["dim"],
                        layers=cfg["layers"], phase2=cfg["phase2"], seed=seed)
    try:
        scfg.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    out = _resolve_out(cfg, args)
    g = build_graph(cfg)
    deltas = generate_stream(g, T=cfg["T"], p_n=cfg["p_n"],
                             p_f_add=cfg["p_f_add"], p_f_del=cfg["p_f_del"],
                             p_e_add=cfg["p_e_add"], p_e_del=cfg["p_e_del"],
                             seed=cfg["stream_seed"])
    payloads = [(g, deltas, s, scfg) for s in strategies]
    per_strategy = _map_cells(_stream_cell, payloads, args.workers)
    rows = [row for records in per_strategy
            for row in stream_rows(records, timing=cfg["timing"])]
    _atomic(out, lambda tmp: write_stream_csv(tmp, rows))
    return 0


def cmd_transform(cfg, args):
    out = _resolve_out(cfg, args)
    alt = to_allotropic(build_graph(cfg))
    _atomic(out, lambda tmp: write_allotropic(alt, tmp))
    return 0


def cmd_translate(cfg, args):
    out = _resolve_out(cfg, args)
    path = cfg["features"]
    a, b = cfg["scale"], cfg["shift"]
    lines = []
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            lines.append(line if line.endswith("\n") else line + "\n")
            continue
        fields = stripped.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        name, fname, val = fields
        v = feature_value(val, path, lineno)
        lines.append(f"{name}\t{fname}\t{a * v + b!r}\n")

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    _atomic(out, write)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "stream": cmd_stream,
    "transform": cmd_transform,
    "translate": cmd_translate,
}

_BLURBS = {
    "run": "Static experiments: mask, train, evaluate; emits a results CSV.",
    "stream": "Continual experiments over a generated drift stream.",
    "transform": "Write the allotropic form of a dataset to a text dump.",
    "translate": "Rewrite a feature TSV as value <- scale*value + shift.",
}


def _schema_epilog(schema):
    width = max(len(k) for k, _, _, _ in schema)
    out = ["config keys:"]
    for key, kind, default, help_ in schema:
        if default is REQUIRED:
            d = "(required)"
        elif default is None:
            d = ""
        elif isinstance(default, tuple):
            d = f"[default {','.join(str(x) for x in default)}]"
        else:
            d = f"[default {default}]"
        out.append(f"  {key:<{width}}  {kind:<6} {help_} {d}".rstrip())
    out.append("\nLines are 'key = value'; '#' starts a comment line. Unknown or"
               "\nduplicate keys abort with exit code 2."
               "\n\nexit codes: 0 success, 2 configuration error, 3 data error,"
               "\n4 numerical error (a NaN or infinite training or validation loss, or a"
               "\nnon-finite parameter after training). NaN and infinite numbers are"
               "\nrejected in config files (2) and in feature files (3).")
    return "\n".join(out)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="grafenne",
        description="GRAFENNE experiment runner (deterministic per seed).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name, help=_BLURBS[name], description=_BLURBS[name],
                           epilog=_schema_epilog(schema),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", help="output path (overrides the 'out' key)")
        if name in ("run", "stream"):
            p.add_argument("--workers", type=int, default=1,
                           help="parallel experiment cells (default 1)")
            p.add_argument("--seed", type=int,
                           help="run: restrict to this single seed; stream: override "
                                "the seed key")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = read_config(args.config, _SCHEMAS[args.command])
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, GraphError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except FloatingPointError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
