"""Save and load a GRAFENNE or vanilla model as one .npz file: its config,
its named parameters and its feature embedding rows keyed by feature id.

No program path reads or writes this format; the tests use it to check
that a model's state is fully described by its parameters and embedding
rows, and that a file of another layout is rejected, not half-loaded.
"""

import json
from dataclasses import asdict

import numpy as np

from grafenne.model import GrafenneConfig, GrafenneModel, VanillaAltModel

CHECKPOINT_VERSION = 4


def save_checkpoint(model, path):
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": type(model).__name__,
        "config": asdict(model.config),
        "num_classes": model.num_classes,
    }
    table = model.table
    arrays = {f"p/{name}": p.values for name, p in model.params.items()}
    arrays.update({f"t/{f}": table.weight.values[r] for f, r in table.row.items()})
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _read_array(blob, key, shape):
    value = blob[key]
    if value.shape != shape:
        raise ValueError(f"checkpoint array {key!r} has shape {value.shape}, "
                         f"the model expects {shape}")
    return value


def load_checkpoint(path):
    with np.load(path) as blob:
        meta = json.loads(bytes(blob["__meta__"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        cls = {"GrafenneModel": GrafenneModel, "VanillaAltModel": VanillaAltModel}[meta["kind"]]
        model = cls(GrafenneConfig(**meta["config"]), meta["num_classes"])
        table = model.table
        rows = {}
        for key in blob.files:
            if key.startswith("p/"):
                name = key[2:]
                if name not in model.params:
                    raise ValueError(f"checkpoint parameter {name!r} unknown to model")
                model.params[name].values = _read_array(blob, key, model.params[name].shape)
            elif key.startswith("t/"):
                rows[int(key[2:])] = _read_array(blob, key, (table.dim,))
        table.ensure(rows)  # a fresh table appends rows in the saved order
        table.weight.values = np.array(list(rows.values())).reshape(-1, table.dim)
    return model
