"""Converter and experiment scripts, exercised on small fixtures."""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from grafenne.graph import load_graph

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=ROOT)


def test_prepare_linqs(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    # 4 nodes, 3 features, classes given as strings
    (raw / "cora.content").write_text(
        "31336\t1\t0\t1\tGenetic_Algorithms\n"
        "1061127\t0\t0\t1\tNeural_Networks\n"
        "1106406\t0\t1\t0\tNeural_Networks\n"
        "13195\t1\t1\t0\tGenetic_Algorithms\n")
    (raw / "cora.cites").write_text(
        "31336\t1061127\n"
        "1061127\t1106406\n"
        "13195\t13195\n"          # self-loop: dropped
        "31336\t99999\n")         # dangling endpoint: skipped with a note
    out = tmp_path / "tsv"
    proc = run_script("prepare_cora.py", str(raw), str(out))
    assert proc.returncode == 0, proc.stderr
    assert "skipped 1 cite lines" in proc.stderr

    g = load_graph(out / "edges.tsv", out / "features.tsv", out / "labels.tsv")
    assert len(g.nodes) == 4 and len(g.edges) == 2
    assert g.num_classes == 2
    by_name = {n: i for i, n in enumerate(g.node_names)}
    fname = {f: i for i, f in enumerate(g.feat_names)}
    # Genetic_Algorithms sorts before Neural_Networks -> class 0
    assert g.labels[by_name["31336"]] == 0
    assert g.labels[by_name["1061127"]] == 1
    assert g.feats[by_name["31336"]] == {fname["w0"]: 1.0, fname["w2"]: 1.0}
    assert g.feats[by_name["1106406"]] == {fname["w1"]: 1.0}


def test_prepare_planetoid(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    # 6 nodes: 4 in allx, 2 in tx; test.index deliberately shuffled
    allx = csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.5]]))
    tx = csr_matrix(np.array([[5.0, 0.0], [0.0, 6.0]]))
    ally = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
    ty = np.array([[0, 1], [1, 0]])
    graph = {0: [1, 2], 1: [0], 2: [0, 5], 3: [4], 4: [3], 5: [2, 5]}
    for stem, obj in [("allx", allx), ("tx", tx), ("ally", ally), ("ty", ty),
                      ("graph", graph)]:
        with open(raw / f"ind.cora.{stem}", "wb") as fh:
            pickle.dump(obj, fh)
    (raw / "ind.cora.test.index").write_text("5\n4\n")

    out = tmp_path / "tsv"
    proc = run_script("prepare_cora.py", str(raw), str(out))
    assert proc.returncode == 0, proc.stderr

    g = load_graph(out / "edges.tsv", out / "features.tsv", out / "labels.tsv")
    assert len(g.nodes) == 6
    assert len(g.edges) == 4  # (0,1) (0,2) (2,5) (3,4); self-loop 5-5 dropped
    by_name = {n: i for i, n in enumerate(g.node_names)}
    fname = {f: i for i, f in enumerate(g.feat_names)}
    # test.index says tx row 0 is node 5 and tx row 1 is node 4
    assert g.feats[by_name["n5"]] == {fname["w0"]: 5.0}
    assert g.feats[by_name["n4"]] == {fname["w1"]: 6.0}
    assert g.labels[by_name["n5"]] == 1
    assert g.labels[by_name["n4"]] == 0
    assert g.labels[by_name["n0"]] == 0


def test_prepare_unknown_layout(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    proc = run_script("prepare_cora.py", str(raw), str(tmp_path / "o"))
    assert proc.returncode != 0
    assert "neither" in proc.stderr

