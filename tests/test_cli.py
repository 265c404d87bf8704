import csv
import io
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grafenne.cli as cli
from grafenne.cli import ConfigError, build_graph, main, read_config, _SCHEMAS
from grafenne.graph import load_graph, to_allotropic, write_allotropic
from test_graph import translate_features

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def toy_source():
    return (f"edges = {DATA/'edges.tsv'}\n"
            f"features = {DATA/'features.tsv'}\n"
            f"labels = {DATA/'labels.tsv'}\n")


def toy_run_conf(tmp_path, extra=""):
    return write(tmp_path / "run.conf", toy_source() +
                 "dataset = toy\nmethods = sage\np = 0\nseeds = 0,1,2,3,4\n"
                 "epochs = 20\nlr = 0.01\ndim = 8\nlayers = 2\npatience = 20\n"
                 + extra)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------ config parsing


def test_read_config_types(tmp_path):
    conf = write(tmp_path / "c.conf",
                 "# comment\n\nsynth_nodes = 8\nsynth_p_in=0.5\n")
    cfg = read_config(conf, _SCHEMAS["transform"])
    assert cfg["synth_nodes"] == 8 and cfg["synth_p_in"] == 0.5
    assert cfg["synth_classes"] == 2  # default filled in


def test_read_config_unknown_key(tmp_path):
    conf = write(tmp_path / "c.conf", "synth_nodez = 8\n")
    with pytest.raises(ConfigError, match="unknown key 'synth_nodez'"):
        read_config(conf, _SCHEMAS["transform"])


def test_read_config_duplicate_key(tmp_path):
    conf = write(tmp_path / "c.conf", "synth_nodes = 8\nsynth_nodes = 9\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        read_config(conf, _SCHEMAS["transform"])


def test_read_config_missing_required(tmp_path):
    conf = write(tmp_path / "c.conf", toy_source())
    with pytest.raises(ConfigError, match="missing required key 'methods'"):
        read_config(conf, _SCHEMAS["run"])


def test_read_config_bad_value(tmp_path):
    conf = write(tmp_path / "c.conf", "synth_nodes = eight\n")
    with pytest.raises(ConfigError, match="bad synth_nodes"):
        read_config(conf, _SCHEMAS["transform"])


def test_build_graph_source_exclusivity(tmp_path):
    conf = write(tmp_path / "c.conf", toy_source() + "synth_nodes = 8\n")
    with pytest.raises(ConfigError, match="not both"):
        build_graph(read_config(conf, _SCHEMAS["transform"]))
    conf2 = write(tmp_path / "c2.conf", f"edges = {DATA/'edges.tsv'}\n")
    with pytest.raises(ConfigError, match="all of"):
        build_graph(read_config(conf2, _SCHEMAS["transform"]))
    conf3 = write(tmp_path / "c3.conf", "")
    with pytest.raises(ConfigError, match="no graph source"):
        build_graph(read_config(conf3, _SCHEMAS["transform"]))


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in ("methods", "epochs", "timing", "synth_nodes"):
        assert key in text
    assert "Unknown or" in text  # the hard-error warning


# ----------------------------------------------------------------- cmd: run


def test_run_emits_seed_rows_and_summary(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["run", "--config", toy_run_conf(tmp_path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dataset", "method", "task", "p", "seed", "metric",
                       "value", "seconds"]
    body = rows[1:]
    assert [r[4] for r in body] == ["0", "1", "2", "3", "4", "mean", "std"]
    assert all(r[0] == "toy" and r[1] == "sage" and r[5] == "accuracy"
               for r in body)
    assert all(r[7] == "0" for r in body)  # timing=none default


def test_run_rerun_and_workers_byte_identical(tmp_path):
    conf = toy_run_conf(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["run", "--config", conf, "--out", str(a)]) == 0
    assert main(["run", "--config", conf, "--out", str(b)]) == 0
    assert main(["run", "--config", conf, "--out", str(c), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_run_seed_flag_selects_one_cell(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["run", "--config", toy_run_conf(tmp_path), "--out", str(out),
                 "--seed", "3"]) == 0
    assert [r[4] for r in read_rows(out)[1:]] == ["3", "mean", "std"]


def test_run_config_errors_exit_2(tmp_path, capsys):
    cases = [
        "methods = sage\np = 1.5\n",                # p out of range
        "methods = gcnn\n",                         # unknown method
        "methods = sage\ntask = regression\n",      # unknown task
        "methods = sage\ntiming = cpu\n",           # bad timing mode
        "methods = sage\nepochs = 0\n",             # rejected by TrainConfig
        "methods = sage\nlr = nan\n",               # non-finite float
        "methods = sage\np = 0,inf\n",              # non-finite entry of floats
        "methods = sage\ndim = 0\n",               # rejected by GrafenneConfig
        "methods = sage\nlayers = 0\n",
        "methods = grafenne\ncaps = -1,0,0\n",
        "methods = fp+sage\nfp_iterations = 0\n",
    ]
    for i, extra in enumerate(cases):
        conf = write(tmp_path / f"bad{i}.conf", toy_source() + extra)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if "regression" in extra:
            assert "unknown task 'regression'" in err


@pytest.mark.parametrize("key, extra", [("methods", "methods = sage,gat,sage\n"),
                                        ("p", "methods = sage\np = 0,0.5,0.0\n"),
                                        ("seeds", "methods = sage\nseeds = 0,0\n")])
def test_run_repeated_list_entry_exits_2(tmp_path, capsys, key, extra):
    conf = write(tmp_path / "r.conf", toy_source() + extra)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", conf, "--out", str(out)]) == 2
    assert f"repeated entry in {key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_out_exits_2(tmp_path, capsys):
    assert main(["run", "--config", toy_run_conf(tmp_path)]) == 2
    assert "no output path" in capsys.readouterr().err


def test_run_unreadable_data_exits_3(tmp_path, capsys):
    conf = write(tmp_path / "c.conf",
                 f"edges = {tmp_path/'absent.tsv'}\n"
                 f"features = {DATA/'features.tsv'}\n"
                 f"labels = {DATA/'labels.tsv'}\n"
                 "methods = sage\nepochs = 5\n")
    assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 3
    assert "data error" in capsys.readouterr().err


def test_run_malformed_tsv_exits_3(tmp_path, capsys):
    bad = write(tmp_path / "labels.tsv", "n00\t0\textra\n")
    conf = write(tmp_path / "c.conf",
                 f"edges = {DATA/'edges.tsv'}\n"
                 f"features = {DATA/'features.tsv'}\n"
                 f"labels = {bad}\nmethods = sage\nepochs = 5\n")
    assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_non_finite_feature_exits_3(tmp_path, capsys, value):
    lines = (DATA / "features.tsv").read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit("\t", 1)[0] + f"\t{value}\n"
    bad = write(tmp_path / "features.tsv", "".join(lines))
    conf = write(tmp_path / "c.conf",
                 f"edges = {DATA/'edges.tsv'}\nfeatures = {bad}\n"
                 f"labels = {DATA/'labels.tsv'}\nmethods = grafenne,sage\nepochs = 5\n")
    assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 3
    assert f"{bad}:3: bad value '{value}' (need a finite number)" in capsys.readouterr().err


_SYNTH_CELLS = {"run": "synth_nodes = 40\nmethods = grafenne\nseeds = 0\nepochs = 3\ndim = 4\n",
                "stream": "synth_nodes = 40\nT = 1\nepochs = 3\nstream_epochs = 2\ndim = 4\n"
                          "strategies = EWC\n"}


def _synth_cell(tmp_path, capsys, command, extra="", flags=()):
    """(exit code, stderr lines) of one small synthetic cell, extra's keys
    replacing the cell's own."""
    keys = {line.split(" = ")[0]: line for line in (_SYNTH_CELLS[command] + extra).splitlines()}
    conf = write(tmp_path / "c.conf", "".join(f"{line}\n" for line in keys.values()))
    code = main([command, "--config", conf, "--out", str(tmp_path / "o.csv"), *flags])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command, extra, flags, message", [
    ("run", "seeds = -1", (), "{conf}:3: bad seeds: -1 lies outside [0, inf]"),
    ("run", "", ("--seed", "-1"), "--seed must be >= 0, got -1"),
    ("stream", "", ("--seed", "-1"), "--seed must be >= 0, got -1"),
    ("stream", "seed = -1", (), "{conf}:7: bad seed: -1 lies outside [0, inf]"),
    ("stream", "stream_seed = -1", (), "{conf}:7: bad stream_seed: -1 lies outside [0, inf]"),
    ("run", "synth_seed = -1", (), "{conf}:6: bad synth_seed: -1 lies outside [0, inf]"),
    ("run", "synth_nodes = -5", (), "{conf}:1: bad synth_nodes: -5 lies outside [0, inf]"),
    ("run", "synth_classes = -2", (), "{conf}:6: bad synth_classes: -2 lies outside [1, inf]"),
    ("run", "synth_classes = 0", (), "{conf}:6: bad synth_classes: 0 lies outside [1, inf]"),
    ("run", "synth_feats_per_class = -1", (),
     "{conf}:6: bad synth_feats_per_class: -1 lies outside [0, inf]"),
    ("run", "synth_p_in = 2", (), "{conf}:6: bad synth_p_in: 2.0 lies outside [0.0, 1.0]"),
    ("run", "synth_density = 1.5", (),
     "{conf}:6: bad synth_density: 1.5 lies outside [0.0, 1.0]"),
    ("run", "synth_noise = -0.5", (), "{conf}:6: bad synth_noise: -0.5 lies outside [0.0, 1.0]"),
])
def test_out_of_range_seed_or_synthetic_key_is_one_config_error_line(
        tmp_path, capsys, command, extra, flags, message):
    code, err = _synth_cell(tmp_path, capsys, command, extra + "\n", flags)
    assert (code, err) == (2, [f"config error: {message.format(conf=tmp_path / 'c.conf')}"])


@pytest.mark.parametrize("command", ["run", "stream"])
def test_a_synthetic_graph_without_features_still_runs(tmp_path, capsys, command):
    assert _synth_cell(tmp_path, capsys, command, "synth_feats_per_class = 0\n") == (0, [])


def test_an_empty_synthetic_graph_is_still_a_data_error(tmp_path, capsys):
    code, err = _synth_cell(tmp_path, capsys, "run", "synth_nodes = 0\n")
    assert (code, err) == (3, ["data error: empty train split"])


def test_a_stream_over_an_empty_synthetic_graph_is_one_data_error_line(tmp_path, capsys):
    code, err = _synth_cell(tmp_path, capsys, "stream", "synth_nodes = 0\n")
    assert (code, err) == (3, ["data error: empty train split"])


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.conf"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "cannot read config" in capsys.readouterr().err


_CELL_KEYS = {"run": "methods = sage\nseeds = 0\nepochs = 5\n",
              "stream": "T = 2\nepochs = 3\nstream_epochs = 2\n"}


@pytest.mark.parametrize("command, key, content, message", [
    ("run", "labels", b"n00\t0\n", "empty val split"),  # one labelled node
    ("stream", "labels", b"n00\t0\n", "test set is empty at this timestamp"),
    ("run", "edges", b"\xff\xfe", "{path}: not UTF-8 text (invalid start byte)"),
])
def test_bad_tsv_is_one_data_error_line(tmp_path, capsys, command, key, content, message):
    paths = {k: DATA / f"{k}.tsv" for k in ("edges", "features", "labels")}
    paths[key] = tmp_path / f"{key}.tsv"
    paths[key].write_bytes(content)
    conf = write(tmp_path / "c.conf",
                 "".join(f"{k} = {p}\n" for k, p in paths.items()) + _CELL_KEYS[command])
    assert main([command, "--config", conf, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == f"data error: {message.format(path=paths[key])}\n"


def test_translate_non_utf8_features_is_one_data_error_line(tmp_path, capsys):
    feats = tmp_path / "f.tsv"
    feats.write_bytes(b"n00\tf0\t1.0\n\xff\xfe")
    conf = write(tmp_path / "t.conf", f"features = {feats}\nscale = 2\n")
    assert main(["translate", "--config", conf, "--out", str(tmp_path / "o.tsv")]) == 3
    assert capsys.readouterr().err == f"data error: {feats}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("command", ["run", "stream"])
def test_non_utf8_config_is_one_config_error_line(tmp_path, capsys, command):
    conf = tmp_path / "c.conf"
    conf.write_bytes(b"T = 2\n# \xff\xfe\n")
    assert main([command, "--config", str(conf), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read config {conf}: "
                                       "not UTF-8 text (invalid start byte)\n")


# --------------------------------------------------------------- cmd: stream


def stream_conf(tmp_path, extra=""):
    return write(tmp_path / "s.conf",
                 "synth_nodes = 30\nsynth_classes = 2\nT = 2\n"
                 "epochs = 10\nstream_epochs = 4\ndim = 8\nlayers = 1\n" + extra)


def test_stream_empty_deltas_flat_and_deterministic(tmp_path):
    conf = stream_conf(tmp_path)  # all perturbation probabilities default to 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["stream", "--config", conf, "--out", str(a)]) == 0
    assert main(["stream", "--config", conf, "--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert rows[0] == ["strategy", "t", "accuracy", "seconds", "params_changed"]
    by_strategy = {}
    for strat, t, acc, secs, changed in rows[1:]:
        by_strategy.setdefault(strat, []).append((t, acc, changed))
        assert secs == "0"
    assert set(by_strategy) == {"EWC", "FT", "ER", "ORACLE"}
    for strat, recs in by_strategy.items():
        accs = [acc for _, acc, _ in recs]
        assert len(set(accs)) == 1, strat  # flat trace
        assert [c for _, _, c in recs][1:] == ["0", "0"], strat


def test_stream_requires_T(tmp_path, capsys):
    conf = write(tmp_path / "s.conf", "synth_nodes = 30\n")
    assert main(["stream", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 2
    assert "missing required key 'T'" in capsys.readouterr().err


def test_stream_unknown_strategy_exits_2(tmp_path, capsys):
    conf = stream_conf(tmp_path, "strategies = GEM\n")
    assert main(["stream", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_stream_repeated_strategy_exits_2(tmp_path, capsys):
    conf = stream_conf(tmp_path, "strategies = FT,ewc,ft\n")  # names are case-blind
    out = tmp_path / "o.csv"
    assert main(["stream", "--config", conf, "--out", str(out)]) == 2
    assert "repeated entry in strategies: FT,EWC,FT" in capsys.readouterr().err
    assert not out.exists()


def test_stream_config_errors_exit_2(tmp_path, capsys):
    for extra in ("dim = 0\n", "layers = 0\n", "phase2 = foo\n"):  # rejected by GrafenneConfig
        conf = write(tmp_path / "s.conf", "synth_nodes = 30\nT = 2\nepochs = 2\n" + extra)
        assert main(["stream", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error" in capsys.readouterr().err


def test_stream_strategy_subset(tmp_path):
    conf = stream_conf(tmp_path, "strategies = ft\np_f_del = 0.3\np_n = 0.3\n")
    out = tmp_path / "o.csv"
    assert main(["stream", "--config", conf, "--out", str(out)]) == 0
    assert {r[0] for r in read_rows(out)[1:]} == {"FT"}


# ---------------------------------------------------- cmd: transform/translate


def test_transform_counts_match_graph(tmp_path):
    conf = write(tmp_path / "t.conf", toy_source())
    out = tmp_path / "alt.txt"
    assert main(["transform", "--config", conf, "--out", str(out)]) == 0
    g = load_graph(DATA / "edges.tsv", DATA / "features.tsv", DATA / "labels.tsv")
    header = out.read_text().splitlines()[1]
    n_feats = len(g.feature_ids())
    stored = sum(len(f) for f in g.feats.values())
    assert header == (f"# graph_nodes={len(g.nodes)} feature_nodes={n_feats} "
                      f"graph_edges={len(g.edges)} feature_edges={stored}")
    kinds = [line.split("\t")[0] for line in out.read_text().splitlines()[2:]]
    assert kinds.count("GN") == len(g.nodes)
    assert kinds.count("FE") == stored


def _fe_records(path):
    """(node id, feature id, value) of each FE line; the value text must parse."""
    rows = [line.split("\t") for line in path.read_text().splitlines() if line.startswith("FE")]
    return [(int(v), int(f), float(w)) for _, v, f, w in rows]


def test_transform_writes_every_value_as_a_float_that_round_trips(tmp_path):
    conf = write(tmp_path / "t.conf", toy_source())
    out = tmp_path / "alt.txt"
    assert main(["transform", "--config", conf, "--out", str(out)]) == 0
    g = load_graph(DATA / "edges.tsv", DATA / "features.tsv", DATA / "labels.tsv")
    cases = [(out, g)]
    for scale in (0.1, 1 / 3):  # 1/3 gives values with 16 significant digits
        translated = translate_features(g, scale, 0.3)
        cases.append((tmp_path / f"x{scale}.txt", translated))
        write_allotropic(to_allotropic(translated), cases[-1][0])
    for path, graph in cases:
        got = _fe_records(path)
        want = list(zip(graph.feat_node.tolist(), graph.feat_id.tolist(),
                        graph.feat_value.tolist()))
        assert [(v, f) for v, f, _ in got] == [(v, f) for v, f, _ in want]
        assert [struct.pack("<d", w) for *_, w in got] == [struct.pack("<d", w) for *_, w in want]


def test_translate_identity_scale_and_input_untouched(tmp_path):
    before = (DATA / "features.tsv").read_bytes()
    ident = tmp_path / "ident.tsv"
    conf = write(tmp_path / "t.conf",
                 f"features = {DATA/'features.tsv'}\nscale = 1\nshift = 0\n")
    assert main(["translate", "--config", conf, "--out", str(ident)]) == 0
    conf10 = write(tmp_path / "t10.conf",
                   f"features = {DATA/'features.tsv'}\nscale = 10\nshift = 0\n")
    scaled = tmp_path / "x10.tsv"
    assert main(["translate", "--config", conf10, "--out", str(scaled)]) == 0
    assert (DATA / "features.tsv").read_bytes() == before

    g0 = load_graph(DATA / "edges.tsv", DATA / "features.tsv", DATA / "labels.tsv")
    g1 = load_graph(DATA / "edges.tsv", ident, DATA / "labels.tsv")
    g10 = load_graph(DATA / "edges.tsv", scaled, DATA / "labels.tsv")
    for v in g0.nodes:
        for f, w in g0.feats.get(v, {}).items():
            assert g1.feats[v][f] == w
            assert g10.feats[v][f] == 10.0 * w


def test_translate_malformed_exits_3(tmp_path, capsys):
    bad = write(tmp_path / "f.tsv", "n00\tf0\tone\n")
    conf = write(tmp_path / "t.conf", f"features = {bad}\nscale = 2\n")
    assert main(["translate", "--config", conf, "--out", str(tmp_path / "o.tsv")]) == 3
    assert "bad value" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_translate_non_finite_exits_3(tmp_path, capsys, value):
    bad = write(tmp_path / "f.tsv", f"n00\tf0\t1.0\nn01\tf0\t{value}\n")
    conf = write(tmp_path / "t.conf", f"features = {bad}\nscale = 2\n")
    out = tmp_path / "o.tsv"
    assert main(["translate", "--config", conf, "--out", str(out)]) == 3
    assert f"{bad}:2: bad value '{value}'" in capsys.readouterr().err
    assert not out.exists()


# an lr of 1e300 throws the weights to overflow after one Adam step
NAN_LOSS = ("dataset = toy\nmethods = sage\np = 0\nepochs = 5\nlr = 1e300\ndim = 8\n"
            "layers = 2\npatience = 5\n")
# an lr of 1e20 makes the second step's gradient square overflow Adam's v:
# without the moment check, every later step is 0 and the run reports 0.5
INFINITE_MOMENT = ("dataset = toy\nmethods = grafenne_gat\np = 0.5\nepochs = 5\n"
                   "lr = 99999999999999999999\ndim = 8\nlayers = 2\npatience = 5\n")


def test_run_non_finite_loss_exits_4(tmp_path, capsys):
    conf = write(tmp_path / "run.conf", toy_source() + NAN_LOSS + "seeds = 0\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", conf, "--out", str(out)]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "numerical error: validation loss is nan at epoch 1 of 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers,seeds", [(1, "0"), (2, "0,1")])
@pytest.mark.parametrize("config,error", [
    (NAN_LOSS, "validation loss is nan at epoch 1 of 5"),
    (INFINITE_MOMENT, "Adam's second moment of parameter layer0/p1/W6 is not finite at step 2"),
], ids=["nan-loss", "infinite-moment"])
def test_a_diverging_run_is_exit_4_and_one_stderr_line(tmp_path, config, error, workers, seeds):
    conf = write(tmp_path / "run.conf", toy_source() + config + f"seeds = {seeds}\n")
    out = tmp_path / "o.csv"
    proc = subprocess.run([sys.executable, "-m", "grafenne.cli", "run", "--config", conf,
                           "--out", str(out), "--workers", str(workers)],
                          capture_output=True, text=True)
    assert proc.returncode == 4 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"numerical error: {error}")
    assert not out.exists()


def test_help_documents_exit_code_4(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "4 numerical error" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["transform", "translate"])
@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_seed_and_workers_are_usage_errors_outside_run_and_stream(tmp_path, capsys,
                                                                  command, flag):
    conf = write(tmp_path / "t.conf", toy_source() if command == "transform" else
                 f"features = {DATA/'features.tsv'}\nscale = 2\n")
    out = tmp_path / "o.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", conf, "--out", str(out), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


def test_workers_below_one_exits_2(tmp_path, capsys):
    for command, conf in (("run", toy_run_conf(tmp_path)),
                          ("stream", write(tmp_path / "s.conf", toy_source() + "T = 1\n"))):
        assert main([command, "--config", conf, "--out", str(tmp_path / "o.csv"),
                     "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


def test_workers_are_capped_at_the_cell_count(tmp_path, monkeypatch):
    sizes = []

    class InlineExecutor:
        """Records the pool size it is asked for and maps in this process,
        so that no process starts; a worker initializer is not run here."""

        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    conf = write(tmp_path / "run.conf", toy_source() + "methods = sage\nseeds = 0,1\nepochs = 2\n")
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    assert main(["run", "--config", conf, "--out", str(one), "--workers", "1"]) == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    assert main(["run", "--config", conf, "--out", str(many), "--workers", "1000000"]) == 0
    assert sizes == [2]
    assert one.read_bytes() == many.read_bytes()


_BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize("command, key, line", [("stream", "synth_nodes", 1), ("run", "dim", 5)])
def test_a_key_beyond_int64_is_one_config_error_line(tmp_path, capsys, command, key, line):
    code, err = _synth_cell(tmp_path, capsys, command, f"{key} = {_BEYOND_INT64}\n")
    conf = tmp_path / "c.conf"
    assert (code, err) == (2, [f"config error: {conf}:{line}: bad {key}: "
                               f"{_BEYOND_INT64} exceeds 2^63 - 1"])


def test_a_class_id_beyond_int64_is_one_data_error_line(tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    labels.write_text("n00\t999999999999999999999\n", encoding="utf-8")
    conf = write(tmp_path / "c.conf", f"edges = {DATA/'edges.tsv'}\n"
                 f"features = {DATA/'features.tsv'}\nlabels = {labels}\n"
                 + _CELL_KEYS["run"])
    assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {labels}:1: bad class id '999999999999999999999'"]


# --------------------------------------------------------------------- fuzz

_TOY_LINES = {k: (DATA / f"{k}.tsv").read_text(encoding="utf-8").splitlines()
              for k in ("edges", "features", "labels")}
_BAD_FIELDS = ("", "nan", "inf", "-1", "n99", _BEYOND_INT64)
_FUZZ_KEYS = ("epochs", "dim", "layers", "seeds", "p", "lr", "patience", "neg_ratio",
              "fp_iterations", "caps")


@st.composite
def _mutated(draw, lines):
    """lines with at most two mutations, each dropping, duplicating or
    inserting a line or replacing one field with a bad one."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("drop", "duplicate", "insert", "field")))
        i = draw(st.integers(0, len(lines)))
        if op == "insert" or i == len(lines):
            fields = draw(st.lists(st.sampled_from(_BAD_FIELDS + ("n00", "f0", "1.0", "0")),
                                   min_size=1, max_size=4))
            lines.insert(i, "\t".join(fields))
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split("\t")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
            lines[i] = "\t".join(fields)
    return lines


@settings(max_examples=300, deadline=None)
@given(tsv=st.fixed_dictionaries({k: _mutated(v) for k, v in _TOY_LINES.items()}),
       command=st.sampled_from(("run", "transform")),
       method=st.sampled_from(tuple(cli.METHODS)),
       task=st.sampled_from(("node_classification", "link_prediction")),
       epochs=st.integers(1, 2), dim=st.integers(1, 4),
       bad_key=st.none() | st.sampled_from(_FUZZ_KEYS), bad_value=st.sampled_from(_BAD_FIELDS))
def test_cli_fuzz_is_an_exit_code_and_at_most_one_stderr_line(
        tsv, command, method, task, epochs, dim, bad_key, bad_value):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        keys = {}
        for name, lines in tsv.items():
            keys[name] = write(tmp / f"{name}.tsv", "".join(f"{line}\n" for line in lines))
        if command == "run":
            keys.update(methods=method, task=task, seeds=0, epochs=epochs, patience=2,
                        dim=dim, lr=0.01, fp_iterations=2)
            if bad_key is not None:
                keys[bad_key] = bad_value
        conf = write(tmp / "c.conf", "".join(f"{k} = {v}\n" for k, v in keys.items()))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([command, "--config", conf, "--out", str(tmp / "out")])
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# ------------------------------------------------------------- entry point


def test_module_entrypoint(tmp_path):
    # the bundled sanity config, whose paths are relative to the repository
    out = tmp_path / "o.csv"
    proc = subprocess.run([sys.executable, "-m", "grafenne.cli", "run",
                           "--config", "configs/toy_run.conf", "--out", str(out)],
                          capture_output=True, text=True, cwd=DATA.parent.parent)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert out.exists()
