import csv
import subprocess
import sys
from pathlib import Path

import pytest

from grafenne.cli import ConfigError, build_graph, main, read_config, _SCHEMAS
from grafenne.graph import load_graph

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
    ]
    for i, extra in enumerate(cases):
        conf = write(tmp_path / f"bad{i}.conf", toy_source() + extra)
        assert main(["run", "--config", conf, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error" in capsys.readouterr().err


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


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.conf"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "cannot read config" in capsys.readouterr().err


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


def test_run_non_finite_loss_exits_4(tmp_path, capsys):
    # an lr of 1e300 throws the weights to overflow after one Adam step
    conf = write(tmp_path / "run.conf", toy_source() +
                 "dataset = toy\nmethods = sage\np = 0\nseeds = 0\n"
                 "epochs = 5\nlr = 1e300\ndim = 8\nlayers = 2\npatience = 5\n")
    out = tmp_path / "o.csv"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "--config", conf, "--out", str(out)]) == 4
    assert "numerical error: validation loss is nan at epoch 1 of 5" in capsys.readouterr().err
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


# ------------------------------------------------------------- entry point


def test_module_entrypoint(tmp_path):
    conf = write(tmp_path / "run.conf", toy_source() +
                 "dataset = toy\nmethods = sage\np = 0\nseeds = 0\n"
                 "epochs = 5\nlr = 0.01\ndim = 8\nlayers = 2\npatience = 5\n")
    out = tmp_path / "o.csv"
    proc = subprocess.run([sys.executable, "-m", "grafenne.cli", "run",
                           "--config", conf, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
