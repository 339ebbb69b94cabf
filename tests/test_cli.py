"""End-to-end subcommand behavior via entry(), including exit codes."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import g2k
from g2k import autodiff as ad
from g2k import data as da
from g2k import training as tr
from g2k.cli import entry
from g2k.config import VARIANTS
from g2k.config import TrainConfig, desk_config
from g2k.model import TrajectoryModel

DESK_CFG = """\
hidden_size = 8
num_blocks = 2
cell_units = 2
embed_pos = 4
embed_vis = 4
feature_dim = 4
zones = 4
grid_size = 2
cell_channels = 4
static_input_dim = 8
static_hidden = 8
obs_len = 3
pred_len = 2
neighborhood_size = 8
epochs = 3
batch_size = 2
lr = 0.01
"""

WALK_CFG = """\
kind = group_walk
n_peds = 3
seed = 11
obs_len = 3
pred_len = 2
"""


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "desk.cfg").write_text(DESK_CFG)
    (tmp_path / "walk.cfg").write_text(WALK_CFG)
    return tmp_path


def run_train(ws, *extra, variant="mcr_n", out="run"):
    argv = ["train", "--variant", variant, "--config", str(ws / "desk.cfg"),
            "--scenario", str(ws / "walk.cfg"), "--out", str(ws / out)]
    return entry(argv + list(extra))


# ---------------------------------------------------------------------------
# train


def test_train_writes_ckpt_and_log(ws):
    assert run_train(ws, "--seed", "7") == 0
    ck = tr.load_checkpoint(str(ws / "run" / "ckpt"))
    assert ck.epoch == 3
    assert len(ck.history) == 3
    assert ck.train_cfg.seed == 7
    log = (ws / "run" / "log").read_text()
    assert "loss=" in log and "wall_ms=" in log


def test_train_missing_variant_is_usage_error(ws, capsys):
    code = entry(["train", "--scenario", str(ws / "walk.cfg"),
                  "--out", str(ws / "x")])
    capsys.readouterr()
    assert code == 2


def test_train_unknown_config_key(ws):
    (ws / "bad.cfg").write_text("hidden_size = 8\nwat = 1\n")
    code = entry(["train", "--variant", "g_lstm", "--config", str(ws / "bad.cfg"),
                  "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "x")])
    assert code == 2


def test_train_window_mismatch(ws):
    # scenario carries 3/2 windows, model defaults expect 8/12
    code = entry(["train", "--variant", "g_lstm",
                  "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "x")])
    assert code == 2


def test_train_divergence_exits_3(ws, capsys):
    # every variant: a NaN inside the model (mcr_mp's adjacency softmax
    # among them) reaches the loss and ends in DivergenceError
    for variant in VARIANTS:
        code = run_train(ws, "--optimizer", "sgd", "--lr", "1e12", "--epochs", "20",
                         variant=variant, out=f"run-{variant}")
        err = capsys.readouterr().err
        assert code == 3, (variant, err)
        assert "not finite" in err, variant


def test_train_non_finite_gradient_exits_3(ws, capsys, monkeypatch):
    zero_grad = ad.ParameterSet.zero_grad

    def poisoned(pset):
        zero_grad(pset)
        next(iter(pset)).value.grad[0, 0] = np.nan

    monkeypatch.setattr(ad.ParameterSet, "zero_grad", poisoned)
    assert run_train(ws) == 3
    assert "gradient norm is not finite" in capsys.readouterr().err
    assert not (ws / "run" / "ckpt").exists()


@pytest.mark.parametrize("code", [2, 3], ids=["tiny-image", "divergence"])
def test_failed_train_leaves_no_run_directory(ws, capsys, code):
    # both fail inside train(): a map smaller than the grid, a diverging loss
    (ws / "tiny.pgm").write_text("P2\n1 1\n255\n7\n")
    if code == 2:
        argv = ["--image", str(ws / "tiny.pgm")]
        variant = "mcr_mpc"
    else:
        argv = ["--optimizer", "sgd", "--lr", "1e12", "--epochs", "20"]
        variant = "g_lstm"
    assert run_train(ws, *argv, variant=variant) == code
    assert "error:" in capsys.readouterr().err
    assert not (ws / "run").exists()


def test_flag_beats_config_file(ws):
    assert run_train(ws, "--epochs", "2") == 0
    ck = tr.load_checkpoint(str(ws / "run" / "ckpt"))
    assert len(ck.history) == 2
    assert ck.model_cfg.hidden_size == 8  # file value survives


def test_train_from_tsv_dataset(ws):
    assert entry(["synth", "--scenario", str(ws / "walk.cfg"),
                  "--out", str(ws / "walk.tsv")]) == 0
    code = entry(["train", "--variant", "g_lstm", "--config", str(ws / "desk.cfg"),
                  "--dataset", str(ws / "walk.tsv"), "--out", str(ws / "run")])
    assert code == 0


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_and_csv_deterministic(ws, capsys):
    run_train(ws, "--seed", "7")
    argv = ["eval", "--ckpt", str(ws / "run" / "ckpt"),
            "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "r.csv")]
    assert entry(argv) == 0
    out1 = capsys.readouterr().out
    assert "ADE(m)" in out1 and "runtime" in out1
    csv1 = (ws / "r.csv").read_bytes()
    assert entry(argv) == 0
    capsys.readouterr()
    assert (ws / "r.csv").read_bytes() == csv1
    assert b"runtime" not in csv1


def test_eval_baseline_needs_no_ckpt(ws, capsys):
    code = entry(["eval", "--baseline", "--scenario", str(ws / "walk.cfg")])
    out = capsys.readouterr().out
    assert code == 0
    assert "constant_velocity" in out


def test_eval_baseline_dataset_takes_window_flags(ws, capsys):
    tsv = ws / "walk.tsv"
    assert entry(["synth", "--scenario", str(ws / "walk.cfg"), "--out", str(tsv)]) == 0
    assert entry(["eval", "--baseline", "--dataset", str(tsv)]) == 2  # 8/12 > 5 frames
    assert "no complete windows" in capsys.readouterr().err
    assert entry(["eval", "--baseline", "--dataset", str(tsv), "--obs-len", "3",
                  "--pred-len", "2", "--out", str(ws / "tsv.csv")]) == 0
    assert entry(["eval", "--baseline", "--scenario", str(ws / "walk.cfg"),
                  "--out", str(ws / "scenario.csv")]) == 0
    assert (ws / "tsv.csv").read_bytes() == (ws / "scenario.csv").read_bytes()


def test_eval_flag_mismatch_exits_4(ws, capsys):
    run_train(ws, "--seed", "7")
    code = entry(["eval", "--ckpt", str(ws / "run" / "ckpt"),
                  "--scenario", str(ws / "walk.cfg"), "--grid-size", "4"])
    err = capsys.readouterr().err
    assert code == 4
    assert "mismatch" in err


def test_eval_matching_flag_passes(ws, capsys):
    run_train(ws, "--seed", "7")
    code = entry(["eval", "--ckpt", str(ws / "run" / "ckpt"),
                  "--scenario", str(ws / "walk.cfg"), "--grid-size", "2"])
    capsys.readouterr()
    assert code == 0


def test_eval_missing_ckpt_file(ws, capsys):
    code = entry(["eval", "--ckpt", str(ws / "nope"),
                  "--scenario", str(ws / "walk.cfg")])
    capsys.readouterr()
    assert code == 2


def test_eval_corrupt_ckpt_exits_4(ws, capsys):
    run_train(ws, "--seed", "7")
    path = ws / "run" / "ckpt"
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("model.hidden_size"))
    lines[idx] = "model.hidden_size 4"
    path.write_text("\n".join(lines) + "\n")
    code = entry(["eval", "--ckpt", str(path),
                  "--scenario", str(ws / "walk.cfg")])
    err = capsys.readouterr().err
    assert code == 4
    assert "hash" in err


# ---------------------------------------------------------------------------
# viz


def read_csv_matrix(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def test_viz_exports(ws, capsys):
    run_train(ws, "--seed", "7", variant="mcr_mp")
    argv = ["viz", "--ckpt", str(ws / "run" / "ckpt"),
            "--scenario", str(ws / "walk.cfg"), "--scene", "0",
            "--out", str(ws / "viz")]
    assert entry(argv) == 0
    capsys.readouterr()

    adj = read_csv_matrix(ws / "viz" / "adjacency.csv")
    assert adj.shape == (3, 3)
    assert np.max(np.abs(adj.sum(axis=1) - 1.0)) < 1e-9

    att = read_csv_matrix(ws / "viz" / "attention.csv")
    assert att.shape == (3, 4)  # zones columns
    assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-9

    assert "# config" in (ws / "viz" / "adjacency.csv").read_text()

    img = da.read_pgm(str(ws / "viz" / "grid.pgm"))
    assert img.shape == (2, 2)


def test_viz_deterministic(ws, capsys):
    run_train(ws, "--seed", "7", variant="mcr_mp")
    argv = ["viz", "--ckpt", str(ws / "run" / "ckpt"),
            "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "viz")]
    assert entry(argv) == 0
    first = {f: (ws / "viz" / f).read_bytes()
             for f in ("adjacency.csv", "attention.csv", "grid.csv", "grid.pgm")}
    assert entry(argv) == 0
    capsys.readouterr()
    for f, blob in first.items():
        assert (ws / "viz" / f).read_bytes() == blob, f


def test_viz_scene_out_of_range(ws, capsys):
    run_train(ws, "--seed", "7")
    code = entry(["viz", "--ckpt", str(ws / "run" / "ckpt"),
                  "--scenario", str(ws / "walk.cfg"), "--scene", "9",
                  "--out", str(ws / "viz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "out of range" in err


def test_viz_needs_relational_variant(ws, capsys):
    run_train(ws, "--seed", "7", variant="g_lstm", out="glstm")
    code = entry(["viz", "--ckpt", str(ws / "glstm" / "ckpt"),
                  "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "viz")])
    err = capsys.readouterr().err
    assert code == 2
    assert "adjacency" in err


# ---------------------------------------------------------------------------
# gradcheck, synth


def test_gradcheck_passes_for_g_lstm(capsys):
    assert entry(["gradcheck", "--variant", "g_lstm"]) == 0
    out = capsys.readouterr().out
    assert "worst=" in out


def test_gradcheck_rejects_bogus_variant(capsys):
    code = entry(["gradcheck", "--variant", "bogus"])
    capsys.readouterr()
    assert code == 2


def test_synth_roundtrip(ws, capsys):
    path = ws / "walk.tsv"
    assert entry(["synth", "--scenario", str(ws / "walk.cfg"),
                  "--out", str(path)]) == 0
    capsys.readouterr()
    points = da.load_dataset(str(path))
    sc = da.load_scenario(str(ws / "walk.cfg"))
    assert list(points) == da.scenario_points(sc)


# ---------------------------------------------------------------------------
# malformed inputs end in their exit code, never a traceback


@pytest.fixture
def desk_ckpt(ws):
    """Untrained mcr_n checkpoint whose windows match walk.cfg."""
    path = ws / "ckpt"
    model = TrajectoryModel(desk_config("mcr_n"), seed=7)
    tr.save_checkpoint(str(path), model, TrainConfig(epochs=1), 1, [0.5])
    return path


def _replace(prefix, new):
    def edit(lines):
        idx = next(i for i, l in enumerate(lines) if l.startswith(prefix))
        lines[idx] = new(lines[idx]) if callable(new) else new
    return edit


def _hex(value):
    return np.array([value], dtype="<f8").tobytes().hex()


def _param_value(name, value):
    """Make value the first value of parameter name."""
    def first(line):
        head, _, digits = line.rpartition(" ")
        return f"{head} {_hex(value)}{digits[16:]}"
    return _replace(f"param {name} ", first)


def _repeat_param(lines):
    idx = next(i for i, l in enumerate(lines) if l.startswith("param "))
    lines.insert(idx + 1, lines[idx])


def _extra_model_line(line):
    def edit(lines):
        lines.insert(next(i for i, l in enumerate(lines) if l.startswith("train.")),
                     line)
    return edit


@pytest.mark.parametrize("edit", [
    _replace("g2k-ckpt", "g2k-ckpt-v1"),
    _replace("hash", "hash"),
    _replace("epoch", "epoch x"),
    _replace("history", "history x"),
    _replace("model.hidden_size", "model.hidden_size eight"),
    _replace("param ", lambda l: l.rsplit(" ", 1)[0]),
    _replace("param ", lambda l: l[:-1] + "z"),
    _replace("param ", lambda l: l[:-1]),
    _replace("param ", lambda l: l[:-16]),
    _repeat_param,
    _extra_model_line("model.bogus 1"),
    _extra_model_line("model.block_skip 4"),
    _extra_model_line("model.static_grid_enabled true"),
    _param_value("decode.b", float("nan")),
    _param_value("decode.w", float("-inf")),
    _replace("history", f"history {_hex(float('inf'))}"),
], ids=["v1-magic", "hash-no-value", "epoch-x", "history-x", "int-field-eight",
        "param-header-short", "non-hex-row", "odd-hex", "value-count",
        "repeated-param", "unknown-key", "retired-key", "retired-static-grid",
        "nan-param", "inf-param", "inf-history"])
def test_eval_malformed_ckpt_exits_4(ws, desk_ckpt, capsys, edit):
    assert entry(["eval", "--ckpt", str(desk_ckpt),
                  "--scenario", str(ws / "walk.cfg")]) == 0
    lines = desk_ckpt.read_text().splitlines()
    edit(lines)
    desk_ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = entry(["eval", "--ckpt", str(desk_ckpt),
                  "--scenario", str(ws / "walk.cfg")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_ckpt_config_error_names_its_line(desk_ckpt):
    # a checkpoint written while the static grid had an on/off switch
    line = "model.static_grid_enabled true"
    lines = desk_ckpt.read_text().splitlines()
    _extra_model_line(line)(lines)
    desk_ckpt.write_text("\n".join(lines) + "\n")
    want = f"{desk_ckpt}:{lines.index(line) + 1}: unknown key 'static_grid_enabled'"
    with pytest.raises(tr.CheckpointError, match=re.escape(want)):
        tr.load_checkpoint(str(desk_ckpt))


@pytest.mark.parametrize("bad,argv,code", [
    ("config", ["train", "--variant", "g_lstm", "--config", "{bad}",
                "--scenario", "{walk}", "--out", "{out}"], 2),
    ("scenario", ["eval", "--baseline", "--scenario", "{bad}"], 2),
    ("dataset", ["eval", "--baseline", "--dataset", "{bad}"], 2),
    ("ckpt", ["eval", "--ckpt", "{bad}", "--scenario", "{walk}"], 4),
], ids=["config", "scenario", "dataset", "ckpt"])
def test_non_utf8_input_exit_code(ws, capsys, bad, argv, code):
    path = ws / f"{bad}.bin"
    path.write_bytes(b"kind = group_walk\n\xff\xfe\n")
    names = {"bad": path, "walk": ws / "walk.cfg", "out": ws / "x"}
    assert entry([a.format(**names) for a in argv]) == code
    assert "not UTF-8" in capsys.readouterr().err


def test_non_finite_flag_is_usage_error(ws, capsys):
    assert run_train(ws, "--lambda", "nan") == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("line,field", [
    ("block_skip = 4", "block_skip"),
    ("mask_trainable = true", "mask_trainable"),
    ("log_every = 1", "log_every"),
    ("beta1 = 0.9", "beta1"),
    ("beta2 = 0.999", "beta2"),
    ("adam_eps = 1e-8", "adam_eps"),
    ("log_every = 0", "log_every"),
    ("log_every = -3", "log_every"),
    ("beta1 = 1.0", "beta1"),
    ("beta1 = -0.1", "beta1"),
    ("beta2 = 1.0", "beta2"),
    ("beta2 = -0.5", "beta2"),
    ("adam_eps = 0.0", "adam_eps"),
    ("adam_eps = -1e-8", "adam_eps"),
    ("static_grid_enabled = true", "static_grid_enabled"),
    ("static_grid_enabled = false", "static_grid_enabled"),
])
def test_out_of_range_train_config_is_usage_error(ws, capsys, line, field):
    """block_skip, mask_trainable, log_every and Adam's beta1, beta2 and
    adam_eps are constants, not settings, and a model without the static
    grid is the variant mcr_n: a config line for any of them is an unknown
    key, whatever its value."""
    (ws / "desk.cfg").write_text(DESK_CFG + line + "\n")
    assert run_train(ws, variant="g_lstm") == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (ws / "run").exists()


def test_block_skip_flag_is_usage_error(ws, capsys):
    assert run_train(ws, "--block-skip", "2") == 2
    assert "--block-skip" in capsys.readouterr().err
    assert not (ws / "run").exists()


def test_no_static_flag_is_usage_error(ws, capsys):
    assert run_train(ws, "--no-static", variant="mcr_mp") == 2
    assert "--no-static" in capsys.readouterr().err
    assert not (ws / "run").exists()


@pytest.mark.parametrize("argv,cause", [
    (["train", "--variant", "mc", "--config", "{cfg}", "--dataset", "{no_pan}",
      "--out", "{out}"], "vislets"),
    (["train", "--variant", "mcr_mpc", "--config", "{cfg}", "--scenario", "{walk}",
      "--image", "{pgm}", "--out", "{out}"], "smaller than grid"),
    (["eval", "--ckpt", "{ckpt}", "--dataset", "{no_pan}"], "vislets"),
], ids=["train-no-pan", "train-tiny-image", "eval-no-pan"])
def test_input_the_variant_cannot_use_is_usage_error(ws, capsys, argv, cause):
    # a TSV without the pan column has no vislets; a 1x1 map is smaller than
    # the desk grid (grid_size = 2)
    assert entry(["synth", "--scenario", str(ws / "walk.cfg"),
                  "--out", str(ws / "walk.tsv")]) == 0
    rows = (ws / "walk.tsv").read_text().splitlines()
    (ws / "no_pan.tsv").write_text(
        "".join(" ".join(r.split()[:4]) + "\n" for r in rows if not r.startswith("#")))
    (ws / "tiny.pgm").write_text("P2\n1 1\n255\n7\n")
    model = TrajectoryModel(desk_config("mc"), seed=7)
    tr.save_checkpoint(str(ws / "ckpt"), model, TrainConfig(epochs=1), 1, [0.5])
    capsys.readouterr()
    names = {"cfg": ws / "desk.cfg", "walk": ws / "walk.cfg", "out": ws / "run",
             "no_pan": ws / "no_pan.tsv", "pgm": ws / "tiny.pgm", "ckpt": ws / "ckpt"}
    assert entry([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err


def test_static_hidden_not_divisible_by_blocks_is_usage_error(ws, capsys):
    # desk.cfg has num_blocks = 2
    assert run_train(ws, "--static-hidden", "7", variant="mcr_mp") == 2
    assert "static_hidden" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["train", "viz"])
def test_out_not_a_directory_is_usage_error(ws, desk_ckpt, capsys, command, out):
    (ws / "taken").write_text("keep\n")
    if command == "train":
        code = run_train(ws, out=out)
    else:
        code = entry(["viz", "--ckpt", str(desk_ckpt),
                      "--scenario", str(ws / "walk.cfg"), "--out", str(ws / out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert (ws / "taken").read_text() == "keep\n"


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
def test_train_checks_out_before_training(ws, capsys, monkeypatch, out):
    def no_training(*args, **kwargs):
        raise AssertionError("train() ran before --out was checked")

    monkeypatch.setattr(tr, "train", no_training)
    (ws / "taken").write_text("keep\n")
    assert run_train(ws, out=out) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert (ws / "taken").read_text() == "keep\n"


@pytest.mark.parametrize("argv", [
    ["train", "--variant", "mcr_n", "--config", "{cfg}", "--scenario", "{walk}"],
    ["eval", "--baseline", "--scenario", "{walk}"],
    ["synth", "--scenario", "{walk}"],
], ids=["train", "eval-baseline", "synth"])
def test_overlong_out_is_usage_error(ws, capsys, monkeypatch, argv):
    def no_training(*args, **kwargs):
        raise AssertionError("train() ran before --out was checked")

    monkeypatch.setattr(tr, "train", no_training)
    names = {"cfg": ws / "desk.cfg", "walk": ws / "walk.cfg"}
    out = str(ws / ("o" * 300))
    assert entry([a.format(**names) for a in argv] + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_eval_flag_mismatch_names_every_flag(ws, desk_ckpt, capsys):
    code = entry(["eval", "--ckpt", str(desk_ckpt), "--scenario", str(ws / "walk.cfg"),
                  "--grid-size", "4", "--hidden", "16"])
    err = capsys.readouterr().err
    assert code == 4
    assert "grid_size: checkpoint has 2, flag says 4" in err
    assert "hidden_size: checkpoint has 8, flag says 16" in err


def test_os_error_naming_no_path_propagates(ws, monkeypatch):
    def broken(points, path):
        raise OSError("no path in this one")

    monkeypatch.setattr(da, "write_dataset", broken)
    with pytest.raises(OSError, match="no path"):
        entry(["synth", "--scenario", str(ws / "walk.cfg"), "--out", str(ws / "w.tsv")])


def test_package_defines_only_the_mapped_error_classes():
    """Every exception class is one the CLI maps to an exit code, or an
    internal fault that no input can reach; a new class must pick a side."""
    defined = set()
    for info in pkgutil.iter_modules(g2k.__path__):
        mod = importlib.import_module(f"g2k.{info.name}")
        defined |= {f"{info.name}.{name}" for name, obj in vars(mod).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__}
    assert defined == {
        "config.InputError", "training.CheckpointError", "training.DivergenceError",
        "autodiff.ShapeMismatch", "autodiff.ContractError",
        "gridlstm.GridConfigError",
    }
