"""Loss oracles, optimizer update rules, the training loop, checkpoints."""

import contextlib
import errno
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad
from g2k import cli, config
from g2k import data as da
from g2k import evaluation as ev
from g2k import model as md
from g2k import training as tr
from g2k.config import (VARIANTS, InputError, TrainConfig, config_hash, config_items,
                        desk_config)

from finite_differences import assert_stacked_differences_match


def loss_value(pred, gt):
    """Numeric twin of loss_graph on (N, T, 2) arrays."""
    assert pred.shape == gt.shape
    n, t = pred.shape[0], pred.shape[1]
    return float(((pred - gt) ** 2).sum() / (n * t))


def fake_run(pred):
    """KernelRun carrying given (N, T, 2) predictions as graph leaves."""
    positions = ad.leaf(pred.reshape(pred.shape[0], -1))
    return md.KernelRun(positions=positions, offsets=None, diagnostics=md.Diagnostics())


def cv_batches(seeds=(1, 2, 3), n=3):
    out = []
    for s in seeds:
        sc = da.SyntheticScenario(kind="constant_velocity", n_peds=n, seed=s,
                                  obs_len=3, pred_len=2)
        out.extend(da.synthesize(sc))
    return out


def targets_of(batches):
    return [da.target_positions(b) for b in batches]


# ---------------------------------------------------------------------------
# loss


def test_loss_identity_is_zero():
    pred = np.random.default_rng(0).normal(size=(3, 2, 2))
    gt = np.transpose(pred, (1, 0, 2))  # loss_graph targets are (T, N, 2)
    loss = tr.loss_graph(fake_run(pred), gt)
    assert loss.data[0, 0] == 0.0


def test_loss_unit_offset_is_exactly_one():
    # constant 1 m offset at every step, any N: mean reduction gives 1.0 exact
    gt = np.zeros((2, 1, 2))
    pred = np.zeros((1, 2, 2))
    pred[..., 0] = 1.0
    loss = tr.loss_graph(fake_run(pred), gt)
    assert loss.data[0, 0] == 1.0


def test_loss_matches_hand_summation():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(4, 3, 2))
    gt = rng.normal(size=(3, 4, 2))
    loss = float(tr.loss_graph(fake_run(pred), gt).data[0, 0])
    total = 0.0
    for k in range(3):
        for i in range(4):
            dx = pred[i, k, 0] - gt[k, i, 0]
            dy = pred[i, k, 1] - gt[k, i, 1]
            total += dx * dx + dy * dy
    assert abs(loss - total / (4 * 3)) < 1e-12


def test_loss_value_agrees_with_graph():
    rng = np.random.default_rng(9)
    pred = rng.normal(size=(5, 4, 2))
    gt = rng.normal(size=(5, 4, 2))
    via_graph = float(tr.loss_graph(fake_run(pred), np.transpose(gt, (1, 0, 2))).data[0, 0])
    assert abs(via_graph - loss_value(pred, gt)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=999))
def test_loss_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(n, 3, 2))
    gt = rng.normal(size=(n, 3, 2))
    perm = rng.permutation(n)
    assert abs(loss_value(pred, gt) - loss_value(pred[perm], gt[perm])) < 1e-12


def test_loss_shape_mismatch_raises():
    with pytest.raises(InputError):
        tr.loss_graph(fake_run(np.zeros((2, 3, 2))), np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# optimizers


def toy_params(values, grads):
    ps = ad.ParameterSet()
    for i, (v, g) in enumerate(zip(values, grads)):
        p = ps.register(f"p{i}", np.array(v, dtype=float))
        p.value.grad = np.array(g, dtype=float)
    return ps


def test_sgd_step():
    ps = toy_params([[[1.0, 2.0]]], [[[0.5, -1.0]]])
    tr.SGD(lr=0.1).step(ps)
    assert np.allclose(ps["p0"].value.data, [[0.95, 2.1]], atol=1e-15)


def test_adam_first_step_closed_form():
    g = np.array([[0.3, -2.0, 1e-6]])
    ps = toy_params([np.zeros((1, 3))], [g])
    opt = tr.Adam(lr=0.01)
    opt.step(ps)
    expect = -0.01 * g / (np.sqrt(g * g) + 1e-8)
    assert np.max(np.abs(ps["p0"].value.data - expect)) < 1e-12


def test_adam_zero_gradient_no_update():
    ps = toy_params([[[1.0, -3.0]]], [np.zeros((1, 2))])
    opt = tr.Adam(lr=0.5)
    for _ in range(3):
        opt.step(ps)
    assert np.array_equal(ps["p0"].value.data, [[1.0, -3.0]])


def test_adam_matches_scripted_oracle():
    # independent reimplementation of the update, run for 50 constant-grad steps
    g = np.array([[0.7, -0.2]])
    ps = toy_params([np.zeros((1, 2))], [g])
    opt = tr.Adam(lr=0.01)
    x = np.zeros((1, 2))
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, 51):
        opt.step(ps)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        ps["p0"].value.grad = g.copy()
    assert np.max(np.abs(ps["p0"].value.data - x)) < 1e-12
    # constant gradient drives near-constant steps of size ~lr in each coord
    steps = np.abs(x / 50)
    assert np.all(steps > 0.008) and np.all(steps < 0.0102)


def test_clip_gradients_scales_to_norm():
    ps = toy_params([[[0.0, 0.0]], [[0.0]]], [[[3.0, 0.0]], [[4.0]]])
    norm = tr.clip_gradients(ps, clip_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = math.sqrt(sum(float((p.value.grad ** 2).sum()) for p in ps))
    assert abs(clipped - 1.0) < 1e-12


def test_clip_gradients_noop_below_threshold():
    ps = toy_params([[[0.0]]], [[[0.5]]])
    norm = tr.clip_gradients(ps, clip_norm=10.0)
    assert abs(norm - 0.5) < 1e-12
    assert ps["p0"].value.grad[0, 0] == 0.5


# ---------------------------------------------------------------------------
# training loop


def test_zero_learning_rate_is_null_update():
    batches = cv_batches()
    mc = desk_config("g_lstm")
    tc = TrainConfig(epochs=2, batch_size=2, lr=0.0, optimizer="sgd", seed=3)
    res = tr.train(batches, mc, tc)
    fresh = md.TrajectoryModel(desk_config("g_lstm"), seed=3)
    for name, arr in res.model.params.state().items():
        assert np.array_equal(arr, fresh.params.state()[name]), name


def test_empty_batches_rejected():
    with pytest.raises(InputError):
        tr.train([], desk_config("g_lstm"), TrainConfig())


def test_history_and_log_shape():
    batches = cv_batches()
    tc = TrainConfig(epochs=3, batch_size=2, lr=0.01, optimizer="sgd", seed=0)
    res = tr.train(batches, desk_config("g_lstm"), tc)
    assert len(res.history) == 3
    step_lines = [l for l in res.log.lines if "wall_ms=" in l]
    assert len(step_lines) == 3 * 2  # 3 batches in groups of 2 -> 2 steps/epoch
    assert all("loss=" in l for l in step_lines)


def test_divergence_aborts_with_history():
    bad = cv_batches(seeds=(1,))[0]
    bad.target[0, 0, 0] = float("nan")
    with pytest.raises(tr.DivergenceError) as exc:
        tr.train([bad], desk_config("g_lstm"),
                 TrainConfig(epochs=1, batch_size=1, lr=0.01, seed=0))
    assert exc.value.epoch == 0
    assert "not finite" in str(exc.value)


@pytest.mark.parametrize("clip_norm,value", [(0.0, float("nan")), (1.0, float("inf"))],
                         ids=["noclip-nan", "clip-inf"])
def test_non_finite_gradient_aborts_before_step(monkeypatch, clip_norm, value):
    # zero_grad leaves value in one gradient and backward() adds to it:
    # a non-finite gradient behind a finite loss
    zero_grad = ad.ParameterSet.zero_grad

    def poisoned(pset):
        zero_grad(pset)
        next(iter(pset)).value.grad[0, 0] = value

    monkeypatch.setattr(ad.ParameterSet, "zero_grad", poisoned)
    steps = []
    monkeypatch.setattr(tr.Adam, "step", lambda opt, params: steps.append(1))
    with pytest.raises(tr.DivergenceError) as exc:
        tr.train(cv_batches(), desk_config("g_lstm"),
                 TrainConfig(epochs=1, batch_size=2, lr=0.01, seed=0,
                             clip_norm=clip_norm))
    assert "gradient norm is not finite at epoch 0 batch 0" in str(exc.value)
    assert len(exc.value.history) == 1 and math.isfinite(exc.value.history[0])
    assert steps == []


def test_sgd_loss_monotone_after_warmup():
    batches = cv_batches()
    tc = TrainConfig(epochs=25, batch_size=4, lr=0.3, optimizer="sgd", seed=3)
    res = tr.train(batches, desk_config("g_lstm"), tc)
    h = res.history
    assert h[-1] < h[0]
    for i in range(3, len(h) - 1):
        assert h[i + 1] <= h[i] + 1e-6, (i, h[i], h[i + 1])


def test_gradient_accumulation_is_group_mean():
    batches = cv_batches(seeds=(1, 2))
    targets = targets_of(batches)
    model = md.TrajectoryModel(desk_config("mcr_n"), seed=4)

    singles = []
    for b, t in zip(batches, targets):
        model.params.zero_grad()
        ad.backward(tr.loss_graph(model.run(b), t))
        singles.append({p.name: p.value.grad.copy() for p in model.params})

    model.params.zero_grad()
    for b, t in zip(batches, targets):
        ad.backward(ad.scale(tr.loss_graph(model.run(b), t), 0.5))
    for p in model.params:
        want = 0.5 * (singles[0][p.name] + singles[1][p.name])
        assert np.max(np.abs(p.value.grad - want)) < 1e-14, p.name


@pytest.mark.parametrize("variant", VARIANTS)
def test_grad_check_differences_match_the_per_element_loop(monkeypatch, variant):
    # the instance quick_grad_check audits (C1), every element of every
    # parameter
    seen = []
    monkeypatch.setattr(ad, "grad_check", lambda build, params: seen.append((build, params)))
    tr.quick_grad_check(variant)
    build, params = seen[0]
    assert_stacked_differences_match(build, params)


@pytest.mark.parametrize("variant", ["g_lstm", "mcr_n"])
def test_grad_check_no_grad_forwards_match_recording(monkeypatch, variant):
    def errors():
        rep = tr.quick_grad_check(variant)
        return {k: v.hex() for k, v in rep.per_param.items()}

    free = errors()
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    assert errors() == free


# ---------------------------------------------------------------------------
# checkpoints


def mkdir(base, name):
    d = base / name
    d.mkdir(exist_ok=True)
    return d


def trained_pair(tmp_path, seed=5, epochs=2):
    batches = cv_batches()
    mc = desk_config("mcr_n")
    tc = TrainConfig(epochs=epochs, batch_size=2, lr=0.01, seed=seed)
    res = tr.train(batches, mc, tc)
    path = str(tmp_path / f"ckpt_{seed}.txt")
    tr.save_checkpoint(path, res.model, tc, epochs, res.history)
    return res, tc, path


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    res, tc, path = trained_pair(tmp_path)
    ck = tr.load_checkpoint(path)
    assert ck.epoch == 2
    assert ck.history == res.history
    assert ck.train_cfg == tc
    assert ck.model_cfg == res.model.cfg
    for name, arr in res.model.params.state().items():
        assert np.array_equal(ck.state[name], arr), name
    batch = cv_batches(seeds=(9,))[0]
    before = res.model.run(batch).predictions
    after = ck.restore().run(batch).predictions
    assert np.array_equal(before, after)


def test_same_seed_bit_identical_checkpoints(tmp_path):
    _, _, p1 = trained_pair(mkdir(tmp_path, "a"), seed=5)
    _, _, p2 = trained_pair(mkdir(tmp_path, "b"), seed=5)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_different_seed_differs(tmp_path):
    r1, _, _ = trained_pair(mkdir(tmp_path, "a"), seed=5, epochs=1)
    r2, _, _ = trained_pair(mkdir(tmp_path, "b"), seed=6, epochs=1)
    s1, s2 = r1.model.params.state(), r2.model.params.state()
    assert any(not np.array_equal(s1[n], s2[n]) for n in s1)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("not-a-checkpoint\n")
    with pytest.raises(tr.CheckpointError):
        tr.load_checkpoint(path)


def test_checkpoint_tampered_config_hash_mismatch(tmp_path):
    _, _, path = trained_pair(tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("model.hidden_size"))
    lines[idx] = "model.hidden_size 999"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(tr.CheckpointError, match="hash"):
        tr.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    _, _, path = trained_pair(tmp_path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(tr.CheckpointError):
        tr.load_checkpoint(path)


@pytest.fixture(scope="module")
def desk_ckpt_lines(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "ckpt")
    model = md.TrajectoryModel(desk_config("mcr_n"), seed=7)
    tr.save_checkpoint(path, model, TrainConfig(epochs=1), 1, [0.5, 0.25])
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_checkpoint_line(tmp_path, desk_ckpt_lines, data):
    """Replacing any one line loads and restores, or raises CheckpointError."""
    lines = list(desk_ckpt_lines)
    idx = data.draw(st.integers(0, len(lines) - 1))
    head = lines[idx].split(" ")[0]
    lines[idx] = data.draw(st.one_of(
        st.text(max_size=40),
        st.text(max_size=20).map(lambda t: f"{head} {t}"),
        st.integers(-2, 10**6).map(lambda n: f"{head} {n}"),
    ))
    path = tmp_path / "fuzz"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        tr.load_checkpoint(str(path)).restore()
    except tr.CheckpointError:
        pass


def test_checkpoint_arrays_are_raw_hex(desk_ckpt_lines):
    """One record per line; each array is the lowercase hex of its
    little-endian float64 bytes, parameters in registration order."""
    model = md.TrajectoryModel(desk_config("mcr_n"), seed=7)
    state = model.params.state()
    tc = TrainConfig(epochs=1)
    assert desk_ckpt_lines == [
        "g2k-ckpt-v2",
        f"hash {config_hash(model.cfg, tc)}",
        "epoch 1",
        *(f"model.{k} {v}" for k, v in config_items(model.cfg)),
        *(f"train.{k} {v}" for k, v in config_items(tc)),
        "history 000000000000e03f000000000000d03f",  # 0.5, 0.25
        *(f"param {n} {state[n].shape[0]} {state[n].shape[1]} "
          + b"".join(struct.pack("<d", v) for v in state[n].flat).hex()
          for n in model.params.names()),
        "end",
    ]


def with_line(tmp_path, lines, idx, new):
    """Path of a checkpoint whose line idx (0-based) is new."""
    lines = list(lines)
    lines[idx] = new
    path = tmp_path / "ckpt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("section,row,value", [
    ("history", 2, "inf"), ("param decode.w", 2, "nan"), ("param decode.w", 1, "-inf"),
])
def test_non_finite_checkpoint_value_names_its_line(tmp_path, desk_ckpt_lines,
                                                    section, row, value):
    """row is the 1-based position of the value the edit makes non-finite."""
    idx = next(i for i, l in enumerate(desk_ckpt_lines) if l.startswith(section + " "))
    head, digits = desk_ckpt_lines[idx].rsplit(" ", 1)
    at = 16 * (row - 1)
    bad = struct.pack("<d", float(value)).hex()
    path = with_line(tmp_path, desk_ckpt_lines, idx,
                     f"{head} {digits[:at]}{bad}{digits[at + 16:]}")
    with pytest.raises(tr.CheckpointError) as exc:
        tr.load_checkpoint(str(path))
    assert str(exc.value) == f"{path}:{idx + 1}: non-finite value at index {row - 1}"


@pytest.mark.parametrize("prefix,edit,message", [
    ("history", lambda l: l + "0", "33 characters, not 16 hex digits per value"),
    ("param decode.b", lambda l: l[:-16] + "zz" + l[-14:],
     "non-hexadecimal number found"),
    ("history", lambda l: l.replace(" 0000", " 00  "),
     "32 characters, not 16 hex digits per value"),
    ("param decode.w", lambda l: l[:-16], "8x4 decode.w holds 31 values"),
    ("param decode.w", lambda l: l.replace(" 8 4 ", " 8 5 "), "8x5 decode.w holds 32 values"),
    ("param decode.w", lambda l: l.rsplit(" ", 1)[0],
     "expected 'param <name> <rows> <cols> <hex>'"),
    ("param decode.b", lambda l: l.replace(" 1 ", " one "), "bad count 'one'"),
    ("param decode.b", lambda l: "param decode.w" + l[len("param decode.b"):],
     "repeated 'param decode.w'"),
    ("train.seed", lambda l: "model.hidden_size 8", "repeated 'model.hidden_size'"),
    ("param decode.b", lambda l: "epoch 1", "repeated 'epoch'"),
    ("epoch", lambda l: "epoch -1", "bad count '-1'"),
    ("epoch", lambda l: "weights 1", "unknown tag 'weights'"),
    ("epoch", lambda l: "", "unknown tag ''"),
    ("train.lr", lambda l: "train.lr fast", "bad value for lr: expected float, got 'fast'"),
], ids=["odd-hex", "non-hex", "spaced-hex", "value-count", "shape-count", "no-hex",
        "bad-rows", "repeated-param", "repeated-field", "repeated-epoch",
        "negative-epoch", "unknown-tag", "blank-line", "bad-field"])
def test_bad_checkpoint_record_names_its_line(tmp_path, desk_ckpt_lines, prefix,
                                              edit, message):
    """The later of two repeated records is the one named."""
    idx = next(i for i, l in enumerate(desk_ckpt_lines) if l.startswith(prefix + " "))
    path = with_line(tmp_path, desk_ckpt_lines, idx, edit(desk_ckpt_lines[idx]))
    with pytest.raises(tr.CheckpointError) as exc:
        tr.load_checkpoint(str(path))
    assert str(exc.value).startswith(f"{path}:{idx + 1}: {message}")


@pytest.mark.parametrize("record,message", [
    ("end", "no end record"),
    ("epoch", "no epoch record"),
    ("model.tau", "no model.tau record"),
    ("train.clip_norm", "no train.clip_norm record"),
])
def test_checkpoint_missing_record(tmp_path, desk_ckpt_lines, record, message):
    lines = [l for l in desk_ckpt_lines if l.split(" ")[0] != record]
    path = tmp_path / "ckpt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(tr.CheckpointError) as exc:
        tr.load_checkpoint(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_checkpoint_v1_is_not_read(tmp_path, desk_ckpt_lines):
    path = with_line(tmp_path, desk_ckpt_lines, 0, "g2k-ckpt-v1")
    with pytest.raises(tr.CheckpointError) as exc:
        tr.load_checkpoint(str(path))
    assert str(exc.value) == f"{path}: not a g2k-ckpt-v2 file"


def half_then_disk_full(real_open=open):
    """open() whose files take half of a write, then fail with ENOSPC."""

    def opener(path, mode="r", **kw):
        fh = real_open(path, mode, **kw)

        class HalfWriter:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, text):
                fh.write(text[: len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        return HalfWriter()

    return opener


@pytest.mark.parametrize("writer", ["checkpoint", "log", "report", "viz", "tsv",
                                    "pgm"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "out"
    target.write_text("previous\n")
    model = md.TrajectoryModel(desk_config("g_lstm"), seed=1)
    log = tr.TrainLog()
    log.record(epoch=0, loss="0.5")
    report = ev.EvalReport("g_lstm", "h", [ev.EvalRow("x", 1.0, 2.0, [1.0], 1, 2)])
    write = {
        "checkpoint": lambda: tr.save_checkpoint(str(target), model,
                                                 TrainConfig(), 1, [0.5]),
        "log": lambda: log.write(str(target)),
        "report": lambda: ev.write_report_csv(report, str(target)),
        "viz": lambda: cli.write_matrix_csv(str(target), np.eye(2), "h"),
        "tsv": lambda: da.write_dataset(da.scenario_points(da.SyntheticScenario()),
                                        str(target)),
        "pgm": lambda: da.write_pgm(str(target), np.eye(2) * 255),
    }[writer]
    with monkeypatch.context() as mp:
        mp.setattr(config, "open", half_then_disk_full(), raising=False)
        with pytest.raises(OSError, match="No space"):
            write()
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    write()  # the same write succeeds once the disk has room
    assert target.read_text() != "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_train_log_write(tmp_path):
    log = tr.TrainLog()
    log.record(epoch=0, batch=1, loss="0.5", wall_ms="1.2")
    path = tmp_path / "log.txt"
    log.write(str(path))
    assert path.read_text() == "epoch=0 batch=1 loss=0.5 wall_ms=1.2\n"
