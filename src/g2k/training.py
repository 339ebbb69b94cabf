"""Deterministic optimization loop with checkpointing.

The objective is the squared Euclidean prediction error, mean-reduced over
pedestrians and predicted steps so the learning rate does not depend on crowd
size, then averaged over the scenes of a training group. Checkpoints are a
text format ("g2k-ckpt-v1") storing every float as float.hex(), which
round-trips bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import data as da
from .autodiff import DiffValue
from .config import (ConfigError, ModelConfig, TrainConfig, config_hash,
                     config_items, desk_config, parse_fields, read_text,
                     write_text)
from .model import KernelRun, TrajectoryModel

CKPT_MAGIC = "g2k-ckpt-v1"

# pedestrian rows per training graph. At paper scale a recorded graph and
# its gradients take about 0.6 MB per row, so a group of 16 scenes of up to
# 24 pedestrians runs as several packs whose gradients add up before the
# one optimizer step; one graph per such group would peak near 230 MB. The
# cap also sets the parallel grain: train()'s workers pull a group's packs
# one at a time, so a group that fits one pack runs in the caller alone
TRAIN_PACK_ROWS = 40


class DivergenceError(RuntimeError):
    """Loss or gradient norm left the finite range; carries recent history
    for the dump. what names the quantity: for "loss", batch is the index
    (into train()'s scene list) of the first scene of the group whose own
    loss is not finite; for "gradient norm", the step within the epoch (the
    log's batch=)."""

    def __init__(self, epoch: int, batch: int, history: list[float],
                 what: str = "loss"):
        self.epoch = epoch
        self.batch = batch
        self.history = history
        tail = ", ".join(f"{v:.6g}" for v in history[-5:])
        super().__init__(
            f"{what} is not finite at epoch {epoch} batch {batch}; "
            f"recent losses: [{tail}]"
        )


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def loss_graph(run: KernelRun, targets: np.ndarray) -> DiffValue:
    """Scalar graph node: sum of squared coordinate errors over all steps and
    pedestrians, divided by N * pred_len. A constant 1 m offset at every step
    yields exactly 1.0. targets is (pred_len, N, 2); for a packed run its
    rows follow the run's scenes and the loss is the mean of the per-scene
    losses, each pedestrian of scene s weighted by N / (S * n_s)."""
    pred_len = len(run.positions)
    if targets.shape[0] != pred_len:
        raise ConfigError(
            f"targets have {targets.shape[0]} steps, run decoded {pred_len}"
        )
    n = run.positions[0].data.shape[0]
    weights = None
    if len(run.sizes) > 1:
        per_scene = n / (len(run.sizes) * np.array(run.sizes, dtype=np.float64))
        weights = ad.constant(np.repeat(per_scene, run.sizes)[:, None] * np.ones((1, 2)))
    total = None
    for k, pos in enumerate(run.positions):
        diff = ad.sub(pos, ad.constant(targets[k]))
        sq = ad.mul(diff, diff)
        if weights is not None:
            sq = ad.mul(sq, weights)
        sq = ad.sum_all(sq)
        total = sq if total is None else ad.add(total, sq)
    return ad.scale(total, 1.0 / (n * pred_len))


def quick_grad_check(variant: str, model_seed: int = 9,
                     data_seed: int = 43) -> "ad.GradCheckReport":
    """Gradient check of a full forward/backward pass at desk scale.

    The instance is deliberately gentle: a slow three-pedestrian arc keeps the
    loss near 1e-2, which keeps the float64 rounding noise of the central
    difference quotient below the 1e-8 error-denominator floor. At walking
    speeds the noise swamps near-zero gradient elements and the check fails
    for reasons that have nothing to do with the backward pass.
    """
    scenario = da.SyntheticScenario(
        kind="group_walk", n_peds=3, seed=data_seed,
        speed_min=0.1, speed_max=0.1, obs_len=3, pred_len=2,
    )
    batch = da.synthesize(scenario)[0]
    targets = da.target_positions(batch)
    cfg = desk_config(variant)
    cfg.lambda_reg = 1.0
    cfg.init_scale = 0.1
    cfg.tau = 1e-6
    model = TrajectoryModel(cfg, seed=model_seed)

    def build() -> DiffValue:
        return loss_graph(model.run(batch), targets)

    return ad.grad_check(build, model.params)


def overfit_straight_setup() -> tuple[
    list[da.SceneBatch], ModelConfig, TrainConfig
]:
    """Memorization fixture for the plain encoder: five noiseless straight
    tracks, 200 epochs. A healthy pipeline drives training ADE below 0.05 m."""
    scenario = da.SyntheticScenario(
        kind="constant_velocity", n_peds=5, seed=3, obs_len=8, pred_len=12,
    )
    cfg = desk_config("g_lstm")
    cfg.obs_len, cfg.pred_len = 8, 12
    return (
        da.synthesize(scenario),
        cfg,
        TrainConfig(epochs=200, batch_size=1, lr=0.01, seed=7),
    )


def overfit_crossing_setup() -> tuple[
    list[da.SceneBatch], ModelConfig, TrainConfig
]:
    """Memorization fixture for the full static-grid variant on two crossing
    tracks.

    Three settings here are load-bearing. self_loops off makes the two-node
    adjacency an exact swap, so state mixing cannot average the pair into one
    shared trajectory (with self loops the near-uniform rows contract the two
    states together and the best reachable fit predicts the crossing's
    midpoint forever). lambda_reg at 1.0 and init_scale at 0.5 keep the
    static pathway's multiplicative chain at a magnitude where its softmax
    still separates rows in float64; at the deploy-scale defaults the message
    arguments land around 1e-17 and round to an exactly uniform map.
    """
    scenario = da.SyntheticScenario(
        kind="crossing_pair", n_peds=2, seed=3, obs_len=8, pred_len=12,
    )
    cfg = desk_config("mcr_mp")
    cfg.obs_len, cfg.pred_len = 8, 12
    cfg.lambda_reg = 1.0
    cfg.init_scale = 0.5
    cfg.tau = 1e-6
    cfg.self_loops = False
    return (
        da.synthesize(scenario),
        cfg,
        TrainConfig(epochs=500, batch_size=1, lr=0.01, seed=7),
    )


def curved_comparison_setup() -> tuple[list[da.SceneBatch], TrainConfig]:
    """Shared fixture for trained-model-vs-extrapolation comparisons: a
    three-pedestrian arc where constant-velocity extrapolation drifts off the
    curve. Callers build the per-variant config via curved_comparison_config."""
    scenario = da.SyntheticScenario(
        kind="group_walk", n_peds=3, seed=11, obs_len=8, pred_len=12,
    )
    return (
        da.synthesize(scenario),
        TrainConfig(epochs=60, batch_size=2, lr=0.01, seed=7),
    )


def curved_comparison_config(variant: str) -> ModelConfig:
    cfg = desk_config(variant)
    cfg.obs_len, cfg.pred_len = 8, 12
    cfg.lambda_reg = 1.0
    cfg.init_scale = 0.5
    cfg.tau = 1e-6
    return cfg


# ---------------------------------------------------------------------------
# optimizers


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: ad.ParameterSet) -> None:
        for p in params:
            p.value.data -= self.lr * p.value.grad


class Adam:
    """Adaptive moments with bias correction. The first step from zeroed
    moments reduces to lr * g / (sqrt(g^2) + eps) elementwise."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: ad.ParameterSet) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            g = p.value.grad
            m = self.m.setdefault(p.name, np.zeros_like(g))
            v = self.v.setdefault(p.name, np.zeros_like(g))
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.value.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SGD(cfg.lr)
    return Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)


def clip_gradients(params: ad.ParameterSet, clip_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most clip_norm
    (0 disables scaling). Returns the pre-clip norm; a non-finite norm
    leaves the gradients as they are."""
    total = 0.0
    for p in params:
        total += float((p.value.grad ** 2).sum())
    norm = total ** 0.5
    if 0.0 < clip_norm < norm < np.inf:
        scale = clip_norm / norm
        for p in params:
            p.value.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainLog:
    """Line-delimited records; one per optimizer step plus epoch summaries."""

    lines: list[str] = field(default_factory=list)

    def record(self, **kv) -> None:
        self.lines.append(" ".join(f"{k}={v}" for k, v in kv.items()))

    def write(self, path: str) -> None:
        write_text(path, "\n".join(self.lines) + "\n")


@dataclass
class TrainResult:
    model: TrajectoryModel
    history: list[float]
    log: TrainLog


def train(
    batches: list[da.SceneBatch],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Optimize on scene batches; deterministic for a fixed seed.

    Scene batches are shuffled each epoch with a seeded generator and grouped
    in runs of batch_size. Each group is one minibatch with one optimizer
    step on the mean of its per-scene losses. Its scenes are packed, in
    order, into graphs of at most TRAIN_PACK_ROWS pedestrians (a group that
    fits is one graph and one backward pass). The packs run on the CPUs the
    process may use through one ad.workers() pool for the whole call: its
    children are forked at the first group with packs enough to need them,
    receive the parameters before every group and pull its packs one at a
    time, with BLAS on one thread in each process. Each pack runs from
    zeroed gradients, and the pack gradients are summed in pack order to
    the group mean, so the result is bit-identical for any number of
    workers.
    Each step's log record holds the loss and the pre-clip gradient norm.
    A non-finite loss, or a non-finite gradient norm before the step,
    aborts with the recent history attached; a non-finite loss
    names the first scene of the group whose own loss is not finite.
    Scenes that lack the image an mcr_mpc model reads are counted in one
    warning for the call (TrajectoryModel.warn_missing_images).
    """
    model = TrajectoryModel(model_cfg, seed=train_cfg.seed)  # validates model_cfg
    train_cfg.validate()
    if not batches:
        raise ConfigError("no training batches")
    opt = make_optimizer(train_cfg)
    order_rng = np.random.default_rng(train_cfg.seed)
    targets = [da.target_positions(b) for b in batches]
    for t in targets:
        if t.shape[0] != model_cfg.pred_len:
            raise ConfigError(
                f"targets have {t.shape[0]} steps, config predicts {model_cfg.pred_len}"
            )
    model.warn_missing_images(batches)

    history: list[float] = []
    log = TrainLog()
    with ad.workers(lambda item: _pack_gradient(model, batches, targets, *item),
                    sync=[p.value.data for p in model.params]) as run:
        for epoch in range(train_cfg.epochs):
            order = order_rng.permutation(len(batches))
            epoch_losses: list[float] = []
            for g0 in range(0, len(order), train_cfg.batch_size):
                group = order[g0 : g0 + train_cfg.batch_size]
                t0 = time.perf_counter()
                items = [(pack, len(pack) / len(group))
                         for pack in pack_rows(group, batches, TRAIN_PACK_ROWS)]
                results = run(items)
                model.params.zero_grad()
                group_loss = 0.0
                for (pack, share), (lv, grads) in zip(items, results):
                    if not np.isfinite(lv):
                        raise DivergenceError(
                            epoch, _first_diverging(model, batches, targets, pack),
                            history + epoch_losses)
                    group_loss += share * lv
                    for p, g in zip(model.params, grads):
                        p.value.grad += g
                epoch_losses.append(group_loss)
                norm = clip_gradients(model.params, train_cfg.clip_norm)
                if not np.isfinite(norm):
                    raise DivergenceError(epoch, g0 // train_cfg.batch_size,
                                          history + epoch_losses, "gradient norm")
                opt.step(model.params)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                log.record(
                    epoch=epoch, batch=g0 // train_cfg.batch_size,
                    loss=f"{epoch_losses[-1]:.10g}", grad_norm=f"{norm:.10g}",
                    wall_ms=f"{wall_ms:.1f}",
                )
            history.append(float(np.mean(epoch_losses)))
            if epoch % train_cfg.log_every == 0:
                log.record(epoch=epoch, summary_loss=f"{history[-1]:.10g}")
    return TrainResult(model=model, history=history, log=log)


def pack_rows(group, batches: list[da.SceneBatch], cap: int) -> list[list[int]]:
    """Split the scene indices of group, in order, into packs of at most cap
    pedestrians; a larger scene forms a pack of its own."""
    packs: list[list[int]] = [[]]
    rows = 0
    for bi in map(int, group):
        n = batches[bi].n_peds
        if packs[-1] and rows + n > cap:
            packs.append([])
            rows = 0
        packs[-1].append(bi)
        rows += n
    return packs


def _pack_gradient(model: TrajectoryModel, batches: list[da.SceneBatch],
                   targets: list[np.ndarray], pack: list[int], share: float):
    """Run the scenes of pack as one graph and return its loss (the mean of
    their per-scene losses) with the gradient of share times that loss, one
    array per parameter, taken from zeroed leaf grads. A non-finite loss
    comes back with no gradient and no backward pass."""
    loss = loss_graph(model.run([batches[bi] for bi in pack]),
                      np.concatenate([targets[bi] for bi in pack], axis=1))
    lv = float(loss.data[0, 0])
    if not np.isfinite(lv):
        return lv, None
    model.params.zero_grad()
    ad.backward(ad.scale(loss, share))
    return lv, [p.value.grad.copy() for p in model.params]


def _first_diverging(model: TrajectoryModel, batches: list[da.SceneBatch],
                     targets: list[np.ndarray], pack: list[int]) -> int:
    """Index of the first scene in pack whose loss, run on its own, is not
    finite. Inside a packed graph a non-finite value reaches the other
    scenes through zero-weight links (0 * inf), so each is rerun alone."""
    with ad.no_grad():
        for bi in pack:
            lv = float(loss_graph(model.run(batches[bi]), targets[bi]).data[0, 0])
            if not np.isfinite(lv):
                return bi
    return pack[0]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path: str,
    model: TrajectoryModel,
    train_cfg: TrainConfig,
    epoch: int,
    history: list[float],
) -> None:
    mc = model.cfg
    lines = [CKPT_MAGIC, f"hash {config_hash(mc, train_cfg)}", f"epoch {epoch}"]
    for k, v in config_items(mc):
        lines.append(f"model.{k} {v}")
    for k, v in config_items(train_cfg):
        lines.append(f"train.{k} {v}")
    lines.append(f"history {len(history)}")
    lines.extend(h.hex() for h in map(float, history))
    state = model.params.state()
    lines.append(f"params {len(state)}")
    for name in model.params.names():
        arr = state[name]
        lines.append(f"param {name} {arr.shape[0]} {arr.shape[1]}")
        lines.extend(" ".join(v.hex() for v in row) for row in arr.tolist())
    lines.append("end")
    write_text(path, "\n".join(lines) + "\n")


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    epoch: int
    history: list[float]
    state: dict[str, np.ndarray]
    cfg_hash: str

    def restore(self, seed: int | None = None) -> TrajectoryModel:
        try:
            model = TrajectoryModel(
                self.model_cfg, seed=self.train_cfg.seed if seed is None else seed
            )
            model.params.load_state(self.state)
        except ValueError as e:  # config unbuildable, or state does not fit it
            raise CheckpointError(str(e)) from None
        return model


def load_checkpoint(path: str) -> Checkpoint:
    """Inverse of save_checkpoint. Anything malformed, inconsistent or not
    UTF-8 raises CheckpointError, with the 1-based line number where known."""
    lines = read_text(path, CheckpointError).splitlines()
    if not lines or lines[0] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a {CKPT_MAGIC} file")
    i = 1

    def fail(msg: str) -> CheckpointError:
        return CheckpointError(f"{path}:{i}: {msg}")

    def take() -> str:
        nonlocal i
        if i >= len(lines):
            raise CheckpointError(f"{path}: truncated")
        i += 1
        return lines[i - 1]

    def count(raw: str) -> int:
        if not raw.isdecimal():
            raise fail(f"bad count {raw!r} in {lines[i - 1]!r}")
        return int(raw)

    def take_value(tag: str) -> str:
        key, _, value = take().partition(" ")
        if key != tag or not value:
            raise fail(f"expected '{tag} <value>', got {lines[i - 1]!r}")
        return value

    def hex_floats(width: int) -> list[float]:
        line = take()
        try:
            row = [float.fromhex(v) for v in line.split()]
        except ValueError:
            raise fail(f"not float.hex() values: {line!r}") from None
        if len(row) != width:
            raise fail(f"expected {width} values, got {len(row)}")
        if not np.isfinite(row).all():  # float.fromhex reads nan and inf
            raise fail(f"non-finite value in {line!r}")
        return row

    stored_hash = take_value("hash")
    epoch = count(take_value("epoch"))
    pairs: dict[str, list[tuple[str, str]]] = {"model": [], "train": []}
    while True:
        key, _, value = take().partition(" ")
        if key == "history":
            break
        section, _, name = key.partition(".")
        if section not in pairs:
            raise fail(f"unexpected line {lines[i - 1]!r}")
        pairs[section].append((name, value))
    history = [hex_floats(1)[0] for _ in range(count(value))]
    model_cfg = _stored_config(ModelConfig, pairs["model"], path)
    train_cfg = _stored_config(TrainConfig, pairs["train"], path)
    if config_hash(model_cfg, train_cfg) != stored_hash:
        raise CheckpointError(f"{path}: config hash mismatch")

    state: dict[str, np.ndarray] = {}
    for _ in range(count(take_value("params"))):
        head = take().split()
        if len(head) != 4 or head[0] != "param":
            raise fail(f"expected 'param <name> <rows> <cols>', got {lines[i - 1]!r}")
        name, rows, cols = head[1], count(head[2]), count(head[3])
        state[name] = np.array([hex_floats(cols) for _ in range(rows)])
    if take() != "end":
        raise fail("missing end marker")
    return Checkpoint(model_cfg, train_cfg, epoch, history, state, stored_hash)


def _stored_config(cls, pairs: list[tuple[str, str]], path: str):
    """Config dataclass from a checkpoint's `section.key value` lines, every
    field present."""
    try:
        kw = parse_fields(cls, pairs)
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from None
    missing = [f.name for f in fields(cls) if f.name not in kw]
    if missing:
        raise CheckpointError(f"{path}: checkpoint misses config field {missing[0]}")
    return cls(**kw)
