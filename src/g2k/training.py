"""Deterministic optimization loop with checkpointing.

The objective is the squared Euclidean prediction error, mean-reduced over
pedestrians and predicted steps so the learning rate does not depend on crowd
size, then averaged over the scenes of a training group.

A checkpoint ("g2k-ckpt-v2") is a text file of one record per line, each
led by its tag:

    g2k-ckpt-v2
    hash <sha256 of the configs>
    epoch <n>
    model.<field> <value>             every ModelConfig field
    train.<field> <value>             every TrainConfig field
    history <hex>
    param <name> <rows> <cols> <hex>  every parameter
    end

An array is the lowercase hex of its little-endian float64 bytes, so it
round-trips bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import data as da
from .autodiff import DiffValue
from .config import (InputError, ModelConfig, TrainConfig, config_hash,
                     config_items, desk_config, parse_fields, read_text,
                     write_text)
from .model import KernelRun, TrajectoryModel

CKPT_MAGIC = "g2k-ckpt-v2"

# pedestrian rows per training graph. At paper scale a recorded graph
# peaks at about 0.5 MB per row in its backward pass, so a group of 16
# scenes of up to 24 pedestrians runs as several packs whose gradients add
# up before the one optimizer step; one graph per such group (235 rows)
# would peak near 125 MB. The cap also sets the parallel grain: train()'s
# workers pull a group's packs one at a time, so a group that fits one pack
# runs in the caller alone
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
    """Scalar graph node (a stack of them for a stacked run): sum of squared
    coordinate errors over all steps and pedestrians, divided by
    N * pred_len. A constant 1 m offset at every step yields exactly 1.0. targets is (pred_len, N, 2); for a packed run its
    rows follow the run's scenes and the loss is the mean of the per-scene
    losses: scene s's pedestrians weigh N / (S * n_s), 1 for one scene."""
    n, pred_len = run.positions.data.shape[-2], run.positions.data.shape[-1] // 2
    if targets.shape[0] != pred_len:
        raise InputError(
            f"targets have {targets.shape[0]} steps, run decoded {pred_len}"
        )
    sizes = run.sizes or [n]
    weights = np.concatenate([np.full((n_s, 2 * pred_len), n / (len(sizes) * n_s))
                              for n_s in sizes])
    flat_targets = np.transpose(targets, (1, 0, 2)).reshape(targets.shape[1], -1)
    diff = ad.sub(run.positions, ad.constant(flat_targets))
    total = ad.sum_all(ad.mul(ad.mul(diff, diff), ad.constant(weights)))
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
    """Adaptive moments with bias correction, with Kingma & Ba's constants
    BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8. The first step from zeroed
    moments reduces to lr * g / (sqrt(g^2) + EPS) elementwise."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: ad.ParameterSet) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for p in params:
            g = p.value.grad
            m = self.m.setdefault(p.name, np.zeros_like(g))
            v = self.v.setdefault(p.name, np.zeros_like(g))
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.value.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SGD(cfg.lr)
    return Adam(cfg.lr)


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
        raise InputError("no training batches")
    opt = make_optimizer(train_cfg)
    order_rng = np.random.default_rng(train_cfg.seed)
    targets = [da.target_positions(b) for b in batches]
    for t in targets:
        if t.shape[0] != model_cfg.pred_len:
            raise InputError(
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


def save_checkpoint(path: str, model: TrajectoryModel, train_cfg: TrainConfig,
                    epoch: int, history: list[float]) -> None:
    mc = model.cfg
    lines = [CKPT_MAGIC, f"hash {config_hash(mc, train_cfg)}", f"epoch {epoch}"]
    lines += [f"model.{k} {v}" for k, v in config_items(mc)]
    lines += [f"train.{k} {v}" for k, v in config_items(train_cfg)]
    lines.append(f"history {_hex(history)}")
    for p in model.params:
        rows, cols = p.value.data.shape
        lines.append(f"param {p.name} {rows} {cols} {_hex(p.value.data)}")
    write_text(path, "\n".join(lines) + "\nend\n")


def _hex(values) -> str:
    """The lowercase hex of values' little-endian float64 bytes."""
    return np.asarray(values, dtype="<f8").tobytes().hex()


def _floats(digits: str) -> np.ndarray:
    """Inverse of _hex; ValueError unless 16 hex digits per finite value."""
    raw = bytes.fromhex(digits) if len(digits) % 16 == 0 else b""
    if 2 * len(raw) != len(digits):  # a digit count not 16 per value, or spaces
        raise ValueError(f"{len(digits)} characters, not 16 hex digits per value")
    arr = np.frombuffer(raw, "<f8")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"non-finite value at index {int(np.argmin(finite))}")
    return arr


def _count(raw: str) -> int:
    if not raw.isdecimal():
        raise ValueError(f"bad count {raw!r}")
    return int(raw)


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    epoch: int
    history: list[float]
    state: dict[str, np.ndarray]
    cfg_hash: str

    def restore(self) -> TrajectoryModel:
        try:
            model = TrajectoryModel(self.model_cfg, seed=self.train_cfg.seed)
            model.params.load_state(self.state)
        except ValueError as e:  # config unbuildable, or state does not fit it
            raise CheckpointError(str(e)) from None
        return model


def load_checkpoint(path: str) -> Checkpoint:
    """Inverse of save_checkpoint: one pass over the records, each dispatched
    on its tag. Anything malformed, inconsistent or not UTF-8 raises
    CheckpointError; a bad or repeated record names its 1-based line."""
    lines = read_text(path, CheckpointError).removesuffix("\n").split("\n")
    if lines[0] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a {CKPT_MAGIC} file")
    cfgs = {"model": (ModelConfig, {}), "train": (TrainConfig, {})}
    state: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        tag, _, value = line.partition(" ")
        head = value.split(" ", 3)  # a param's name, rows, cols and hex
        record = f"param {head[0]}" if tag == "param" else tag
        section, _, key = tag.partition(".")
        try:
            if record in seen:
                raise ValueError(f"repeated {record!r}")
            seen.add(record)
            if tag == "end":
                break
            elif tag == "hash":
                stored_hash = value
            elif tag == "epoch":
                epoch = _count(value)
            elif tag == "history":
                history = _floats(value).tolist()
            elif tag == "param":
                if len(head) != 4:
                    raise ValueError("expected 'param <name> <rows> <cols> <hex>'")
                name, rows, cols = head[0], _count(head[1]), _count(head[2])
                arr = _floats(head[3])
                if arr.size != rows * cols:
                    raise ValueError(f"{rows}x{cols} {name} holds {arr.size} values")
                state[name] = arr.reshape(rows, cols)
            elif section in cfgs:
                cls, kw = cfgs[section]
                kw.update(parse_fields(cls, [(key, value)]))
            else:
                raise ValueError(f"unknown tag {tag!r}")
        except ValueError as e:
            raise CheckpointError(f"{path}:{lineno}: {e}") from None
    for record in ["hash", "epoch", "history", "end"] + [
            f"{s}.{f.name}" for s, (cls, _) in cfgs.items() for f in fields(cls)]:
        if record not in seen:
            raise CheckpointError(f"{path}: no {record} record")
    model_cfg, train_cfg = (cls(**kw) for cls, kw in cfgs.values())
    if config_hash(model_cfg, train_cfg) != stored_hash:
        raise CheckpointError(f"{path}: config hash mismatch")
    return Checkpoint(model_cfg, train_cfg, epoch, history, state, stored_hash)
