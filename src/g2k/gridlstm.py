"""Grid LSTM encoder cell shared by the social and visuospatial encoders.

The feature axis is partitioned into num_blocks contiguous slices, each with
its own cell state. A block runs the usual LSTM gate equations on its input
slice and, besides its own hidden slice from the previous timestep, receives
the hidden slice the previous block just produced (the depth link of the
grid). One weight set serves every block.

cell_units stacks the gate transform within a single step: unit u+1 consumes
the hidden slice unit u produced, updating the same (h, c) slice again. With
num_blocks=1 and cell_units=1 the cell reduces exactly to a textbook LSTM.

All state is batched: rows are entities, columns the feature axis, so one
step call advances every pedestrian (or grid cell) at once.

A step is a single autodiff node. Its forward runs every block x unit gate
update in plain NumPy and holds [h_new | c_new]; h and c are column slices of
it, so a step adds 3 graph nodes. Its hand-written backward runs units and
blocks in reverse: gradient flows through the c chain, through the wx_deep
input of stacked units, and through the depth link, whose wd term is shared
by all units of block b+1 and so collects their summed gate gradients. The
per-unit activations the backward reads are saved only when the node
requires grad, so a step under ad.no_grad() keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue


class GridConfigError(ValueError):
    """Cell geometry that cannot be realized (divisibility, bad counts)."""


@dataclass
class GridLSTMConfig:
    hidden_size: int = 128
    num_blocks: int = 4
    block_skip: int = 4
    cell_units: int = 2

    def validate(self) -> None:
        for name in ("hidden_size", "num_blocks", "block_skip", "cell_units"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise GridConfigError(f"{name} must be >= 1, got {v!r}")
        if self.hidden_size % self.num_blocks != 0:
            raise GridConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_blocks {self.num_blocks}"
            )

    @property
    def block_hidden(self) -> int:
        return self.hidden_size // self.num_blocks

    def block_input(self, input_len: int) -> int:
        granule = self.num_blocks * self.block_skip
        if input_len % granule != 0:
            raise GridConfigError(
                f"input width {input_len} not divisible by "
                f"num_blocks*block_skip = {granule}"
            )
        return input_len // self.num_blocks


@dataclass
class GridState:
    """Batched hidden and cell matrices, n_entities x hidden_size."""

    h: DiffValue
    c: DiffValue

    @property
    def n_entities(self) -> int:
        return self.h.data.shape[0]


def init_state(cfg: GridLSTMConfig, n_entities: int) -> GridState:
    cfg.validate()
    if n_entities < 0:
        raise GridConfigError(f"n_entities must be >= 0, got {n_entities}")
    z = np.zeros((n_entities, cfg.hidden_size))
    return GridState(h=ad.constant(z), c=ad.constant(z.copy()))


@dataclass
class GridLSTMParams:
    """One weight set reused by all blocks.

    Gate columns are laid out [i | f | g | o], each block_hidden wide. wx maps
    the block input slice, wh the block's own previous hidden slice, wd the
    depth link from the previous block, wx_deep the hidden-width input of
    stacked units past the first (None when cell_units == 1).
    """

    wx: DiffValue
    wh: DiffValue
    wd: DiffValue
    bias: DiffValue
    wx_deep: DiffValue | None = None


def init_params(
    cfg: GridLSTMConfig,
    input_len: int,
    pset: ad.ParameterSet,
    prefix: str,
    rng: np.random.Generator,
    std: float = 0.1,
) -> GridLSTMParams:
    """Register cell weights under prefix. Forget-gate bias starts at 1.0,
    everything else N(0, std^2); parameter count does not depend on
    num_blocks because blocks share weights."""
    cfg.validate()
    bi = cfg.block_input(input_len)
    bh = cfg.block_hidden

    def reg(name, shape):
        return pset.register(
            f"{prefix}.{name}", rng.normal(0.0, std, shape), f"normal(0,{std})"
        ).value

    bias0 = np.zeros((1, 4 * bh))
    bias0[0, bh : 2 * bh] = 1.0
    bias = pset.register(f"{prefix}.bias", bias0, "zeros, forget slice 1.0").value
    return GridLSTMParams(
        wx=reg("wx", (bi, 4 * bh)),
        wh=reg("wh", (bh, 4 * bh)),
        wd=reg("wd", (bh, 4 * bh)),
        bias=bias,
        wx_deep=reg("wx_deep", (bh, 4 * bh)) if cfg.cell_units > 1 else None,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split form avoids overflow in exp for large |x|: 1 / (1 + e) for
    # x >= 0 and e / (1 + e) below, with e = exp(-|x|) and one division
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def step(
    cfg: GridLSTMConfig,
    inputs: DiffValue,
    state: GridState,
    params: GridLSTMParams,
) -> tuple[DiffValue, GridState]:
    """Advance every entity one timestep.

    inputs: n_entities x input_len. Returns the concatenated block hiddens
    (the per-step feature output) and the new state. Blocks run in index
    order; block b>0 sees block b-1's freshly computed hidden slice through
    wd, block 0 has no depth predecessor. Each gate update computes
    x@wx + bias, then + h@wh, then + depth, in that order.
    """
    cfg.validate()
    n, width = inputs.data.shape
    if n != state.n_entities:
        raise GridConfigError(
            f"batch mismatch: inputs rows {n} != state entities {state.n_entities}"
        )
    bi = cfg.block_input(width)
    bh = cfg.block_hidden
    hs = cfg.hidden_size
    if bi != params.wx.data.shape[0]:
        raise GridConfigError(
            f"input width {width} gives block slices of {bi}, but weights "
            f"were built for {params.wx.data.shape[0]}"
        )
    if cfg.cell_units > 1 and params.wx_deep is None:
        raise GridConfigError("cell_units > 1 requires wx_deep")

    weights = [params.wx, params.wh, params.wd, params.bias]
    if params.wx_deep is not None:
        weights.append(params.wx_deep)
    # the node comes first so the loop below fills its data in place and
    # saves activations only when a backward pass can read them
    node = DiffValue(
        np.empty((n, 2 * hs)), parents=(inputs, state.h, state.c, *weights)
    )
    keep = node.requires_grad
    x, wx, wh, wd = inputs.data, params.wx.data, params.wh.data, params.wd.data
    bias = params.bias.data
    wx_deep = None if params.wx_deep is None else params.wx_deep.data
    xcols = [slice(b * bi, (b + 1) * bi) for b in range(cfg.num_blocks)]
    hcols = [slice(b * bh, (b + 1) * bh) for b in range(cfg.num_blocks)]
    out_h, out_c = node.data[:, :hs], node.data[:, hs:]
    # saved[b][u] = (h_prev, c_prev, i, f, g, o, tanh(c_new)) of unit u of
    # block b; saved[b] stays empty when not keep
    saved: list[list[tuple[np.ndarray, ...]]] = []
    finals: list[np.ndarray] = []  # each block's last hidden, block b+1's depth input
    for b in range(cfg.num_blocks):
        x_b = x[:, xcols[b]]
        h = state.h.data[:, hcols[b]]
        c = state.c.data[:, hcols[b]]
        depth = None if b == 0 else finals[-1] @ wd
        units = []
        for u in range(cfg.cell_units):
            z = x_b @ wx if u == 0 else h @ wx_deep
            z += bias
            z += h @ wh
            if depth is not None:
                z += depth
            # one sigmoid call over all four blocks: the g block's share is
            # discarded, but below ~50 rows a second call costs more
            gates = _sigmoid(z)
            i, f, o = gates[:, :bh], gates[:, bh : 2 * bh], gates[:, 3 * bh :]
            g = np.tanh(z[:, 2 * bh : 3 * bh])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            if keep:
                units.append((h, c, i, f, g, o, tc))
            h, c = o * tc, c_new
        saved.append(units)
        finals.append(h)
        out_h[:, hcols[b]] = h
        out_c[:, hcols[b]] = c

    def _bw(grad):
        # operand rows and gate gradients per weight; each weight gradient is
        # one product at the end
        x_rows, dz_x = [], []  # first unit: x_b -> wx
        h_rows, dz_h = [], []  # every unit: h_prev -> wh (and bias)
        deep_rows, dz_deep = [], []  # later units: h_prev -> wx_deep
        depth_rows, dz_depth = [], []  # block b > 0: finals[b-1] -> wd
        w_back_deep = None if wx_deep is None else (wh + wx_deep).T
        grad_h, grad_c = grad[:, :hs], grad[:, hs:]
        dh_depth = None
        for b in reversed(range(cfg.num_blocks)):
            dh = grad_h[:, hcols[b]]
            if dh_depth is not None:
                dh = dh + dh_depth
            dc = grad_c[:, hcols[b]]
            dz_sum = None
            for u in reversed(range(cfg.cell_units)):
                h, c, i, f, g, o, tc = saved[b][u]
                dc = dc + dh * o * (1.0 - tc * tc)
                dz = np.concatenate(
                    (
                        dc * g * i * (1.0 - i),
                        dc * c * f * (1.0 - f),
                        dc * i * (1.0 - g * g),
                        dh * tc * o * (1.0 - o),
                    ),
                    axis=1,
                )
                dc = dc * f
                h_rows.append(h)
                dz_h.append(dz)
                if u > 0:  # h_prev fed both wh and wx_deep
                    deep_rows.append(h)
                    dz_deep.append(dz)
                    dh = dz @ w_back_deep
                else:
                    x_rows.append(x[:, xcols[b]])
                    dz_x.append(dz)
                    dh = dz @ wh.T
                    if inputs.requires_grad:
                        inputs.grad[:, xcols[b]] += dz @ wx.T
                dz_sum = dz if dz_sum is None else dz_sum + dz
            if state.h.requires_grad:
                state.h.grad[:, hcols[b]] += dh
            if state.c.requires_grad:
                state.c.grad[:, hcols[b]] += dc
            if b > 0:  # every unit of block b added the same depth term
                depth_rows.append(finals[b - 1])
                dz_depth.append(dz_sum)
                dh_depth = dz_sum @ wd.T

        for w, rows, dzs in (
            (params.wx, x_rows, dz_x),
            (params.wh, h_rows, dz_h),
            (params.wd, depth_rows, dz_depth),
            (params.wx_deep, deep_rows, dz_deep),
        ):
            if w is not None and w.requires_grad and rows:
                w.grad += np.concatenate(rows).T @ np.concatenate(dzs)
        if params.bias.requires_grad:
            params.bias.grad += np.concatenate(dz_h).sum(axis=0, keepdims=True)

    if keep:
        node._backward = _bw
    h_new = ad.slice_cols(node, 0, hs)
    c_new = ad.slice_cols(node, hs, 2 * hs)
    return h_new, GridState(h=h_new, c=c_new)
