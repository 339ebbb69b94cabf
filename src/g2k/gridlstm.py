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


def _gate_update(
    x_term: DiffValue,
    h_prev: DiffValue,
    c_prev: DiffValue,
    depth_term: DiffValue | None,
    params: GridLSTMParams,
    bh: int,
) -> tuple[DiffValue, DiffValue]:
    """One LSTM transform on a block slice; returns (h_new, c_new)."""
    z = ad.bias_add(x_term, params.bias)
    z = ad.add(z, ad.matmul(h_prev, params.wh))
    if depth_term is not None:
        z = ad.add(z, depth_term)
    i = ad.sigmoid(ad.slice_cols(z, 0, bh))
    f = ad.sigmoid(ad.slice_cols(z, bh, 2 * bh))
    g = ad.tanh(ad.slice_cols(z, 2 * bh, 3 * bh))
    o = ad.sigmoid(ad.slice_cols(z, 3 * bh, 4 * bh))
    c_new = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


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
    wd, block 0 has no depth predecessor.
    """
    cfg.validate()
    n, width = inputs.data.shape
    if n != state.n_entities:
        raise GridConfigError(
            f"batch mismatch: inputs rows {n} != state entities {state.n_entities}"
        )
    bi = cfg.block_input(width)
    bh = cfg.block_hidden
    if bi != params.wx.data.shape[0]:
        raise GridConfigError(
            f"input width {width} gives block slices of {bi}, but weights "
            f"were built for {params.wx.data.shape[0]}"
        )
    if cfg.cell_units > 1 and params.wx_deep is None:
        raise GridConfigError("cell_units > 1 requires wx_deep")

    h_slices: list[DiffValue] = []
    c_slices: list[DiffValue] = []
    prev_block_h: DiffValue | None = None
    for b in range(cfg.num_blocks):
        x_b = ad.slice_cols(inputs, b * bi, (b + 1) * bi)
        h_b = ad.slice_cols(state.h, b * bh, (b + 1) * bh)
        c_b = ad.slice_cols(state.c, b * bh, (b + 1) * bh)
        depth = None if prev_block_h is None else ad.matmul(prev_block_h, params.wd)
        h_b, c_b = _gate_update(ad.matmul(x_b, params.wx), h_b, c_b, depth, params, bh)
        for _ in range(cfg.cell_units - 1):
            h_b, c_b = _gate_update(
                ad.matmul(h_b, params.wx_deep), h_b, c_b, depth, params, bh
            )
        h_slices.append(h_b)
        c_slices.append(c_b)
        prev_block_h = h_b

    h_new = h_slices[0] if cfg.num_blocks == 1 else ad.concat_cols(h_slices)
    c_new = c_slices[0] if cfg.num_blocks == 1 else ad.concat_cols(c_slices)
    return h_new, GridState(h=h_new, c=c_new)

