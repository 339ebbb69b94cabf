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
it, so a step adds 3 graph nodes. Inside the step the arrays are transposed
(rows are features, columns entities), so every gate of a block is a
contiguous row range and the elementwise work runs on contiguous memory.
Each gate update is one product: [wx; wh; bias] with [x_b; h_b; 1] for a
block's first unit, [wx_deep + wh; bias] with [h; 1] for a stacked unit,
plus the block's depth term. The i, f and o columns of those weights are
halved, so one tanh pass over the pre-activations gives all four gates
(sigmoid(z) = (1 + tanh(z/2)) / 2).

The hand-written backward runs units and blocks in reverse: gradient flows
through the c chain, through the wx_deep input of stacked units, and through
the depth link, whose wd term is shared by all units of block b+1 and so
collects their summed gate gradients. Per unit it reads the gate block
[i | f | g | o], tanh(c_new) and the unit's h and c, which the forward made
anyway; it keeps them only when the node requires grad, so a step under
ad.no_grad() keeps none. The first units' input and state-h gradients and
every weight gradient are one product each after the block loop.

The forward also runs on stacks (ad.grad_check's perturbed forwards): the
inputs, the state and any weight may carry leading stack axes, every array
inside the step puts their broadcast in front, and each slice of the result
is the plain step's, bit for bit. The backward is for plain matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue


class GridConfigError(ValueError):
    """Cell geometry that cannot be realized (divisibility, bad counts)."""


@dataclass(frozen=True)
class GridLSTMConfig:
    """Cell geometry, checked once on construction; frozen, so it stays
    valid and step() need not check it again."""

    hidden_size: int = 128
    num_blocks: int = 4
    cell_units: int = 2

    def __post_init__(self) -> None:
        for name in ("hidden_size", "num_blocks", "cell_units"):
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
        if input_len % self.num_blocks != 0:
            raise GridConfigError(
                f"input width {input_len} not divisible by "
                f"num_blocks {self.num_blocks}"
            )
        return input_len // self.num_blocks


@dataclass
class GridState:
    """Batched hidden and cell matrices, n_entities x hidden_size."""

    h: DiffValue
    c: DiffValue

    @property
    def n_entities(self) -> int:
        return self.h.data.shape[-2]


def init_state(cfg: GridLSTMConfig, n_entities: int) -> GridState:
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
    bi = cfg.block_input(input_len)
    bh = cfg.block_hidden

    def reg(name, shape):
        return pset.register(f"{prefix}.{name}", rng.normal(0.0, std, shape)).value

    bias0 = np.zeros((1, 4 * bh))
    bias0[0, bh : 2 * bh] = 1.0
    bias = pset.register(f"{prefix}.bias", bias0).value
    return GridLSTMParams(
        wx=reg("wx", (bi, 4 * bh)),
        wh=reg("wh", (bh, 4 * bh)),
        wd=reg("wd", (bh, 4 * bh)),
        bias=bias,
        wx_deep=reg("wx_deep", (bh, 4 * bh)) if cfg.cell_units > 1 else None,
    )


def step(
    cfg: GridLSTMConfig,
    inputs: DiffValue,
    state: GridState,
    params: GridLSTMParams,
) -> tuple[DiffValue, GridState]:
    """Advance every entity one timestep.

    inputs: n_entities x input_len, or a stack of them (the module
    docstring). Returns the concatenated block hiddens
    (the per-step feature output) and the new state. Blocks run in index
    order; block b>0 sees block b-1's freshly computed hidden slice through
    wd, block 0 has no depth predecessor. A first unit's pre-activation is
    one product of [wx; wh; bias] with [x_b; h_b; 1], then + depth; a
    stacked unit's is one product of [wx_deep + wh; bias] with [h; 1],
    then + depth.
    """
    n, width = inputs.data.shape[-2:]
    if n != state.n_entities:
        raise GridConfigError(
            f"batch mismatch: inputs rows {n} != state entities {state.n_entities}"
        )
    bi = cfg.block_input(width)
    bh = cfg.block_hidden
    hs = cfg.hidden_size
    nb, nu = cfg.num_blocks, cfg.cell_units
    if bi != params.wx.data.shape[-2]:
        raise GridConfigError(
            f"input width {width} gives block slices of {bi}, but weights "
            f"were built for {params.wx.data.shape[-2]}"
        )
    if nu > 1 and params.wx_deep is None:
        raise GridConfigError("cell_units > 1 requires wx_deep")

    weights = [params.wx, params.wh, params.wd, params.bias]
    if params.wx_deep is not None:
        weights.append(params.wx_deep)
    wx, wh, wd, bias = params.wx.data, params.wh.data, params.wd.data, params.bias.data
    # i, f and o are sigmoids, g a tanh. As sigmoid(z) = (1 + tanh(z/2)) / 2,
    # halving the i, f and o columns of every weight (exact, a power of two)
    # gives all four gates from one tanh pass.
    stacked = [wx, wh, bias, wd]
    if nu > 1:
        stacked += [params.wx_deep.data + wh, bias]
    w = np.concatenate(ad.align_stacks(stacked), axis=-2)
    w[..., : 2 * bh] *= 0.5
    w[..., 3 * bh :] *= 0.5
    k = bi + bh + 1
    w_first = w[..., :k, :].swapaxes(-1, -2)
    w_depth = w[..., k : k + bh, :].swapaxes(-1, -2)
    w_deep = w[..., k + bh :, :].swapaxes(-1, -2)
    # Inside the step columns are entities, so each gate of a block is a
    # contiguous row range. The loop writes [h | c] block by block into
    # `new`, and the node holds its transpose. A stacked forward puts its
    # stack axes in front of every array here.
    lead = ad.stack_shape([inputs.data, state.h.data, state.c.data, w])
    new = np.empty((*lead, 2, nb, bh, n))
    node = DiffValue(
        new.reshape(*lead, 2 * hs, n).swapaxes(-1, -2),
        parents=(inputs, state.h, state.c, *weights),
    )
    keep = node.requires_grad
    first_in = _first_inputs(inputs.data, state.h.data, nb, lead)
    if nu > 1:
        deep_in = np.empty((*lead, nu - 1, nb, bh + 1, n))  # [h; 1] of stacked units
        deep_in[..., -1, :] = 1.0
    c_in = _blocks_t(state.c.data, nb)
    # saved[b][u] = (gates, tanh(c_new), h_new, c_prev) of unit u of block b,
    # c_prev None for the first unit: backward reads it from state.c
    saved: list[list[tuple]] = []
    for b in range(nb):
        c = c_in[..., b, :, :]
        if b:
            depth = w_depth @ new[..., 0, b - 1, :, :]
        units = []
        for u in range(nu):
            z = (w_first @ first_in[..., b, :, :] if u == 0
                 else w_deep @ deep_in[..., u - 1, b, :, :])
            if b:
                z += depth
            np.tanh(z, out=z)
            i_f, g, o = z[..., : 2 * bh, :], z[..., 2 * bh : 3 * bh, :], z[..., 3 * bh :, :]
            i_f *= 0.5
            i_f += 0.5
            o *= 0.5
            o += 0.5
            i, f = i_f[..., :bh, :], i_f[..., bh:, :]
            last = u == nu - 1
            c_new = np.multiply(f, c, out=new[..., 1, b, :, :] if last else None)
            c_new += i * g
            tc = np.tanh(c_new)
            h = np.multiply(o, tc, out=new[..., 0, b, :, :] if last
                            else deep_in[..., u, b, :-1, :])
            if keep:
                units.append((z, tc, h, c if u else None))
            c = c_new
        saved.append(units)

    def _bw(grad):
        grad = np.ascontiguousarray(grad.T).reshape(2, nb, bh, n)
        c_in = _blocks_t(state.c.data, nb)
        # gate gradients dz[u, b] of every unit, and of each block's depth
        # term (its units' dz summed)
        dz = np.empty((nu, nb, 4 * bh, n))
        dz_depth = dz[0, 1:] if nu == 1 else np.empty((nb - 1, 4 * bh, n))
        dc_in = np.empty((nb, bh, n))
        w_deep_back = None if nu == 1 else wh + params.wx_deep.data
        dh_depth = None
        for b in reversed(range(nb)):
            dh = grad[0, b]
            if dh_depth is not None:
                dh = dh + dh_depth
            dc = grad[1, b]
            for u in reversed(range(nu)):
                gates, tc, h, c = saved[b][u]
                if c is None:
                    c = c_in[b]
                i, f, g, o = (gates[:bh], gates[bh : 2 * bh], gates[2 * bh : 3 * bh],
                              gates[3 * bh :])
                dtc = h * tc
                np.subtract(o, dtc, out=dtc)  # o * (1 - tc^2)
                dtc *= dh
                dc = dc + dtc
                dz_u = dz[u, b]
                np.multiply(g, dc, out=dz_u[:bh])
                np.multiply(c, dc, out=dz_u[bh : 2 * bh])
                np.multiply(i, dc, out=dz_u[2 * bh : 3 * bh])
                np.multiply(tc, dh, out=dz_u[3 * bh :])
                # gate derivatives: a - a^2 for the sigmoids, 1 - g^2 for g
                slope = gates * gates
                s_if, s_g, s_o = slope[: 2 * bh], slope[2 * bh : 3 * bh], slope[3 * bh :]
                np.subtract(gates[: 2 * bh], s_if, out=s_if)
                np.subtract(1.0, s_g, out=s_g)
                np.subtract(o, s_o, out=s_o)
                dz_u *= slope
                if u:
                    dc = dc * f
                    dh = w_deep_back @ dz_u
                else:
                    np.multiply(dc, f, out=dc_in[b])
            if b:  # every unit of block b added the same depth term
                if nu > 1:
                    ds = np.add(dz[0, b], dz[1, b], out=dz_depth[b - 1])
                    for u in range(2, nu):
                        ds += dz[u, b]
                dh_depth = wd @ dz_depth[b - 1]

        # the first units' input and state-h gradients, one product for all
        # blocks
        if inputs.requires_grad or state.h.requires_grad:
            dxh = np.matmul(np.concatenate((wx, wh)), dz[0])
            if inputs.requires_grad:
                _add_blocks(inputs.grad, dxh[:, :bi])
            if state.h.requires_grad:
                _add_blocks(state.h.grad, dxh[:, bi:])
        if state.c.requires_grad:
            _add_blocks(state.c.grad, dc_in)
        # rebuilt, not saved: it copies x and h, which the graph holds anyway
        first_in = _first_inputs(inputs.data, state.h.data, nb)
        g_first = np.matmul(first_in, dz[0].swapaxes(1, 2)).sum(axis=0)
        _accumulate(params.wx, g_first[:bi])
        _accumulate(params.wh, g_first[bi:-1])
        _accumulate(params.bias, g_first[-1:])
        if nu > 1:
            g_deep = np.matmul(deep_in, dz[1:].swapaxes(2, 3)).sum(axis=(0, 1))
            _accumulate(params.wh, g_deep[:-1])
            _accumulate(params.wx_deep, g_deep[:-1])
            _accumulate(params.bias, g_deep[-1:])
        if nb > 1:
            g_depth = np.matmul(new[0, :-1], dz_depth.swapaxes(1, 2)).sum(axis=0)
            _accumulate(params.wd, g_depth)

    if keep:
        node._backward = _bw
    h_new = ad.slice_cols(node, 0, hs)
    c_new = ad.slice_cols(node, hs, 2 * hs)
    return h_new, GridState(h=h_new, c=c_new)


def _blocks_t(a: np.ndarray, nb: int) -> np.ndarray:
    """(..., n, nb * w) -> contiguous (..., nb, w, n): block b's columns as
    rows."""
    *lead, n, cols = a.shape
    return np.ascontiguousarray(a.swapaxes(-1, -2)).reshape(*lead, nb, cols // nb, n)


def _first_inputs(x: np.ndarray, h: np.ndarray, nb: int, lead: tuple = ()) -> np.ndarray:
    """[x_b; h_b; 1] of every block b, as (*lead, nb, x_b rows + h_b rows +
    1, n); lead holds the stack axes that x and h broadcast to."""
    *_, n, cols = x.shape
    bi, bh = cols // nb, h.shape[-1] // nb
    stack = np.empty((*lead, nb, bi + bh + 1, n))
    stack[..., :bi, :] = x.swapaxes(-1, -2).reshape(*x.shape[:-2], nb, bi, n)
    stack[..., bi:-1, :] = h.swapaxes(-1, -2).reshape(*h.shape[:-2], nb, bh, n)
    stack[..., -1, :] = 1.0
    return stack


def _add_blocks(grad: np.ndarray, blocks: np.ndarray) -> None:
    """grad (n, nb * w) += blocks (nb, w, n), block b into columns
    b*w:(b+1)*w. grad is C-contiguous (autodiff allocates it with
    np.zeros), so its reshape is a view."""
    view = grad.reshape(grad.shape[0], blocks.shape[0], blocks.shape[1])
    view += blocks.transpose(2, 0, 1)


def _accumulate(w: DiffValue, g: np.ndarray) -> None:
    if w.requires_grad:
        w.grad += g
