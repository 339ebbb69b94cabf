"""Grid cell checks: textbook-LSTM equivalence when the grid collapses, the
fused step against a composed-op reference graph, finite-difference
gradients through an unroll, state bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad
from g2k import gridlstm as gl


def make_cell(hidden=8, blocks=2, skip=2, units=1, input_len=8, seed=0):
    cfg = gl.GridLSTMConfig(hidden, blocks, skip, units)
    pset = ad.ParameterSet()
    params = gl.init_params(cfg, input_len, pset, "cell", np.random.default_rng(seed))
    return cfg, pset, params


def zero_params(params):
    for w in (params.wx, params.wh, params.wd, params.bias, params.wx_deep):
        if w is not None:
            w.data[...] = 0.0


def textbook_lstm(x_seq, h, c, wx, wh, b, bh):
    """Independent reference: plain dense LSTM, gate layout [i|f|g|o]."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    outs = []
    for x in x_seq:
        z = x @ wx + h @ wh + b
        i = sig(z[:, :bh])
        f = sig(z[:, bh : 2 * bh])
        g = np.tanh(z[:, 2 * bh : 3 * bh])
        o = sig(z[:, 3 * bh :])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h.copy())
    return outs, h, c


def _sigmoid_op(a):
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def bw(g):
        if a.requires_grad:
            a.grad += g * y * (1.0 - y)

    return ad.DiffValue(y, parents=(a,), backward=bw)


def _tanh_op(a):
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a.grad += g * (1.0 - y * y)

    return ad.DiffValue(y, parents=(a,), backward=bw)


def _gate_update(x_term, h_prev, c_prev, depth_term, params, bh):
    """One LSTM transform on a block slice, built from generic ops."""
    z = ad.bias_add(x_term, params.bias)
    z = ad.add(z, ad.matmul(h_prev, params.wh))
    if depth_term is not None:
        z = ad.add(z, depth_term)
    i = _sigmoid_op(ad.slice_cols(z, 0, bh))
    f = _sigmoid_op(ad.slice_cols(z, bh, 2 * bh))
    g = _tanh_op(ad.slice_cols(z, 2 * bh, 3 * bh))
    o = _sigmoid_op(ad.slice_cols(z, 3 * bh, 4 * bh))
    c_new = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_new = ad.mul(o, _tanh_op(c_new))
    return h_new, c_new


def composed_step(cfg, inputs, state, params):
    """Reference for gl.step: the same cell as a graph of generic ops."""
    bi = cfg.block_input(inputs.data.shape[1])
    bh = cfg.block_hidden
    h_slices, c_slices = [], []
    prev_block_h = None
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
    h_new = ad.concat_cols(h_slices)
    return h_new, gl.GridState(h=h_new, c=ad.concat_cols(c_slices))


GRID_SHAPES = [(nb, u) for nb in (1, 2, 4) for u in (1, 2, 3)]


def unroll_setup(blocks, units, n=3, seed=0):
    """Cell (block_hidden 2, block input 2) plus a ParameterSet that also
    holds two steps of inputs and the initial h and c as leaves."""
    cfg = gl.GridLSTMConfig(2 * blocks, blocks, 1, units)
    pset = ad.ParameterSet()
    g = np.random.default_rng(seed)
    params = gl.init_params(cfg, 2 * blocks, pset, "cell", g, std=0.5)
    xs = [pset.register(f"x{t}", g.normal(size=(n, 2 * blocks))).value
          for t in range(2)]
    h0 = pset.register("h0", g.normal(size=(n, cfg.hidden_size))).value
    c0 = pset.register("c0", g.normal(size=(n, cfg.hidden_size))).value
    probe_h = ad.constant(g.normal(size=(n, cfg.hidden_size)))
    probe_c = ad.constant(g.normal(size=(n, cfg.hidden_size)))

    def build(step_fn=gl.step):
        state = gl.GridState(h=h0, c=c0)
        for x in xs:
            _, state = step_fn(cfg, x, state, params)
        return ad.add(ad.sum_all(ad.mul(state.h, probe_h)),
                      ad.sum_all(ad.mul(state.c, probe_c)))

    return cfg, pset, params, build


@pytest.mark.parametrize("blocks,units", GRID_SHAPES)
def test_fused_step_forward_matches_composed_graph(blocks, units):
    cfg, _, params, _ = unroll_setup(blocks, units, n=4, seed=blocks * 10 + units)
    g = np.random.default_rng(units)
    state = ref = gl.GridState(
        h=ad.constant(g.normal(size=(4, cfg.hidden_size))),
        c=ad.constant(g.normal(size=(4, cfg.hidden_size))),
    )
    for _ in range(3):
        x = ad.constant(g.normal(size=(4, 2 * blocks)) * 3.0)
        out, state = gl.step(cfg, x, state, params)
        ref_out, ref = composed_step(cfg, x, ref, params)
        assert np.max(np.abs(out.data - ref_out.data)) < 1e-12
        assert np.max(np.abs(state.c.data - ref.c.data)) < 1e-12


@pytest.mark.parametrize("blocks,units", GRID_SHAPES)
def test_fused_step_gradients(blocks, units):
    _, pset, _, build = unroll_setup(blocks, units, seed=blocks * 10 + units)
    report = ad.grad_check(build, pset)
    assert report.passed(1e-4), report.format()
    assert {"x0", "x1", "h0", "c0", "cell.wd"} <= set(report.per_param)

    # and against the composed graph's backward
    fused = {p.name: p.value.grad.copy() for p in pset}
    pset.zero_grad()
    ad.backward(build(composed_step))
    for p in pset:
        scale = max(1.0, float(np.max(np.abs(p.value.grad), initial=0.0)))
        assert np.max(np.abs(fused[p.name] - p.value.grad)) < 1e-12 * scale, p.name


def test_zero_entity_batch():
    cfg, pset, params = make_cell(units=2)
    out, state = gl.step(cfg, ad.constant(np.zeros((0, 8))), gl.init_state(cfg, 0),
                         params)
    assert out.data.shape == (0, 8) and state.c.data.shape == (0, 8)
    ad.backward(ad.sum_all(ad.add(out, state.c)))
    for p in pset:
        assert np.all(p.value.grad == 0.0), p.name


def test_constant_operands_get_no_gradient():
    cfg, pset, params = make_cell(units=2, seed=2)
    g = np.random.default_rng(3)
    x = ad.constant(g.normal(size=(3, 8)))
    state = gl.GridState(h=ad.constant(g.normal(size=(3, 8))),
                         c=ad.constant(g.normal(size=(3, 8))))
    out, new_state = gl.step(cfg, x, state, params)
    ad.backward(ad.sum_all(ad.add(out, new_state.c)))
    for const in (x, state.h, state.c):
        assert const.grad is None
    assert np.any(params.wx.grad != 0.0)


def test_step_adds_three_nodes():
    cfg, _, params = make_cell(blocks=2, units=2)
    x = ad.constant(np.ones((3, 8)))
    state = gl.init_state(cfg, 3)
    out, new_state = gl.step(cfg, x, state, params)
    operands = {id(v) for v in (x, state.h, state.c, params.wx, params.wh,
                                params.wd, params.bias, params.wx_deep)}
    nodes = {id(v) for root in (out, new_state.c) for v in ad._topo_order(root)}
    assert len(nodes - operands) == 3  # the fused node and its h and c slices


def test_sigmoid_saturation_is_finite():
    cfg, pset, params = make_cell(units=2, seed=4)
    x = ad.leaf(np.tile([800.0, -800.0], (2, 4)))
    out, state = gl.step(cfg, x, gl.init_state(cfg, 2), params)
    ad.backward(ad.sum_all(ad.add(out, state.c)))
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(state.c.data))
    assert np.all(np.isfinite(x.grad))
    for p in pset:
        assert np.all(np.isfinite(p.value.grad)), p.name


def test_zero_preactivation_gates_are_half():
    # all-zero weights: i = f = o = sigmoid(0) = 0.5 and g = tanh(0) = 0
    cfg, _, params = make_cell(units=1)
    zero_params(params)
    c0 = np.random.default_rng(5).normal(size=(3, 8))
    state = gl.GridState(h=ad.constant(np.zeros((3, 8))), c=ad.constant(c0))
    out, new_state = gl.step(cfg, ad.constant(np.zeros((3, 8))), state, params)
    assert np.array_equal(new_state.c.data, 0.5 * c0)
    assert np.array_equal(out.data, 0.5 * np.tanh(0.5 * c0))


def test_init_state_shapes_and_zeros():
    cfg = gl.GridLSTMConfig(128, 4, 4, 2)
    st_ = gl.init_state(cfg, 3)
    assert st_.h.data.shape == (3, 128)
    assert st_.c.data.shape == (3, 128)
    assert np.all(st_.h.data == 0.0) and np.all(st_.c.data == 0.0)
    assert gl.init_state(cfg, 0).h.data.shape == (0, 128)


def test_config_validation():
    with pytest.raises(gl.GridConfigError):
        gl.GridLSTMConfig(10, 4, 1, 1).validate()  # 10 % 4 != 0
    with pytest.raises(gl.GridConfigError):
        gl.GridLSTMConfig(8, 0, 1, 1).validate()
    with pytest.raises(gl.GridConfigError):
        gl.GridLSTMConfig(8, 2, 3, 1).block_input(8)  # 8 % 6 != 0


def test_input_width_mismatch_raises():
    cfg, _, params = make_cell()
    state = gl.init_state(cfg, 2)
    with pytest.raises(gl.GridConfigError):
        gl.step(cfg, ad.constant(np.zeros((2, 12))), state, params)


def test_zero_everything_is_fixed_point():
    cfg, _, params = make_cell(units=2)
    zero_params(params)
    state = gl.init_state(cfg, 3)
    out, new_state = gl.step(cfg, ad.constant(np.zeros((3, 8))), state, params)
    assert np.all(out.data == 0.0)
    assert np.all(new_state.c.data == 0.0)


def test_single_block_matches_textbook_lstm():
    cfg, _, params = make_cell(hidden=6, blocks=1, skip=1, units=1, input_len=5, seed=3)
    g = np.random.default_rng(4)
    xs = [g.normal(size=(4, 5)) for _ in range(100)]

    state = gl.init_state(cfg, 4)
    mine = []
    for x in xs:
        out, state = gl.step(cfg, ad.constant(x), state, params)
        mine.append(out.data)

    ref_outs, ref_h, ref_c = textbook_lstm(
        xs, np.zeros((4, 6)), np.zeros((4, 6)),
        params.wx.data, params.wh.data, params.bias.data, 6,
    )
    for a, b in zip(mine, ref_outs):
        assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(state.h.data - ref_h)) < 1e-12
    assert np.max(np.abs(state.c.data - ref_c)) < 1e-12


def test_two_step_unroll_gradients():
    cfg = gl.GridLSTMConfig(4, 2, 1, 2)
    pset = ad.ParameterSet()
    g = np.random.default_rng(5)
    params = gl.init_params(cfg, 6, pset, "cell", g)
    x0, x1 = g.normal(size=(3, 6)), g.normal(size=(3, 6))
    probe = g.normal(size=(3, 4))

    def build():
        state = gl.init_state(cfg, 3)
        _, state = gl.step(cfg, ad.constant(x0), state, params)
        out, _ = gl.step(cfg, ad.constant(x1), state, params)
        return ad.sum_all(ad.mul(out, ad.constant(probe)))

    report = ad.grad_check(build, pset)
    assert report.passed(1e-4), report.format()


def test_parameter_count_independent_of_num_blocks():
    _, pset1, _ = make_cell(hidden=8, blocks=1, skip=1, units=2, input_len=8)
    _, pset4, _ = make_cell(hidden=8, blocks=4, skip=1, units=2, input_len=8)
    assert len(pset1) == len(pset4)
    assert pset1.names() == pset4.names()


def test_entities_are_independent():
    cfg, _, params = make_cell(units=2, seed=7)
    x = np.random.default_rng(8).normal(size=(5, 8))
    perm = np.array([3, 0, 4, 1, 2])

    state = gl.init_state(cfg, 5)
    out, _ = gl.step(cfg, ad.constant(x), state, params)
    out_p, _ = gl.step(cfg, ad.constant(x[perm]), gl.init_state(cfg, 5), params)
    assert np.array_equal(out.data[perm], out_p.data)


def test_determinism():
    cfg, _, params = make_cell(seed=9)
    x = np.random.default_rng(10).normal(size=(2, 8))
    a, _ = gl.step(cfg, ad.constant(x), gl.init_state(cfg, 2), params)
    b, _ = gl.step(cfg, ad.constant(x), gl.init_state(cfg, 2), params)
    assert np.array_equal(a.data, b.data)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
def test_hidden_bounded_property(seed, steps):
    cfg, _, params = make_cell(units=2, seed=seed % 17)
    g = np.random.default_rng(seed)
    state = gl.init_state(cfg, 3)
    for _ in range(steps):
        out, state = gl.step(cfg, ad.constant(g.normal(size=(3, 8)) * 5), state, params)
    assert np.all(np.abs(state.h.data) <= 1.0 + 1e-12)
    assert np.all(np.isfinite(state.c.data))
