"""Grid cell checks: textbook-LSTM equivalence when the grid collapses,
finite-difference gradients through an unroll, state bookkeeping."""

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
