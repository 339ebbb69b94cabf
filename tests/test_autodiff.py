"""Engine-level checks: op forward values against hand oracles, backward
against finite differences, graph bookkeeping rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad


def rng(seed=0):
    return np.random.default_rng(seed)


def finite_diff_scalar(f, x, eps=1e-6):
    """Central differences of scalar f wrt ndarray x, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_forward_oracle():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_softmax_rows_sum_to_one():
    x = ad.constant(rng(1).normal(size=(5, 7)) * 50)
    y = ad.stable_softmax(x).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    x = rng(2).normal(size=(3, 4))
    a = ad.stable_softmax(ad.constant(x)).data
    b = ad.stable_softmax(ad.constant(x + 1000.0)).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(ad.NumericError):
        ad.stable_softmax(ad.constant([[np.nan, 1.0]]))


def test_bias_add_broadcasts_rows():
    a = ad.constant(np.zeros((3, 2)))
    b = ad.constant([[1.0, 2.0]])
    out = ad.bias_add(a, b)
    assert np.array_equal(out.data, np.tile([[1.0, 2.0]], (3, 1)))


def test_shape_mismatches_raise():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 2)))
    with pytest.raises(ad.ShapeMismatch):
        ad.add(a, b)
    with pytest.raises(ad.ShapeMismatch):
        ad.matmul(a, ad.constant(np.zeros((2, 2))))
    with pytest.raises(ad.ShapeMismatch):
        ad.bias_add(a, ad.constant(np.zeros((1, 2))))
    with pytest.raises(ad.ShapeMismatch):
        ad.row_mul(a, ad.constant(np.zeros((1, 4))))


def test_concat_slice_round_trip():
    a = rng(3).normal(size=(4, 3))
    b = rng(4).normal(size=(4, 5))
    cat = ad.concat_cols([ad.constant(a), ad.constant(b)])
    assert np.array_equal(ad.slice_cols(cat, 0, 3).data, a)
    assert np.array_equal(ad.slice_cols(cat, 3, 8).data, b)


# ---------------------------------------------------------------------------
# backward correctness


def check_grad_vs_fd(build, leaves, eps=1e-6, tol=1e-7):
    for lf in leaves:
        lf.grad[...] = 0.0
    loss = build()
    ad.backward(loss)
    for lf in leaves:
        num = finite_diff_scalar(lambda: float(build().data[0, 0]), lf.data, eps)
        denom = np.maximum(np.maximum(np.abs(lf.grad), np.abs(num)), 1e-8)
        assert np.max(np.abs(lf.grad - num) / denom) < tol * 1e3


def test_matmul_chain_gradient():
    g = rng(5)
    a = ad.leaf(g.normal(size=(3, 4)))
    b = ad.leaf(g.normal(size=(4, 2)))

    def build():
        ab = ad.matmul(a, b)
        return ad.sum_all(ad.mul(ab, ab))

    check_grad_vs_fd(build, [a, b])


def test_gate_style_gradient():
    g = rng(6)
    x = ad.leaf(g.normal(size=(2, 6)))
    w = ad.leaf(g.normal(size=(6, 4)))
    bias = ad.leaf(g.normal(size=(1, 4)))

    def build():
        z = ad.bias_add(ad.matmul(x, w), bias)
        return ad.sum_all(ad.mul(ad.stable_softmax(z), z))

    check_grad_vs_fd(build, [x, w, bias])


def test_softmax_gradient():
    g = rng(7)
    x = ad.leaf(g.normal(size=(3, 5)))
    probe = ad.constant(g.normal(size=(3, 5)))
    check_grad_vs_fd(lambda: ad.sum_all(ad.mul(ad.stable_softmax(x), probe)), [x])


def test_concat_slice_transpose_gradient():
    g = rng(8)
    a = ad.leaf(g.normal(size=(3, 2)))
    b = ad.leaf(g.normal(size=(3, 3)))

    def build():
        cat = ad.concat_cols([a, b])
        left = ad.slice_cols(cat, 0, 2)  # 3x2
        right = ad.slice_cols(cat, 2, 5)  # 3x3
        return ad.sum_all(ad.matmul(ad.transpose(left), right))

    check_grad_vs_fd(build, [a, b])


def test_row_mul_gradient():
    g = rng(9)
    a = ad.leaf(g.normal(size=(4, 3)))
    r = ad.leaf(g.normal(size=(1, 3)))
    check_grad_vs_fd(lambda: ad.sum_all(ad.mul(ad.row_mul(a, r), a)), [a, r])


def test_diamond_graph_accumulates_both_paths():
    # y = x*x + x*x reuses x through two paths; d/dx = 4x
    x = ad.leaf([[3.0]])
    y = ad.add(ad.mul(x, x), ad.mul(x, x))
    ad.backward(ad.sum_all(y))
    assert x.grad[0, 0] == pytest.approx(12.0)


def test_double_backward_doubles_leaf_grads():
    g = rng(10)
    x = ad.leaf(g.normal(size=(2, 2)))
    loss = ad.sum_all(ad.mul(x, x))
    ad.backward(loss)
    once = x.grad.copy()
    ad.backward(loss)
    assert np.allclose(x.grad, 2 * once, atol=0, rtol=0)


def test_backward_requires_scalar():
    x = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ad.ContractError):
        ad.backward(ad.mul(x, x))


def test_constant_receives_no_grad():
    c = ad.constant(np.ones((2, 2)))
    x = ad.leaf(np.ones((2, 2)))
    ad.backward(ad.sum_all(ad.mul(c, x)))
    assert np.all(c.grad == 0.0)
    assert np.all(x.grad == 1.0)


def test_deep_chain_does_not_recurse():
    # 5000 chained adds would blow the recursion limit if toposort recursed
    x = ad.leaf([[1.0]])
    node = x
    one = ad.constant([[1.0]])
    for _ in range(5000):
        node = ad.add(node, one)
    ad.backward(ad.sum_all(node))
    assert x.grad[0, 0] == 1.0


# ---------------------------------------------------------------------------
# parameter registry


def test_parameter_set_rejects_duplicates():
    ps = ad.ParameterSet()
    ps.register("w", np.zeros((2, 2)))
    with pytest.raises(ad.ContractError):
        ps.register("w", np.zeros((2, 2)))


def test_parameter_state_round_trip():
    ps = ad.ParameterSet()
    ps.register("a", rng(11).normal(size=(2, 3)))
    ps.register("b", rng(12).normal(size=(1, 3)))
    snap = ps.state()
    ps["a"].value.data[...] = 0.0
    ps.load_state(snap)
    assert np.array_equal(ps["a"].value.data, snap["a"])
    with pytest.raises(ad.ContractError):
        ps.load_state({"a": snap["a"]})


def test_zero_grad_clears_all():
    ps = ad.ParameterSet()
    p = ps.register("w", np.ones((2, 2)))
    ad.backward(ad.sum_all(ad.mul(p.value, p.value)))
    assert np.any(p.value.grad != 0.0)
    ps.zero_grad()
    assert np.all(p.value.grad == 0.0)


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_passes_on_correct_graph():
    ps = ad.ParameterSet()
    g = rng(13)
    w = ps.register("w", g.normal(size=(3, 3)) * 0.5)
    b = ps.register("b", g.normal(size=(1, 3)) * 0.5)
    x = ad.constant(g.normal(size=(4, 3)))

    def build():
        h = ad.stable_softmax(ad.bias_add(ad.matmul(x, w.value), b.value))
        return ad.sum_all(ad.mul(h, h))

    report = ad.grad_check(build, ps)
    assert report.passed(1e-4), report.format()


def test_grad_check_catches_wrong_gradient():
    # mul's backward is correct; simulate a bug by checking w*w against
    # a forward that actually computes 2*w*w
    ps = ad.ParameterSet()
    w = ps.register("w", rng(14).normal(size=(2, 2)))
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        y = ad.mul(w.value, w.value)
        if calls["n"] > 1:  # perturbed forward passes see a different function
            y = ad.scale(y, 2.0)
        return ad.sum_all(y)

    report = ad.grad_check(build, ps)
    assert not report.passed(1e-4)
    assert "w" in report.failures()


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_softmax_row_stochastic_property(rows, cols, seed):
    x = rng(seed).normal(size=(rows, cols)) * 10
    y = ad.stable_softmax(ad.constant(x)).data
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mul_commutes_property(seed):
    g = rng(seed)
    a, b = g.normal(size=(3, 3)), g.normal(size=(3, 3))
    ab = ad.mul(ad.constant(a), ad.constant(b)).data
    ba = ad.mul(ad.constant(b), ad.constant(a)).data
    assert np.array_equal(ab, ba)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_matmul_identity_property(seed, n):
    a = rng(seed).normal(size=(n, n))
    out = ad.matmul(ad.constant(a), ad.constant(np.eye(n))).data
    assert np.array_equal(out, a)
