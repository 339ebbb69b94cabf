"""Engine-level checks: op forward values against hand oracles, backward
against finite differences, graph bookkeeping rules."""

import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad

from finite_differences import assert_stacked_differences_match
from forking import (Rendezvous, assert_no_child_left, forks, only_caller_returns,
                     record_forks, use_cpus, within)


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


def test_softmax_passes_nan_to_its_row():
    # a NaN reaches the loss, where train() reports the divergence
    y = ad.stable_softmax(ad.constant([[np.nan, 1.0], [0.0, 0.0]])).data
    assert np.isnan(y[0]).all()
    assert np.array_equal(y[1], [0.5, 0.5])


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
        ad.running_sum(a, np.zeros((2, 2)))


def test_concat_slice_round_trip():
    a = rng(3).normal(size=(4, 3))
    b = rng(4).normal(size=(4, 5))
    cat = ad.concat_cols([ad.constant(a), ad.constant(b)])
    assert np.array_equal(ad.slice_cols(cat, 0, 3).data, a)
    assert np.array_equal(ad.slice_cols(cat, 3, 8).data, b)


# ---------------------------------------------------------------------------
# stacked forwards: each slice is the matrix forward, bit for bit

STACK = 5
START = rng(20).normal(size=(3, 2))

# (op, operand matrix shapes)
STACKED_OPS = {
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "matmul_vector": (ad.matmul, [(1, 4), (4, 3)]),
    "transpose": (ad.transpose, [(3, 4)]),
    "add": (ad.add, [(3, 4), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "scale": (lambda a: ad.scale(a, 0.3), [(3, 4)]),
    "bias_add": (ad.bias_add, [(3, 4), (1, 4)]),
    "stable_softmax": (ad.stable_softmax, [(3, 4)]),
    "concat_cols": (lambda *parts: ad.concat_cols(parts), [(3, 2), (3, 1), (3, 4)]),
    "slice_cols": (lambda a: ad.slice_cols(a, 1, 3), [(3, 4)]),
    "running_sum": (lambda a: ad.running_sum(a, START), [(3, 6)]),
    "sum_all": (ad.sum_all, [(3, 4)]),
}


@pytest.mark.parametrize("name", STACKED_OPS)
@pytest.mark.parametrize("stacked", ["all", "first", "last"])
def test_stacked_forward_slices_match_the_matrix_forward(name, stacked):
    op, shapes = STACKED_OPS[name]
    g = rng(21)
    # every matrix differs from slice to slice; an operand that is not
    # stacked is slice 0's matrix in every forward
    mats = [g.normal(size=(STACK, *shape)) * 10.0 for shape in shapes]
    on = [stacked == "all" or (stacked == "first" and i == 0)
          or (stacked == "last" and i == len(mats) - 1) for i in range(len(mats))]
    with ad.no_grad():
        out = op(*[ad.constant(m if s else m[0]) for m, s in zip(mats, on)]).data
    assert out.shape[0] == STACK
    for k in range(STACK):
        ref = op(*[ad.constant(m[k] if s else m[0]) for m, s in zip(mats, on)]).data
        assert out[k].shape == ref.shape
        assert out[k].tobytes() == ref.tobytes(), k


def test_stacks_broadcast_only_leading_axes():
    a = ad.constant(np.ones((STACK, 3, 4)))
    with pytest.raises(ad.ShapeMismatch):
        ad.add(a, ad.constant(np.ones((1, 4))))
    with pytest.raises(ad.ShapeMismatch):
        ad.bias_add(a, ad.constant(np.ones((3, 4))))
    with pytest.raises(ad.ShapeMismatch):
        ad.concat_cols([a, ad.constant(np.ones((STACK, 2, 4)))])
    with pytest.raises(ad.ShapeMismatch):
        ad.leaf(np.ones((STACK, 3, 4)))


def test_backward_rejects_a_stacked_loss():
    w = ad.leaf(rng(22).normal(size=(2, 2)))
    x = ad.constant(rng(23).normal(size=(STACK, 2, 2)))
    loss = ad.sum_all(ad.mul(x, w))
    assert loss.requires_grad and loss.data.shape == (STACK, 1, 1)
    with pytest.raises(ad.ContractError, match="1x1"):
        ad.backward(loss)
    assert np.all(w.grad == 0.0)


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


def test_running_sum_gradient():
    g = rng(9)
    a = ad.leaf(g.normal(size=(4, 10)))
    probe = ad.constant(g.normal(size=(4, 10)))
    start = g.normal(size=(4, 2))

    def build():
        out = ad.running_sum(a, start)
        return ad.sum_all(ad.mul(ad.mul(out, out), probe))

    check_grad_vs_fd(build, [a])


def test_running_sum_telescopes_exactly():
    g = rng(11)
    a = g.normal(size=(6, 24)) * 10.0 ** g.integers(-8, 8, size=(6, 24))
    start = g.normal(size=(6, 2)) * 1e3
    out = ad.running_sum(ad.constant(a), start).data
    prev = start
    for k in range(12):
        prev = prev + a[:, 2 * k : 2 * k + 2]
        assert prev.tobytes() == out[:, 2 * k : 2 * k + 2].copy().tobytes()


@pytest.mark.parametrize("a_shape,start_shape", [
    ((3, 4), (2, 2)),  # row counts differ
    ((3, 5), (3, 2)),  # not whole blocks
    ((3, 4), (3, 0)),  # empty blocks
])
def test_running_sum_shape_mismatch(a_shape, start_shape):
    with pytest.raises(ad.ShapeMismatch):
        ad.running_sum(ad.constant(np.zeros(a_shape)), np.zeros(start_shape))


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
    assert c.grad is None
    assert np.all(x.grad == 1.0)


def test_interior_grad_is_freed_by_backward():
    x = ad.leaf(np.ones((2, 2)))
    c = ad.constant(np.ones((2, 2)))
    assert x.grad is not None and c.grad is None
    y = ad.mul(x, x)
    z = ad.mul(c, c)
    assert y.requires_grad and y.grad is None
    loss = ad.sum_all(ad.add(y, z))
    ad.backward(loss)
    assert y.grad is None and loss.grad is None
    assert np.all(x.grad == 2.0)
    assert not z.requires_grad and z.grad is None


def test_backward_peak_does_not_grow_with_depth():
    # a chain of K adds on a 200 x 200 leaf: the forward holds K arrays, but
    # backward needs only the gradients in flight, so its peak above the
    # forward is the same for K = 10 and K = 100
    size = 200 * 200 * 8
    peaks = {}
    for k in (10, 100):
        x = ad.leaf(np.full((200, 200), 0.5))
        node = x
        for _ in range(k):
            node = ad.add(node, x)
        loss = ad.sum_all(node)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            peaks[k] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.all(x.grad == k + 1)
    assert peaks[10] < 4 * size
    assert peaks[100] < peaks[10] + size // 2


def test_backward_cut_short_leaves_no_interior_grad():
    x = ad.leaf(np.ones((2, 2)))
    y = ad.mul(x, x)
    loss = ad.sum_all(y)
    rule = y._backward

    def interrupted(g):
        raise KeyboardInterrupt

    y._backward = interrupted
    with pytest.raises(KeyboardInterrupt):
        ad.backward(loss)
    y._backward = rule
    ad.backward(loss)
    assert np.all(x.grad == 2.0)


def test_no_grad_records_no_graph():
    x = ad.leaf(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.matmul(x, x)
        inner = ad.leaf(np.ones((1, 1)))
    assert y.parents == () and y._backward is None
    assert not y.requires_grad and y.grad is None
    np.testing.assert_array_equal(y.data, np.full((2, 2), 2.0))
    assert inner.requires_grad and inner.grad is not None  # explicit leaf
    assert ad.matmul(x, x).parents  # recording again after the block


def test_no_grad_restores_recording_after_error():
    with pytest.raises(ad.ShapeMismatch):
        with ad.no_grad():
            ad.add(ad.constant(np.ones((1, 2))), ad.constant(np.ones((2, 1))))
    assert ad.add(ad.leaf([[1.0]]), ad.leaf([[2.0]])).requires_grad


def test_backward_rejects_loss_built_under_no_grad():
    x = ad.leaf(np.ones((2, 2)))
    with ad.no_grad():
        loss = ad.sum_all(ad.mul(x, x))
    with pytest.raises(ad.ContractError, match="require grad"):
        ad.backward(loss)
    assert np.all(x.grad == 0.0)


def test_backward_rejects_constant_loss():
    c = ad.constant(np.ones((2, 2)))
    with pytest.raises(ad.ContractError, match="require grad"):
        ad.backward(ad.sum_all(ad.mul(c, c)))


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


def test_grad_check_leaves_parameters_bit_identical():
    ps = ad.ParameterSet()
    g = rng(16)
    w = ps.register("w", g.normal(size=(3, 2)))
    b = ps.register("b", g.normal(size=(1, 2)))
    arrays = [p.value.data for p in ps]
    before = [a.tobytes() for a in arrays]

    def build():
        h = ad.stable_softmax(ad.bias_add(w.value, b.value))
        return ad.sum_all(ad.mul(h, h))

    assert ad.grad_check(build, ps).passed(1e-4)
    assert all(p.value.data is a for p, a in zip(ps, arrays))
    assert [p.value.data.tobytes() for p in ps] == before


@pytest.mark.parametrize("fail_at", [2, 3])
def test_grad_check_restores_the_parameter_array_when_a_stack_raises(fail_at):
    # w has 2 stacks (32 + 8 elements); build call 1 is the analytic pass,
    # call 2 w's first stack, call 3 its second
    ps = ad.ParameterSet()
    w = ps.register("w", rng(17).normal(size=(5, 8)))
    arr, before = w.value.data, w.value.data.tobytes()
    calls = []

    def build():
        calls.append(w.value.data.shape)
        if len(calls) == fail_at:
            raise ValueError("stack failed")
        return ad.sum_all(ad.mul(w.value, w.value))

    with pytest.raises(ValueError, match="stack failed"):
        ad.grad_check(build, ps)
    assert calls[1:] == [(64, 5, 8), (16, 5, 8)][: fail_at - 1]
    assert w.value.data is arr
    assert arr.tobytes() == before


def test_grad_check_matches_the_per_element_loop():
    # parameters of 1, 32, 33 and 35 elements: whole stacks, a stack of
    # one, and stacks that end mid-row
    ps = ad.ParameterSet()
    g = rng(18)
    w = ps.register("w", g.normal(size=(5, 7)) * 0.5)
    v = ps.register("v", g.normal(size=(7, 4)) * 0.5)
    u = ps.register("u", g.normal(size=(3, 11)) * 0.5)
    b = ps.register("b", g.normal(size=(1, 1)))
    x = ad.constant(g.normal(size=(5, 5)))
    y = ad.constant(g.normal(size=(4, 3)))

    def build():
        h = ad.stable_softmax(ad.matmul(ad.matmul(x, w.value), v.value))
        z = ad.matmul(ad.matmul(h, y), ad.slice_cols(u.value, 2, 7))
        return ad.matmul(ad.sum_all(ad.mul(z, z)), ad.mul(b.value, b.value))

    assert_stacked_differences_match(build, ps)
    assert ad.grad_check(build, ps).passed(1e-4)


def test_grad_check_report_fails_a_nan_error():
    report = ad.GradCheckReport(eps=1e-5, per_param={"a": 1e-6, "b": float("nan"), "c": 2e-6})
    assert not report.passed()
    assert report.failures() == ["b"]
    assert np.isnan(report.worst)
    assert "FAIL b" in report.format()


# ---------------------------------------------------------------------------
# spread: the fan-out behind evaluate


def shared(work, n, meet):
    """work for one spread of n items, made to give every worker an item
    (see Rendezvous)."""
    meet.expect(ad._workers(n))

    def wrapped(item):
        meet.arrive()
        return work(item)

    return wrapped


@forks
def test_spread_returns_results_in_item_order(monkeypatch, tmp_path):
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        forked = record_forks(monkeypatch)
        work = shared(lambda i: (i * i, os.getpid()), 8, Rendezvous(tmp_path / "meet"))
        with only_caller_returns(tmp_path / "log"):
            out = ad.spread(work, range(8))
        assert_no_child_left()
        assert [v for v, _ in out] == [i * i for i in range(8)]
        assert len(forked) == cpus - 1 and {pid for _, pid in out} == {os.getpid(), *forked}


@pytest.fixture
def three_blas_threads():
    """The BLAS thread count at 3 for the test (so pinning to 1 shows),
    restored after it."""
    get_threads, set_threads = ad._blas()
    before = get_threads()
    set_threads(3)
    yield get_threads
    set_threads(before)


@forks
def test_spread_pins_blas_to_one_thread_per_worker(monkeypatch, tmp_path, three_blas_threads):
    use_cpus(monkeypatch, 2)
    with only_caller_returns(tmp_path / "log"):
        out = ad.spread(shared(lambda i: (os.getpid(), three_blas_threads()), 4,
                               Rendezvous(tmp_path / "meet")), range(4))
    assert_no_child_left()
    assert [n for _, n in out] == [1, 1, 1, 1]
    assert len({pid for pid, _ in out}) == 2
    assert three_blas_threads() == 3


@forks
def test_spread_restores_blas_threads_after_a_worker_error(monkeypatch, tmp_path,
                                                           three_blas_threads):
    use_cpus(monkeypatch, 2)

    def work(i):
        if i == 1:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"), only_caller_returns(tmp_path / "log"):
        ad.spread(work, range(4))
    assert_no_child_left()
    assert three_blas_threads() == 3


def test_spread_forks_nothing_without_blas_thread_control(monkeypatch):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(ad, "_blas", lambda: None)
    assert ad.spread(lambda i: (i, os.getpid()), range(5)) == [(i, os.getpid()) for i in range(5)]


@forks
def test_spread_interrupted_at_fork_reaps_the_child(monkeypatch, tmp_path, three_blas_threads):
    # SIGINT right after the real fork returns in the caller, before the
    # child's pid can be recorded: it must wait until the pid is recorded
    use_cpus(monkeypatch, 3)
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    try:
        with pytest.raises(KeyboardInterrupt), only_caller_returns(tmp_path / "log"):
            ad.spread(lambda i: i, range(6))
    finally:
        signal.signal(signal.SIGINT, handler)
    assert_no_child_left()
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask
    assert three_blas_threads() == 3
    assert not (tmp_path / "log").exists()


@forks
def test_spread_applies_the_callers_warning_filters(monkeypatch, tmp_path):
    # a child keeps the filters it inherited at fork: an error filter turns
    # a warning there into its item's failure, which the caller raises
    use_cpus(monkeypatch, 3)
    caller = os.getpid()

    def warn_in_child(i):
        if os.getpid() != caller:
            warnings.warn(f"item {i} in a child", UserWarning)
        return i

    with warnings.catch_warnings(), only_caller_returns(tmp_path / "log"):
        warnings.filterwarnings("error", "item")
        with pytest.raises(UserWarning, match="in a child"):
            ad.spread(shared(warn_in_child, 6, Rendezvous(tmp_path / "meet")), range(6))
    assert_no_child_left()
    assert not (tmp_path / "log").exists()


@forks
def test_spread_raises_a_childs_unpicklable_exception_as_a_runtime_error(monkeypatch,
                                                                          tmp_path):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    class Local(Exception):  # a class defined in a function does not pickle
        pass

    def work(i):
        if os.getpid() != caller:
            raise Local(f"item {i} in a child")
        return i

    with pytest.raises(RuntimeError) as exc, only_caller_returns(tmp_path / "log"):
        ad.spread(shared(work, 2, Rendezvous(tmp_path / "meet")), range(2))
    assert type(exc.value) is RuntimeError
    assert str(exc.value) in ("Local: item 0 in a child", "Local: item 1 in a child")
    assert_no_child_left()


@forks
def test_spread_reports_a_child_whose_result_does_not_pickle_as_dead(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def work(i):
        return i if os.getpid() == caller else (lambda: i)  # a lambda does not pickle

    with pytest.raises(RuntimeError, match="exited with status 1 without sending"), \
            only_caller_returns(tmp_path / "log"):
        ad.spread(shared(work, 2, Rendezvous(tmp_path / "meet")), range(2))
    assert_no_child_left()
    assert not (tmp_path / "log").exists()


# ---------------------------------------------------------------------------
# workers: one pool for a block of runs


@forks
def test_workers_fork_once_and_keep_item_order(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    caller = os.getpid()
    meet = Rendezvous(tmp_path / "meet")

    def work(i):
        meet.arrive()
        return i * i, os.getpid()

    with only_caller_returns(tmp_path / "log"), ad.workers(work) as run:
        assert run([4]) == [(16, caller)] and forked == []  # one item: no fork
        for n in (5, 1, 7, 2):
            if n > 1:
                meet.expect(min(n, 3))
            out = run(range(n))
            assert [v for v, _ in out] == [i * i for i in range(n)]
            pids = {pid for _, pid in out}
            assert len(pids) == min(n, 3) and pids <= {caller, *forked}
        assert len(forked) == 2
    assert_no_child_left()


@forks
def test_workers_grow_when_a_later_run_has_more_items(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    meet = Rendezvous(tmp_path / "meet", timeout=10)

    def work(i):
        meet.arrive()
        return os.getpid()

    with only_caller_returns(tmp_path / "log"), ad.workers(work) as run:
        for n, children in ((2, 1), (3, 2), (2, 2), (5, 2)):
            meet.expect(min(n, 3))
            pids = set(run(range(n)))
            assert len(forked) == children and len(pids) == min(n, 3)
            assert pids <= {os.getpid(), *forked}
    assert_no_child_left()


@forks
def test_workers_send_the_sync_arrays_every_run(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    a = np.zeros((2, 3))
    meet = Rendezvous(tmp_path / "meet")

    def work(i):
        meet.arrive()
        return os.getpid(), a.copy()

    with only_caller_returns(tmp_path / "log"), ad.workers(work, sync=[a]) as run:
        for step in range(3):
            a[...] = step + np.arange(6.0).reshape(2, 3) / 7
            meet.expect(3)
            out = run(range(6))
            assert {pid for pid, _ in out} == {os.getpid(), *forked}, step
            assert all(v.tobytes() == a.tobytes() for _, v in out), step
    assert_no_child_left()


@forks
@pytest.mark.parametrize("how", ["raise", "exit"])
def test_workers_report_a_child_that_fails_mid_block(monkeypatch, tmp_path, how):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    caller = os.getpid()
    meet = Rendezvous(tmp_path / "meet")

    def work(i):
        meet.arrive()
        if i >= 100 and os.getpid() != caller:
            if how == "exit":
                os._exit(7)
            raise ValueError(f"item {i} in {os.getpid()}")
        return i

    want = (RuntimeError, "status 7") if how == "exit" else (ValueError, "item 10")
    with only_caller_returns(tmp_path / "log"), ad.workers(work) as run:
        assert run(range(4)) == list(range(4))
        meet.expect(3)
        with pytest.raises(want[0], match=want[1]):
            run(range(100, 106))
        assert_no_child_left()
        # the next run forks afresh
        assert run(range(4)) == list(range(4)) and len(forked) == 4
    assert_no_child_left()
    assert not (tmp_path / "log").exists()


@forks
def test_workers_stress_more_workers_than_cpus(monkeypatch, tmp_path):
    # six workers on the host's CPUs pull runs of 20,000 tiny items. Every
    # item must run exactly once per run (counted in memory shared with the
    # children) and see that run's sync array; an item lost, pulled twice or
    # run on stale arrays breaks one of the two
    use_cpus(monkeypatch, 6)
    n = 20_000
    runs = mmap.mmap(-1, 8 * n)
    counts = np.frombuffer(runs, dtype=np.int64)
    step = np.zeros((1, 1))

    def work(i):
        counts[i] += 1
        return i + int(step[0, 0])

    with within(120), only_caller_returns(tmp_path / "log"), \
            ad.workers(work, sync=[step]) as run:
        for k in range(3):
            step[0, 0] = 1000.0 * k
            assert run(range(n)) == [i + 1000 * k for i in range(n)]
            assert counts.min() == counts.max() == k + 1
    assert_no_child_left()
    del counts
    runs.close()


@forks
def test_workers_raise_the_lowest_failed_item(monkeypatch, tmp_path):
    # both items fail, each in its own worker. Whichever worker pulled item
    # 0, its error is the one raised
    use_cpus(monkeypatch, 2)

    def work(i):
        raise ValueError(f"item {i} in {os.getpid()}")

    for _ in range(4):
        with pytest.raises(ValueError, match="item 0 in"), \
                only_caller_returns(tmp_path / "log"):
            ad.spread(shared(work, 2, Rendezvous(tmp_path / "meet")), range(2))
        assert_no_child_left()


@forks
def test_workers_interrupted_mid_run_reap_every_child(monkeypatch, tmp_path,
                                                      three_blas_threads):
    use_cpus(monkeypatch, 3)
    caller = os.getpid()
    meet = Rendezvous(tmp_path / "meet")

    def work(i):
        meet.arrive()
        if i >= 100 and os.getpid() == caller:
            os.kill(caller, signal.SIGINT)
        return i

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    try:
        with pytest.raises(KeyboardInterrupt), only_caller_returns(tmp_path / "log"), \
                ad.workers(work) as run:
            assert run(range(4)) == list(range(4))
            assert three_blas_threads() == 1
            meet.expect(3)
            run(range(100, 106))
    finally:
        signal.signal(signal.SIGINT, handler)
    assert_no_child_left()
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask
    assert three_blas_threads() == 3
    assert not (tmp_path / "log").exists()


@forks
def test_workers_child_keeps_sigint_blocked(monkeypatch, tmp_path):
    # an interrupt sent to a child between runs stays pending there: the
    # next run gets its results from the same child, with no new fork
    use_cpus(monkeypatch, 2)
    forked = record_forks(monkeypatch)
    meet = Rendezvous(tmp_path / "meet")

    def work(i):
        meet.arrive()
        return i * i, os.getpid()

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with only_caller_returns(tmp_path / "log"), ad.workers(work) as run:
            meet.expect(2)
            run(range(2))
            [child] = forked
            os.kill(child, signal.SIGINT)
            time.sleep(0.2)  # time enough for a child that took it to die
            meet.expect(2)
            out = run(range(4))
            assert [v for v, _ in out] == [0, 1, 4, 9]
            assert child in {pid for _, pid in out} and forked == [child]
    finally:
        signal.signal(signal.SIGINT, handler)
    assert_no_child_left()
    assert not (tmp_path / "log").exists()


# opens a pool of one child, prints the child's pid once the child has
# taken an item, and waits to be killed
HOLD_A_POOL = textwrap.dedent("""\
    import os, time
    from g2k import autodiff as ad
    os.sched_getaffinity = lambda pid: {0, 1}
    with ad.workers(lambda i: time.sleep(0.05) or os.getpid()) as run:
        while not (pids := set(run(range(2))) - {os.getpid()}):
            pass
        print(*pids, flush=True)
        time.sleep(60)
""")


def process_state(pid):
    """The state letter of /proc/<pid>/stat, or None once pid is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@forks
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
def test_workers_children_exit_when_the_caller_dies():
    # a child holds none of the caller's pipe ends, so once the caller is
    # killed its command pipe reads end of file and the child exits
    env = dict(os.environ)
    src = str(Path(ad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    helper = subprocess.Popen([sys.executable, "-c", HOLD_A_POOL], env=env,
                              stdout=subprocess.PIPE, text=True)
    child = None
    try:
        child = int(helper.stdout.readline())
        assert process_state(child) not in (None, "Z")
        helper.kill()
        helper.wait()
        deadline = time.monotonic() + 10
        while process_state(child) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert process_state(child) in (None, "Z")
    finally:
        helper.kill()
        helper.wait()
        helper.stdout.close()
        if child is not None and process_state(child) not in (None, "Z"):
            os.kill(child, signal.SIGKILL)


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
