"""Engine-level checks: op forward values against hand oracles, backward
against finite differences, graph bookkeeping rules."""

import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad

from forking import assert_no_child_left, forks, only_caller_returns, use_cpus


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
    assert c.grad is None
    assert np.all(x.grad == 1.0)


def test_interior_grad_is_allocated_by_backward():
    x = ad.leaf(np.ones((2, 2)))
    c = ad.constant(np.ones((2, 2)))
    assert x.grad is not None and c.grad is None
    y = ad.mul(x, x)
    z = ad.mul(c, c)
    assert y.requires_grad and y.grad is None
    ad.backward(ad.sum_all(ad.add(y, z)))
    assert np.all(y.grad == 1.0)
    assert not z.requires_grad and z.grad is None


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


@forks
def test_grad_check_records_only_the_analytic_pass(monkeypatch, tmp_path):
    # perturbed forwards run in forked workers, so every call records its
    # pid and requires_grad in a file that all processes append to
    use_cpus(monkeypatch, 3)
    ps = ad.ParameterSet()
    w = ps.register("w", rng(14).normal(size=(2, 2)))
    log = tmp_path / "calls.txt"

    def build():
        loss = ad.sum_all(ad.mul(w.value, w.value))
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {loss.requires_grad}\n")
        return loss

    with only_caller_returns(log):
        ad.grad_check(build, ps)
    assert_no_child_left()
    calls = [line.split() for line in log.read_text().splitlines()]
    assert [pid for pid, rec in calls if rec == "True"] == [str(os.getpid())]
    assert [rec for _, rec in calls if rec != "True"] == ["False"] * (2 * w.value.data.size)
    assert len({pid for pid, _ in calls}) == 3


def test_grad_check_leaves_parameters_bit_identical(monkeypatch):
    use_cpus(monkeypatch, 3)
    ps = ad.ParameterSet()
    g = rng(16)
    w = ps.register("w", g.normal(size=(3, 2)))
    b = ps.register("b", g.normal(size=(1, 2)))
    before = [p.value.data.tobytes() for p in ps]

    def build():
        h = ad.stable_softmax(ad.bias_add(w.value, b.value))
        return ad.sum_all(ad.mul(h, h))

    assert ad.grad_check(build, ps).passed(1e-4)
    assert [p.value.data.tobytes() for p in ps] == before


@forks
@pytest.mark.parametrize("element, where", [(0, "caller"), (1, "child")])
def test_grad_check_raises_a_worker_error_and_reaps_every_child(
        monkeypatch, tmp_path, element, where):
    # with three workers, element 0 is the caller's, element 1 a child's
    use_cpus(monkeypatch, 3)
    ps = ad.ParameterSet()
    w = ps.register("w", rng(15).normal(size=(2, 3)))
    before = w.value.data.copy()
    caller = os.getpid()

    def build():
        if w.value.data.flat[element] != before.flat[element]:
            raise ad.NumericError(f"perturbed forward in {os.getpid()}")
        return ad.sum_all(ad.mul(w.value, w.value))

    with pytest.raises(ad.NumericError) as err, only_caller_returns(tmp_path / "log"):
        ad.grad_check(build, ps)
    raised_in = int(str(err.value).split()[-1])
    assert (raised_in == caller) == (where == "caller")
    assert_no_child_left()
    assert w.value.data.tobytes() == before.tobytes()
    assert not (tmp_path / "log").exists()


@forks
def test_grad_check_names_the_status_of_a_child_that_died(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    ps = ad.ParameterSet()
    w = ps.register("w", rng(15).normal(size=(2, 3)))
    before = w.value.data.copy()
    caller = os.getpid()

    def build():
        if os.getpid() != caller and w.value.data[0, 1] != before[0, 1]:
            os._exit(7)
        return ad.sum_all(ad.mul(w.value, w.value))

    with pytest.raises(RuntimeError, match="status 7"), only_caller_returns(tmp_path / "log"):
        ad.grad_check(build, ps)
    assert_no_child_left()
    assert w.value.data.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# spread: the fan-out behind grad_check and train


@forks
def test_spread_returns_results_in_item_order(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    with only_caller_returns(tmp_path / "log"):
        out = ad.spread(lambda i: (i * i, os.getpid()), range(8))
    assert_no_child_left()
    assert [v for v, _ in out] == [i * i for i in range(8)]
    pids = [pid for _, pid in out]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids)) == 3 and len(set(pids[1::3])) == len(set(pids[2::3])) == 1


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
        out = ad.spread(lambda i: (os.getpid(), three_blas_threads()), range(4))
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
            raise ad.NumericError(f"item {i}")
        return i

    with pytest.raises(ad.NumericError, match="item 1"), only_caller_returns(tmp_path / "log"):
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


def warn_each(i):
    warnings.warn(f"item {i}", UserWarning)
    if i % 2:
        warnings.warn(f"odd item {i}", RuntimeWarning)
    return i


@pytest.mark.parametrize("cpus", [1, 3])
def test_spread_shows_workers_warnings_in_item_order(monkeypatch, tmp_path, cpus):
    use_cpus(monkeypatch, cpus)
    with warnings.catch_warnings(record=True) as caught, \
            only_caller_returns(tmp_path / "log"):
        warnings.simplefilter("always")
        assert ad.spread(warn_each, range(7)) == list(range(7))
    assert_no_child_left()
    want = []
    for i in range(7):
        want.append((f"item {i}", UserWarning))
        if i % 2:
            want.append((f"odd item {i}", RuntimeWarning))
    assert [(str(w.message), w.category) for w in caught] == want
    assert {(w.filename, w.lineno) for w in caught if w.category is UserWarning} == {
        (__file__, warn_each.__code__.co_firstlineno + 1)}


def test_spread_applies_the_callers_warning_filters(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 3)
    with warnings.catch_warnings(record=True) as caught, \
            only_caller_returns(tmp_path / "log"):
        warnings.simplefilter("default")
        warnings.filterwarnings("ignore", "odd item")
        ad.spread(lambda i: warn_each(i % 2), range(6))
        # once per text and location, as from one process
        assert [str(w.message) for w in caught] == ["item 0", "item 1"]
        warnings.filterwarnings("error", "item 5")
        with pytest.raises(UserWarning, match="item 5"):
            ad.spread(warn_each, range(6))
    assert_no_child_left()


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
