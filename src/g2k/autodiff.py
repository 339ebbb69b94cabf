"""Reverse-mode automatic differentiation over dense float64 matrices.

Graphs are built dynamically (define-by-run): every operation returns a new
DiffValue holding the forward result plus a closure that routes the upstream
gradient to its parents. The op set is intentionally small, just enough for
matrix products, softmax, the decoder's running sum and the squared-error
loss; the grid-LSTM gate math is one fused node with its own backward
(gridlstm.step).

Gradients are allocated lazily. A trainable leaf (leaf(), parameters) gets
its gradient array when it is made; constants and nodes that need no
gradient keep grad None. backward() gives an interior node that requires
grad a zero gradient just before its first consumer's rule writes to it and
drops it once the node's own rule has run, so only the gradients of the
graph's frontier are alive at once. Forward-only work runs under
no_grad(): its nodes record no parents and keep no backward closure, so
each one is freed as soon as nothing reads it. Forward values are the same
either way.

The matrix is always the last two axes. A forward may also carry leading
stack axes, one graph evaluating several copies of its inputs at once
(grad_check runs its perturbed forwards this way): every op maps each slice
of a stack as it maps a plain matrix, bit for bit, and only leading stack
axes broadcast. Within the matrix axes broadcasting is never implicit; the
only shape-relaxing op is bias_add, which takes an explicit 1 x cols second
operand. Backward rules, leaf() and parameters are 2-D only, and backward()
rejects a stacked loss.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


def _as_matrix(data, stacked: bool = False) -> np.ndarray:
    """data as a float64 matrix (a scalar is 1 x 1, a vector one row); with
    stacked, an array of more than two axes is taken as a stack of them."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2 or (stacked and arr.ndim > 2):
        return arr
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    raise ShapeMismatch(f"expected a matrix, got ndim={arr.ndim}")


def stack_shape(arrays) -> tuple:
    """The leading stack axes that arrays broadcast to; () for matrices."""
    leads = {a.shape[:-2] for a in arrays}
    return leads.pop() if len(leads) == 1 else np.broadcast_shapes(*leads)


def align_stacks(arrays) -> list[np.ndarray]:
    """arrays with their leading stack axes broadcast to one shape; an array
    that has them already is passed as is, a broadcast one is a read-only
    view."""
    lead = stack_shape(arrays)
    return [a if a.shape[:-2] == lead else np.broadcast_to(a, lead + a.shape[-2:])
            for a in arrays]


_grad_enabled = True


@contextmanager
def no_grad():
    """Build forward-only graphs: inside the block, op results record no
    parents, require no grad and keep no backward closure. Leaves made with
    leaf() still require grad. The switch is process-wide, not per thread."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class DiffValue:
    """One node of the computation graph: value, gradient, backward rule.

    data must be a float64 array whose last two axes are the matrix, kept
    as is; constant() and leaf() convert anything else. Leading axes stack
    copies of the matrix in a forward-only graph: only constant() and op
    results may carry them, and a leaf's data holds a stack only while
    grad_check swaps one in. grad is None unless the node requires
    grad: an explicit requires_grad=True leaf gets a zero array of data's
    shape at once; an interior node holds one only while backward() routes
    through it. Nodes without parents are leaves (parameters or inputs);
    backward() accumulates into leaf grads and leaves them for the
    optimizer, so repeated backward calls without zero_grad sum. Under
    no_grad() parents and backward are dropped.
    """

    __slots__ = ("data", "grad", "parents", "requires_grad", "_backward")

    def __init__(self, data, parents=(), requires_grad=False, backward=None):
        self.data = data
        self.grad = np.zeros(data.shape) if requires_grad else None
        if _grad_enabled and parents:
            self.parents = tuple(parents)
            self._backward = backward
            if not requires_grad:
                for p in self.parents:
                    if p.requires_grad:
                        requires_grad = True
                        break
        else:
            self.parents = ()
            self._backward = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"DiffValue(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> DiffValue:
    """Leaf that never receives gradient (inputs, fixed masks); data may be
    a stack of matrices."""
    return DiffValue(_as_matrix(data, stacked=True))


def leaf(data) -> DiffValue:
    """Trainable leaf; requires grad also under no_grad()."""
    return DiffValue(_as_matrix(data), requires_grad=True)


@dataclass
class Parameter:
    """A named trainable array. The name is a dotted path unique within a
    model, e.g. "embed.pos.w1"."""

    name: str
    value: DiffValue

    def __post_init__(self):
        if not self.value.requires_grad:
            raise ContractError(f"parameter {self.name!r} must require grad")


class ParameterSet:
    """Ordered registry of Parameters with unique names."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, data) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Parameter(name, leaf(data))
        self._params[name] = p
        return p

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def __contains__(self, name):
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self):
        return list(self._params)

    def zero_grad(self):
        for p in self._params.values():
            p.value.grad[...] = 0.0

    def state(self) -> dict[str, np.ndarray]:
        return {n: p.value.data.copy() for n, p in self._params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]):
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ContractError(
                f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for n, p in self._params.items():
            arr = np.asarray(arrays[n], dtype=np.float64)
            if arr.shape != p.value.data.shape:
                raise ShapeMismatch(
                    f"parameter {n!r}: checkpoint shape {arr.shape} "
                    f"!= model shape {p.value.data.shape}"
                )
            p.value.data[...] = arr


# ---------------------------------------------------------------------------
# ops


def matmul(a: DiffValue, b: DiffValue) -> DiffValue:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(
            f"matmul: inner dimensions differ, {a.data.shape} @ {b.data.shape}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return DiffValue(a.data @ b.data, (a, b), backward=_bw)


def transpose(a: DiffValue) -> DiffValue:
    def _bw(g):
        if a.requires_grad:
            a.grad += g.T

    return DiffValue(a.data.swapaxes(-1, -2).copy(), (a,), backward=_bw)


def _require_same_shape(op, a, b):
    if a.data.shape[-2:] != b.data.shape[-2:]:
        raise ShapeMismatch(f"{op}: shapes differ, {a.data.shape} vs {b.data.shape}")


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("add", a, b)

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return DiffValue(a.data + b.data, (a, b), backward=_bw)


def mul(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("mul", a, b)

    def _bw(g):
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return DiffValue(a.data * b.data, (a, b), backward=_bw)


def scale(a: DiffValue, s: float) -> DiffValue:
    s = float(s)

    def _bw(g):
        if a.requires_grad:
            a.grad += g * s

    return DiffValue(a.data * s, (a,), backward=_bw)


def bias_add(a: DiffValue, b: DiffValue) -> DiffValue:
    """a + b with b a 1 x cols row vector added to every row of a.

    The one sanctioned broadcast; keeps affine layers free of silent shape bugs.
    """
    if b.data.shape[-2:] != (1, a.data.shape[-1]):
        raise ShapeMismatch(
            f"bias_add: bias must be (1, {a.data.shape[-1]}), got {b.data.shape}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g.sum(axis=0, keepdims=True)

    return DiffValue(a.data + b.data, (a, b), backward=_bw)


def stable_softmax(x: DiffValue) -> DiffValue:
    """Row-wise softmax with max subtraction. Rows sum to 1 within 1e-12."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        if x.requires_grad:
            # J^T g per row: y * (g - <g, y>)
            dot = (g * y).sum(axis=1, keepdims=True)
            x.grad += y * (g - dot)

    return DiffValue(y, (x,), backward=_bw)


def concat_cols(parts) -> DiffValue:
    parts = list(parts)
    rows = parts[0].data.shape[-2]
    offsets = [0]
    for p in parts:
        if p.data.shape[-2] != rows:
            raise ShapeMismatch(
                f"concat_cols: row counts differ, {rows} vs {p.data.shape[-2]}"
            )
        offsets.append(offsets[-1] + p.data.shape[-1])

    def _bw(g):
        for p, j0, j1 in zip(parts, offsets, offsets[1:]):
            if p.requires_grad:
                p.grad += g[:, j0:j1]

    data = np.concatenate(align_stacks([p.data for p in parts]), axis=-1)
    return DiffValue(data, parts, backward=_bw)


def slice_cols(a: DiffValue, j0: int, j1: int) -> DiffValue:
    if not (0 <= j0 <= j1 <= a.data.shape[-1]):
        raise ShapeMismatch(
            f"slice_cols: [{j0}:{j1}] out of range for width {a.data.shape[-1]}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad[:, j0:j1] += g

    return DiffValue(a.data[..., j0:j1].copy(), (a,), backward=_bw)


def running_sum(a: DiffValue, start: np.ndarray) -> DiffValue:
    """Block j of the result is block j-1 (start for j = 0) plus block j of a,
    added in that order: a is (n, k*w), k blocks of width w, and the constant
    start is (n, w) and shared by every slice of a stacked a. The decoder
    turns its offsets into positions with it."""
    n, w = start.shape
    *lead, rows, cols = a.data.shape
    if rows != n or w == 0 or cols % w:
        raise ShapeMismatch(f"running_sum: {a.data.shape} vs start {start.shape}")
    blocks = a.data.reshape(*lead, n, cols // w, w)

    def _bw(g):
        if a.requires_grad:
            rev = np.cumsum(g.reshape(blocks.shape)[:, ::-1], axis=1)  # from the last block
            a.grad += rev[:, ::-1].reshape(g.shape)

    firsts = align_stacks([start[:, None], blocks])  # start is block -1
    out = np.cumsum(np.concatenate(firsts, axis=-2), axis=-2)[..., 1:, :]
    return DiffValue(out.reshape(a.data.shape), (a,), backward=_bw)


def sum_all(a: DiffValue) -> DiffValue:
    def _bw(g):
        if a.requires_grad:
            a.grad += g[0, 0]

    return DiffValue(a.data.sum(axis=(-2, -1), keepdims=True), (a,), backward=_bw)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: DiffValue) -> list[DiffValue]:
    """Parents-before-children ordering, iterative to survive deep unrolls."""
    order: list[DiffValue] = []
    seen: set[int] = set()
    stack: list[tuple[DiffValue, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: DiffValue) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf with requires_grad.

    An interior node's gradient is allocated when the first of its consumers
    (in reverse topological order) is about to write to it and set back to
    None once the node's own rule has run, since no later rule reads it: the
    call's peak is the forward graph plus the gradients in flight, not a
    second copy of the graph. Leaf grads are not reset, so two backward calls
    without zero_grad double the leaf gradients. A loss that requires no
    grad (built under no_grad(), or from constants only) raises
    ContractError: it would leave every gradient at zero.
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError(
            "backward: loss does not require grad (built under no_grad(), "
            "or from constants only)"
        )
    order = _topo_order(loss)
    for node in order:
        if node.parents:
            node.grad = None  # none left over from a backward cut short
    if loss.grad is None:
        loss.grad = np.zeros((1, 1))
    loss.grad[...] = 1.0
    for node in reversed(order):
        if node._backward is None or not node.requires_grad:
            continue
        for p in node.parents:
            if p.grad is None and p.requires_grad:
                p.grad = np.zeros(p.data.shape)
        node._backward(node.grad)
        node.grad = None  # every consumer ran before it: nothing writes here again


# ---------------------------------------------------------------------------
# gradient checking


# Elements whose central differences share one stacked forward, 2 perturbed
# copies each. At 32 a gradcheck_audit unit's peak RSS stays at that of one
# forward per copy; 64 adds about 1 MB for no further gain in time.
STACK_ELEMENTS = 32


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and numeric
    grads. A NaN error counts as a failure."""

    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return float(np.max(list(self.per_param.values()))) if self.per_param else 0.0

    def passed(self, threshold: float = 1e-4) -> bool:
        return not self.failures(threshold)

    def failures(self, threshold: float = 1e-4) -> list[str]:
        return [n for n, e in self.per_param.items() if not e < threshold]

    def format(self, threshold: float = 1e-4) -> str:
        lines = []
        for name in sorted(self.per_param):
            err = self.per_param[name]
            mark = "ok  " if err < threshold else "FAIL"
            lines.append(f"{mark} {name:40s} max_rel_err={err:.3e}")
        lines.append(f"worst={self.worst:.3e} threshold={threshold:.0e}")
        return "\n".join(lines)


def grad_check(build_loss, params, eps: float = 1e-5) -> GradCheckReport:
    """Compare backward() gradients against central finite differences.

    build_loss must rebuild the graph from the current parameter values,
    reading them through ops only, and return the scalar loss. It is called
    once for the analytic pass, then under no_grad() once per
    STACK_ELEMENTS elements of a parameter, in the caller: the parameter's
    data is swapped for a stack of copies holding x + eps at each of those
    elements, then x - eps at each, and the stacked loss gives every
    quotient (L(x + eps) - L(x - eps)) / 2eps at once. Each slice of a
    stacked forward is bit-identical to the plain forward, so the quotients
    are those of perturbing one element at a time. The parameter's own
    array is put back on every path, unchanged. Relative error per element
    is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    """
    params = list(params)
    for p in params:
        p.value.grad[...] = 0.0
    backward(build_loss())
    analytic = {p.name: p.value.grad.copy() for p in params}

    report = GradCheckReport()
    for p in params:
        ga = analytic[p.name]
        num = _central_differences(build_loss, p.value, eps)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(num)), 1e-8)
        report.per_param[p.name] = (
            float(np.max(np.abs(ga - num) / denom)) if num.size else 0.0
        )
    return report


def _central_differences(build_loss, value: DiffValue, eps: float) -> np.ndarray:
    """The central difference quotient of build_loss() at every element of
    value, shaped like value.data; value.data is the same array again on
    return or raise."""
    orig = value.data
    flat = orig.reshape(-1)
    num = np.empty(orig.size)
    try:
        with no_grad():
            for k0 in range(0, orig.size, STACK_ELEMENTS):
                ks = np.arange(k0, min(k0 + STACK_ELEMENTS, orig.size))
                m = len(ks)
                stack = np.repeat(flat[None], 2 * m, axis=0)
                stack[np.arange(m), ks] = flat[ks] + eps
                stack[np.arange(m, 2 * m), ks] = flat[ks] - eps
                value.data = stack.reshape(2 * m, *orig.shape)
                loss = build_loss().data
                lo = np.broadcast_to(loss, (2 * m, 1, 1)).reshape(-1)
                num[ks] = (lo[:m] - lo[m:]) / (2.0 * eps)
    finally:
        value.data = orig
    return num.reshape(orig.shape)


# ---------------------------------------------------------------------------
# fan-out over forked workers


def spread(work, items) -> list:
    """[work(item) for item in items] on the CPUs the process may use: one
    run of a workers() pool that lives for this call."""
    items = list(items)
    with workers(lambda j: work(items[j])) as run:
        return run(range(len(items)))


@contextmanager
def workers(work, sync=()):
    """A pool of forked workers for the block: yields run, where run(items)
    returns [work(item) for item in items].

    A run of two or more items grows the pool to w = _workers(len(items))
    workers, the caller included, by forking the children it lacks; they
    start from the caller's state and live until the block exits. From
    the first fork on, BLAS is pinned to one thread in every process, since
    the workers already fill the CPUs. Each run sends every child the
    pickled items and the current values of the sync arrays (arrays the
    caller changes in place between runs), so work must depend only on its
    item, the sync arrays and what the children inherited. Within a run the
    caller and the children pull item indices, in index order, from one
    counter in shared memory, each taking the next as soon as it is free. A
    run of one item, or with one worker, runs in the caller.

    Results come back in item order. work's side effects in a child are
    lost; a warning it raises there is shown by that child under the
    filters it inherited at fork, and one that a filter turns into an
    error fails its item. The exception of the lowest-index failed item is
    raised, a RuntimeError naming its exit status where a child died; a
    failure ends the run, so no worker starts an item past it. Children
    keep SIGINT blocked, so an interrupt reaches only the caller. After an
    error or interrupt every child is killed and reaped and the next run
    forks afresh; if the caller dies, the children read end of file and
    exit. On exit the children are reaped and the BLAS thread count
    restored.
    """
    pool = _Pool(work, list(sync))
    try:
        yield pool.run
    finally:
        pool.close()


class _Pool:
    """The state behind one workers() block. Each child is a fork-context
    Process with two one-way Pipes: per run, the caller sends the pickled
    items and sync arrays down the command pipe and the child sends its
    results back up the reply pipe. End of file on a pipe means the process
    at the other end closed it or died."""

    def __init__(self, work, sync: list[np.ndarray]):
        self.work, self.sync = work, sync
        self.children: list[tuple] = []  # (process, command writer, reply reader)
        self.next = None  # the index of the next item to pull, shared with the children
        self.threads: int | None = None  # BLAS thread count before pinning

    def run(self, items) -> list:
        items = list(items)
        w = _workers(len(items))
        if len(items) < 2 or not (self.children or w > 1):
            return [self.work(item) for item in items]
        try:
            self._grow(w)
            return self._spread(items)
        except BaseException:
            self.close()
            raise

    def _grow(self, w: int) -> None:
        """Start children until the pool has at least w workers, the caller
        included. The first start pins BLAS to one thread.

        SIGINT is blocked from just before a child's start() until the child
        is recorded, so an interrupt cannot leave it unreaped. The child
        never unblocks it: an interrupt reaches only the caller, which kills
        and reaps the children. At start a child closes its copies of the
        caller's ends of its own pipes and of its elder siblings' pipes, so
        if the caller dies every child reads end of file and exits."""
        ctx = multiprocessing.get_context("fork")
        if self.next is None:
            get_threads, set_threads = _blas()
            self.threads = get_threads()
            set_threads(1)
            self.next = ctx.Value("q")
        while len(self.children) < w - 1:
            cmd_r, cmd_w = ctx.Pipe(duplex=False)
            reply_r, reply_w = ctx.Pipe(duplex=False)
            foreign = [cmd_w, reply_r, *(c for child in self.children for c in child[1:])]
            process = ctx.Process(target=self._serve, args=(cmd_r, reply_w, foreign))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                process.start()
                self.children.append((process, cmd_w, reply_r))
            except OSError:
                cmd_w.close()
                reply_r.close()
                raise
            finally:
                cmd_r.close()
                reply_w.close()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _spread(self, items: list) -> list:
        self.next.value = 0  # no child pulls until it has the blob
        blob = pickle.dumps((items, self.sync))
        for child in list(self.children):
            try:
                child[1].send_bytes(blob)
            except BrokenPipeError:
                raise self._reap(child) from None
        results = dict(self._pull(items, Exception))
        died = None
        for child in list(self.children):
            try:
                results.update(child[2].recv())
            except (EOFError, OSError):  # end of file, between messages or inside one
                died = died or self._reap(child)
        out = []
        for j in range(len(items)):
            if j not in results:
                raise died
            ok, value = results[j]
            if not ok:
                raise value
            out.append(value)
        if died:
            raise died
        return out

    def _pull(self, items: list, catch) -> list:
        """(j, (True, result)) or (j, (False, the exception)), catching
        catch, for each item this process pulls. Items are pulled in index
        order, so every item below a failed one is taken already: the
        failure ends the run."""
        done = []
        while (j := self._take()) < len(items):
            try:
                done.append((j, (True, self.work(items[j]))))
            except catch as exc:
                done.append((j, (False, exc)))
                with self.next.get_lock():
                    self.next.value = len(items)
        return done

    def _take(self) -> int:
        with self.next.get_lock():
            j = self.next.value
            self.next.value = j + 1
        return j

    def _serve(self, cmd, reply, foreign: list) -> None:
        """A child's loop: close the caller's pipe ends it inherited, then
        per run read the items and the sync arrays, pull items and send the
        results back; return when the caller closes the command pipe."""
        for conn in foreign:
            conn.close()
        while True:
            try:
                items, state = pickle.loads(cmd.recv_bytes())
            except EOFError:
                return
            for a, value in zip(self.sync, state):
                a[...] = value
            reply.send([(j, (ok, value if ok else _portable(value)))
                        for j, (ok, value) in self._pull(items, BaseException)])

    def _reap(self, child) -> RuntimeError:
        """Drop a child that died and return the error that reports it."""
        process, cmd, reply = child
        self.children.remove(child)
        cmd.close()
        reply.close()
        process.join()
        return RuntimeError(f"worker {process.pid} exited with status "
                            f"{process.exitcode} without sending its results")

    def close(self) -> None:
        """Kill and reap every child, close the pipes and restore the BLAS
        thread count; a no-op when nothing is open."""
        for process, cmd, reply in self.children:
            cmd.close()
            reply.close()
            process.kill()
            process.join()
        self.children.clear()
        self.next = None
        if self.threads is not None:
            _blas()[1](self.threads)
            self.threads = None


def _workers(n_items: int) -> int:
    """Usable CPUs, at most one per item; 1 where the process cannot fork
    or NumPy's BLAS offers no thread control."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    w = max(1, min(cpus, n_items))
    return w if w == 1 or _blas() is not None else 1


@functools.cache
def _blas():
    """(get, set) of the thread count of the OpenBLAS that NumPy links, or
    None. Looked up on first use, through NumPy's own extension module."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")

