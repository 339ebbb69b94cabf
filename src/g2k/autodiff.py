"""Reverse-mode automatic differentiation over dense float64 matrices.

Graphs are built dynamically (define-by-run): every operation returns a new
DiffValue holding the forward result plus a closure that routes the upstream
gradient to its parents. The op set is intentionally small, just enough for
matrix products, softmax and the squared-error loss; the grid-LSTM gate math
is one fused node with its own backward (gridlstm.step).

Gradients are allocated lazily. A trainable leaf (leaf(), parameters) gets
its gradient array when it is made; constants and nodes that need no
gradient keep grad None; an interior node that requires grad gets a fresh
zero gradient at the start of each backward(). Forward-only work runs under
no_grad(): its nodes record no parents and keep no backward closure, so
each one is freed as soon as nothing reads it. Forward values are the same
either way.

Broadcasting is never implicit. The only shape-relaxing ops are bias_add and
row_mul, which take an explicit 1 x cols second operand.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={arr.ndim}")
    return arr


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

    data must be a 2-D float64 array and is kept as is; constant() and
    leaf() convert anything else. grad is None unless the node requires
    grad: an explicit requires_grad=True leaf gets a zero array of data's
    shape at once, an interior node one at each backward(). Nodes without
    parents are leaves (parameters or inputs); backward() accumulates into
    leaf grads and leaves them for the optimizer, so repeated backward calls
    without zero_grad sum. Under no_grad() parents and backward are dropped.
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
    """Leaf that never receives gradient (inputs, fixed masks)."""
    return DiffValue(_as_matrix(data))


def leaf(data) -> DiffValue:
    """Trainable leaf; requires grad also under no_grad()."""
    return DiffValue(_as_matrix(data), requires_grad=True)


@dataclass
class Parameter:
    """A named trainable array with its initialization recorded.

    The name is a dotted path unique within a model, e.g. "embed.pos.w1";
    init_spec is a human-readable descriptor kept so checkpoints can assert
    they round-trip against the same construction.
    """

    name: str
    value: DiffValue
    init_spec: str = "unspecified"

    def __post_init__(self):
        if not self.value.requires_grad:
            raise ContractError(f"parameter {self.name!r} must require grad")


class ParameterSet:
    """Ordered registry of Parameters with unique names."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, data, init_spec: str = "unspecified") -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Parameter(name, leaf(data), init_spec)
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
    if a.data.shape[1] != b.data.shape[0]:
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

    return DiffValue(a.data.T.copy(), (a,), backward=_bw)


def _require_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: shapes differ, {a.data.shape} vs {b.data.shape}")


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("add", a, b)

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return DiffValue(a.data + b.data, (a, b), backward=_bw)


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("sub", a, b)

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    return DiffValue(a.data - b.data, (a, b), backward=_bw)


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
    if b.data.shape != (1, a.data.shape[1]):
        raise ShapeMismatch(
            f"bias_add: bias must be (1, {a.data.shape[1]}), got {b.data.shape}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g.sum(axis=0, keepdims=True)

    return DiffValue(a.data + b.data, (a, b), backward=_bw)


def row_mul(a: DiffValue, r: DiffValue) -> DiffValue:
    """a * r with r a 1 x cols row vector multiplied into every row of a."""
    if r.data.shape != (1, a.data.shape[1]):
        raise ShapeMismatch(
            f"row_mul: row must be (1, {a.data.shape[1]}), got {r.data.shape}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad += g * r.data
        if r.requires_grad:
            r.grad += (g * a.data).sum(axis=0, keepdims=True)

    return DiffValue(a.data * r.data, (a, r), backward=_bw)


def stable_softmax(x: DiffValue) -> DiffValue:
    """Row-wise softmax with max subtraction. Rows sum to 1 within 1e-12."""
    if np.isnan(x.data).any():
        raise NumericError("stable_softmax: NaN in input")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def _bw(g):
        if x.requires_grad:
            # J^T g per row: y * (g - <g, y>)
            dot = (g * y).sum(axis=1, keepdims=True)
            x.grad += y * (g - dot)

    return DiffValue(y, (x,), backward=_bw)


def concat_cols(parts) -> DiffValue:
    parts = list(parts)
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.shape[0] != rows:
            raise ShapeMismatch(
                f"concat_cols: row counts differ, {rows} vs {p.data.shape[0]}"
            )
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.data.shape[1])

    def _bw(g):
        for p, j0, j1 in zip(parts, offsets, offsets[1:]):
            if p.requires_grad:
                p.grad += g[:, j0:j1]

    data = np.concatenate([p.data for p in parts], axis=1)
    return DiffValue(data, parts, backward=_bw)


def slice_cols(a: DiffValue, j0: int, j1: int) -> DiffValue:
    if not (0 <= j0 <= j1 <= a.data.shape[1]):
        raise ShapeMismatch(
            f"slice_cols: [{j0}:{j1}] out of range for width {a.data.shape[1]}"
        )

    def _bw(g):
        if a.requires_grad:
            a.grad[:, j0:j1] += g

    return DiffValue(a.data[:, j0:j1].copy(), (a,), backward=_bw)


def sum_all(a: DiffValue) -> DiffValue:
    def _bw(g):
        if a.requires_grad:
            a.grad += g[0, 0]

    return DiffValue(np.array([[a.data.sum()]]), (a,), backward=_bw)


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

    Interior nodes that require grad get a fresh zero gradient at the start
    of each call; leaf grads are not reset, so two backward calls without
    zero_grad double the leaf gradients. A loss that requires no grad (built
    under no_grad(), or from constants only) raises ContractError: it would
    leave every gradient at zero.
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
        if node.parents and node.requires_grad:
            node.grad = np.zeros(node.data.shape)
    loss.grad[...] = 1.0
    for node in reversed(order):
        if node._backward is not None and node.requires_grad:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and numeric grads."""

    eps: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.worst < threshold

    def failures(self, threshold: float = 1e-4) -> list[str]:
        return [n for n, e in self.per_param.items() if e >= threshold]

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

    build_loss must rebuild the graph from the current parameter values and
    return the scalar loss. It is called once, in the caller, for the
    analytic pass, then under no_grad() twice per perturbed element. The
    perturbed elements are spread over the process's CPUs (spread()), so
    build_loss must be a pure function of the parameters (its side effects
    in a forked worker are lost) and should raise no warnings (a worker
    shows its own), and the instance should stay desk-scale.
    The report is the same for any number of workers. Relative error per
    element is |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    """
    params = list(params)
    for p in params:
        p.value.grad[...] = 0.0
    backward(build_loss())
    analytic = {p.name: p.value.grad.copy() for p in params}

    sites = [(p.value.data, idx) for p in params for idx in np.ndindex(p.value.data.shape)]
    numeric = np.array(spread(lambda site: _difference(build_loss, site, eps), sites))

    report = GradCheckReport(eps=eps)
    start = 0
    for p in params:
        arr, ga = p.value.data, analytic[p.name]
        num = numeric[start:start + arr.size].reshape(arr.shape)
        start += arr.size
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(num)), 1e-8)
        report.per_param[p.name] = (
            float(np.max(np.abs(ga - num) / denom)) if arr.size else 0.0
        )
    return report


def _difference(build_loss, site, eps: float) -> float:
    """(L(x + eps) - L(x - eps)) / 2eps at one (array, index) site, under
    no_grad(); the element is restored on every path."""
    arr, idx = site
    orig = arr[idx]
    with no_grad():
        try:
            arr[idx] = orig + eps
            lo_plus = float(build_loss().data[0, 0])
            arr[idx] = orig - eps
            lo_minus = float(build_loss().data[0, 0])
        finally:
            arr[idx] = orig
    return (lo_plus - lo_minus) / (2.0 * eps)


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
    failure ends the run, so no worker starts an item past it. After an
    error or interrupt every child is killed and reaped and the next run
    forks afresh. On exit the children are reaped and the BLAS thread count
    restored.
    """
    pool = _Pool(work, list(sync))
    try:
        yield pool.run
    finally:
        pool.close()


class _Pool:
    """The state behind one workers() block."""

    def __init__(self, work, sync: list[np.ndarray]):
        self.work, self.sync = work, sync
        self.children: list[tuple[int, int, int]] = []  # (pid, command fd, reply fd)
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
        """Fork children until the pool has at least w workers, the caller
        included. The first fork pins BLAS to one thread."""
        if self.next is None:
            get_threads, set_threads = _blas()
            self.threads = get_threads()
            set_threads(1)
            self.next = multiprocessing.get_context("fork").Value("q")
        while len(self.children) < w - 1:
            _fork(self._serve, self.children,
                  [fd for _, c, r in self.children for fd in (c, r)])

    def _spread(self, items: list) -> list:
        self.next.value = 0  # no child pulls until it has the blob
        blob = pickle.dumps((items, self.sync))
        for child in list(self.children):
            try:
                _send(child[1], blob)
            except BrokenPipeError:
                raise self._reap(child) from None
        results = dict(self._pull(items, Exception))
        died = None
        for child in list(self.children):
            blob = _receive(child[2])
            if blob is None:
                died = died or self._reap(child)
            else:
                results.update(pickle.loads(blob))
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

    def _serve(self, cmd: int, reply: int) -> None:
        """A child's loop: per run, read the items and the sync arrays, pull
        items, send the results back; return when the caller closes the
        command pipe."""
        while (blob := _receive(cmd)) is not None:
            items, state = pickle.loads(blob)
            for a, value in zip(self.sync, state):
                a[...] = value
            done = [(j, (ok, value if ok else _portable(value)))
                    for j, (ok, value) in self._pull(items, BaseException)]
            _send(reply, pickle.dumps(done))

    def _reap(self, child) -> RuntimeError:
        """Drop a child that died and return the error that reports it."""
        pid, cmd, reply = child
        self.children.remove(child)
        os.close(cmd)
        os.close(reply)
        status = os.waitpid(pid, 0)[1]
        return RuntimeError(f"worker {pid} exited with status "
                            f"{os.waitstatus_to_exitcode(status)} without sending its results")

    def close(self) -> None:
        """Kill and reap every child, close the pipes and restore the BLAS
        thread count; a no-op when nothing is open."""
        for pid, cmd, reply in self.children:
            os.close(cmd)
            os.close(reply)
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
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


def _fork(serve, children: list, inherited: list[int]) -> None:
    """Fork a child that runs serve(command fd, reply fd) and append (pid,
    write end of its command pipe, read end of its reply pipe) to children.
    The child first closes inherited, the caller's descriptors it must not
    hold. SIGINT is blocked from just before the fork until the pid is
    recorded, so an interrupt cannot leave the child unreaped; the child
    restores the caller's mask. The child leaves through os._exit, so it
    runs no atexit hook, no test teardown and flushes no stdio buffer
    inherited from the caller."""
    cmd_r, cmd_w = os.pipe()
    reply_r, reply_w = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            _child(serve, cmd_r, reply_w, [cmd_w, reply_r, *inherited], mask)
        children.append((pid, cmd_w, reply_r))
    except OSError:
        os.close(cmd_w)
        os.close(reply_r)
        raise
    finally:
        os.close(cmd_r)
        os.close(reply_w)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _child(serve, cmd: int, reply: int, foreign: list[int], mask) -> None:
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in foreign:
            os.close(fd)
        serve(cmd, reply)
        status = 0
    finally:
        os._exit(status)


def _send(fd: int, blob: bytes) -> None:
    """Write blob with its length in front."""
    view = memoryview(len(blob).to_bytes(8, "little") + blob)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> bytes | None:
    """The next blob _send wrote to fd, or None at end of file."""
    head = _read(fd, 8)
    if len(head) < 8:
        return None
    n = int.from_bytes(head, "little")
    blob = _read(fd, n)
    return blob if len(blob) == n else None


def _read(fd: int, n: int) -> bytes:
    """n bytes from fd, fewer only at end of file."""
    parts, got = [], 0
    while got < n and (part := os.read(fd, n - got)):
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")

