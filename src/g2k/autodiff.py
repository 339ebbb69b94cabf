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

from contextlib import contextmanager
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
    return the scalar loss; it is called once for the analytic pass and,
    under no_grad(), twice per perturbed element, so keep the instance
    desk-scale. Relative error per element is
    |g_a - g_n| / max(|g_a|, |g_n|, 1e-8).
    """
    params = list(params)
    for p in params:
        p.value.grad[...] = 0.0
    backward(build_loss())
    analytic = {p.name: p.value.grad.copy() for p in params}

    report = GradCheckReport(eps=eps)
    with no_grad():
        for p in params:
            arr = p.value.data
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lo_plus = float(build_loss().data[0, 0])
                arr[idx] = orig - eps
                lo_minus = float(build_loss().data[0, 0])
                arr[idx] = orig
                numeric[idx] = (lo_plus - lo_minus) / (2.0 * eps)
                it.iternext()
            ga = analytic[p.name]
            denom = np.maximum(np.maximum(np.abs(ga), np.abs(numeric)), 1e-8)
            report.per_param[p.name] = (
                float(np.max(np.abs(ga - numeric) / denom)) if arr.size else 0.0
            )
    return report
