"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything here is sized for desk-scale models: values are computed
eagerly, each operation records its parents plus a closure that maps the
output gradient back onto them, and ``backward`` walks the recorded
graph once in reverse topological order. Broadcasting is deliberately
restricted to scalar-with-tensor and equal shapes so that shape bugs
fail loudly instead of silently fanning out.

The primitives below serve small graphs and the tests' reference
forward. A whole model layer is one ``custom_op`` instead: its caller
computes the value with numpy kernels (``softmax_array`` and friends are
shared with the primitives) and writes the backward by hand.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_node_ids = itertools.count()


class Tensor:
    """One node of the computation graph.

    ``data`` is always a C-contiguous float64 array. Leaf tensors created
    with ``requires_grad=True`` are the trainable parameters; operation
    results inherit ``requires_grad`` from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "nid", "op", "_parents", "_grad_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        _parents: tuple["Tensor", ...] = (),
        _grad_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
        _op: str = "leaf",
    ):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = check_finite(arr, _op)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.nid = next(_node_ids)
        self.op = _op
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> dict[int, np.ndarray]:
        return backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None) -> "Tensor":
        return reduce_sum(self, axis)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """Return ``arr``, or raise a DomainError naming ``op`` if it holds a NaN or Inf.

    An overflowing sum of finite values warns as numpy does, unless the
    caller ignores overflow, as the model layers do.
    """
    # a single reduction: any NaN/Inf makes the sum non-finite, and so may
    # large finite values, which the elementwise test then rules out
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise DomainError(f"non-finite values in result of '{op}'")
    return arr


def custom_op(
    op: str,
    value: np.ndarray,
    parents: tuple[Tensor, ...],
    grad_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
) -> Tensor:
    """One graph node whose value and backward the caller computes.

    ``grad_fn(g)`` maps the gradient of ``value`` to one gradient per
    parent, in order; it may return None for a parent whose
    ``requires_grad`` is false.
    """
    return Tensor(value, _parents=parents, _grad_fn=grad_fn, _op=op)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise DimensionError(
        f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar-broadcastable"
    )


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo scalar broadcasting: sum the gradient back to the operand shape."""
    if grad.shape == shape:
        return grad
    return np.full(shape, grad.sum())


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary_shapes(a, b, "add")

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        return Tensor(a.data + b.data, _parents=(a, b), _grad_fn=grad_fn, _op="add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary_shapes(a, b, "mul")

    def grad_fn(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        return Tensor(a.data * b.data, _parents=(a, b), _grad_fn=grad_fn, _op="mul")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    with np.errstate(over="ignore", invalid="ignore"):
        return Tensor(a.data @ b.data, _parents=(a, b), _grad_fn=grad_fn, _op="matmul")


def transpose(x) -> Tensor:
    x = _wrap(x)
    if x.data.ndim != 2:
        raise DimensionError(f"transpose needs a 2-d tensor, got {x.shape}")

    def grad_fn(g):
        return (g.T.copy(),)

    return Tensor(x.data.T.copy(), _parents=(x,), _grad_fn=grad_fn, _op="transpose")


def tanh(x) -> Tensor:
    x = _wrap(x)
    y = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - y * y),)

    return Tensor(y, _parents=(x,), _grad_fn=grad_fn, _op="tanh")


def relu(x) -> Tensor:
    x = _wrap(x)

    def grad_fn(g):
        return (g * (x.data > 0.0),)

    return Tensor(np.maximum(x.data, 0.0), _parents=(x,), _grad_fn=grad_fn, _op="relu")


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    # split on sign so neither branch exponentiates a large positive value
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    y[~pos] = ez / (1.0 + ez)
    return y


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    y = sigmoid_array(x.data)

    def grad_fn(g):
        return (g * y * (1.0 - y),)

    return Tensor(y, _parents=(x,), _grad_fn=grad_fn, _op="sigmoid")


def _check_axis(x: Tensor, axis: int, op: str) -> int:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"{op}: axis {axis} invalid for shape {x.shape}")
    axis = axis % x.data.ndim
    if x.shape[axis] == 0:
        raise DimensionError(f"{op}: axis {axis} of shape {x.shape} is empty")
    return axis


def softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(x, axis: int = 0) -> Tensor:
    x = _wrap(x)
    axis = _check_axis(x, axis, "softmax")
    y = softmax_array(x.data, axis)

    def grad_fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - inner) * y,)

    return Tensor(y, _parents=(x,), _grad_fn=grad_fn, _op="softmax")


def log_softmax(x, axis: int = 0) -> Tensor:
    x = _wrap(x)
    axis = _check_axis(x, axis, "log_softmax")
    y = log_softmax_array(x.data, axis)

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return Tensor(y, _parents=(x,), _grad_fn=grad_fn, _op="log_softmax")


def _expand(g: np.ndarray, shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = _wrap(x)
    if axis is not None:
        axis = _check_axis(x, axis, "sum")

    def grad_fn(g):
        return (_expand(g, x.shape, axis).copy(),)

    return Tensor(x.data.sum(axis=axis), _parents=(x,), _grad_fn=grad_fn, _op="sum")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(t) for t in tensors]
    if not parts:
        raise ContractError("concat: need at least one tensor")
    ndim = parts[0].data.ndim
    if any(p.data.ndim != ndim for p in parts):
        raise DimensionError(f"concat: mixed ranks {[p.shape for p in parts]}")
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat: axis {axis} invalid for rank {ndim}")
    axis = axis % ndim
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(piece.copy() for piece in np.split(g, bounds, axis=axis))

    return Tensor(
        np.concatenate([p.data for p in parts], axis=axis),
        _parents=tuple(parts),
        _grad_fn=grad_fn,
        _op="concat",
    )


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``.grad`` of every node that requires a gradient and
    returns ``{node id: gradient}`` for the parameter (leaf) nodes.
    Gradients add across calls until the caller zeroes them.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.nid in seen:
            continue
        seen.add(node.nid)
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and parent.nid not in seen:
                stack.append((parent, False))

    flowing: dict[int, np.ndarray] = {loss.nid: np.ones_like(loss.data)}
    params: dict[int, np.ndarray] = {}
    for node in reversed(order):
        g = flowing.pop(node.nid, None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
            if not node._parents:
                params[node.nid] = node.grad
        if node._grad_fn is not None:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad:
                    continue
                if parent.nid in flowing:
                    flowing[parent.nid] = flowing[parent.nid] + pg
                elif pg is g or np.may_share_memory(pg, g):
                    # g is this node's own .grad, and may reach other parents;
                    # C order, as a strided gradient would add in another order
                    flowing[parent.nid] = np.array(pg, dtype=np.float64, order="C")
                else:
                    flowing[parent.nid] = pg
    return params


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
