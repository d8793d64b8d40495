"""Minimal reverse-mode tape over numpy arrays.

Covers dense matrix/vector products, row gathering from embedding tables
and reductions, plus `fused` for ops whose backward is written in closed
form (the whole training objective is one `fused` node, and so is each
pass of a transfer net). Gradients are accumulated by walking the
recorded graph in reverse topological order, so parameters that feed
several paths (an embedding table that enters both a prototype mean and
a scoring head, say) receive the sum of all path contributions.

Only parents that need a gradient are recorded as edges, so constants
cost nothing in `backward`. Gradient ownership: a node's first dense
contribution becomes its `.grad` as is. In general that array may be
shared with another node (a `transpose` edge hands back a view of its
output's gradient) or be a read-only `broadcast_to` view, so `backward`
writes into a `.grad` only once it owns it: the first contribution came
fresh from a `matmul` or `fused` node, whose edge functions return
arrays no other node holds (new ones, or `Workspace` buffers their
caller handed in for that one role), or `backward` allocated the buffer
itself, in the node's own dtype, on a later contribution. A
`gather_rows` edge hands back only its rows; they are added in place
into an owned gradient, and a node with no owned gradient yet gets a
zero or copied buffer first. So during `backward` a `.grad` is to be
read, never written, and the arrays it was built from are never changed.
Once it returns, the caller that built the graph may use a leaf's
`.grad` as scratch (the client step's SGD scales it in place).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ShapeError

ArrayLike = Union["Tensor", np.ndarray, float, int]

# A parent edge: (parent tensor, function mapping output grad -> parent grad)
GradFn = Callable[[np.ndarray], Union[np.ndarray, "RowGrad"]]


class RowGrad(NamedTuple):
    """A gradient that is zero outside the rows `idx` of a 2-D parent."""

    idx: np.ndarray
    rows: np.ndarray


def add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Add row i of `rows` into row idx[i] of `out`, in place.

    Unique indices (batch items, positives) gather their rows into
    `scratch` (a new array when None), add and scatter back; repeated ones,
    including two indices that name the same row such as -1 and M-1, fall
    back to `np.add.at`. The indices must already have been checked against
    `out` (they gathered its rows forward).
    """
    hit = np.zeros(out.shape[0], dtype=bool)
    hit[idx] = True
    if np.count_nonzero(hit) != idx.size:
        np.add.at(out, idx, rows)
        return
    if scratch is None:
        scratch = np.empty(rows.shape, out.dtype)
    # "wrap" maps the checked indices as indexing does; "raise" would copy.
    out.take(idx, axis=0, out=scratch, mode="wrap")
    scratch += rows
    out[idx] = scratch


class Workspace:
    """Arrays reused from one call to the next, one per key.

    `buffer(key, shape, dtype)` returns the array last handed out for `key`
    when its shape and dtype still match, else a new uninitialized one. A key
    names one role, so whoever takes a buffer may hold its contents until
    the same key is asked for again; the client step takes every large
    array this way, so after its first call it allocates none.
    """

    __slots__ = ("_arrays",)

    def __init__(self):
        self._arrays: dict = {}

    def buffer(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[key] = np.empty(shape, dtype)
        return array

    def copy(self, key, source: np.ndarray) -> np.ndarray:
        """The buffer for `key`, loaded with a copy of `source`."""
        array = self.buffer(key, source.shape, source.dtype)
        np.copyto(array, source)
        return array


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_edges", "_fresh")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _edges: tuple[tuple["Tensor", GradFn], ...] = (),
        _fresh: bool = False,
    ):
        self.data = data.data if isinstance(data, Tensor) else np.asarray(data)
        self.grad: np.ndarray | None = None
        self._edges = [edge for edge in _edges if edge[0].requires_grad]
        self.requires_grad = requires_grad or bool(self._edges)
        # True when every edge function returns a new array no one else holds
        self._fresh = _fresh

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------------

    def backward(self) -> None:
        """Fill `.grad` on every reachable tensor with d(self)/d(tensor)."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._edges:
                stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        owned: set[int] = set()  # ids of nodes whose .grad backward may write into
        for node in reversed(topo):
            out_grad = node.grad
            if out_grad is None:
                continue
            for parent, grad_fn in node._edges:
                contribution = grad_fn(out_grad)
                key = id(parent)
                if isinstance(contribution, RowGrad):
                    if key not in owned:
                        parent.grad = (
                            np.zeros_like(parent.data)
                            if parent.grad is None
                            else np.array(parent.grad, dtype=parent.data.dtype)
                        )
                        owned.add(key)
                    add_rows(parent.grad, contribution.idx, contribution.rows)
                elif parent.grad is None:
                    parent.grad = np.asarray(contribution, dtype=parent.data.dtype)
                    if node._fresh or parent.grad is not contribution:
                        owned.add(key)
                elif key in owned:
                    parent.grad += contribution
                else:
                    parent.grad = np.add(parent.grad, contribution, out=np.empty_like(parent.data))
                    owned.add(key)


def as_tensor(x: ArrayLike) -> Tensor:
    """Wrap an array or scalar as a constant (non-trainable) tensor."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _pair(a: ArrayLike, b: ArrayLike) -> tuple[Tensor, Tensor]:
    """Wrap both operands; python scalars adopt the other operand's dtype so
    float32 graphs are not silently promoted."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
    if isinstance(b, (int, float)) and not isinstance(a, (int, float)):
        a = as_tensor(a)
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(a, (int, float)) and not isinstance(b, (int, float)):
        b = as_tensor(b)
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def parameter(x: np.ndarray) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(np.asarray(x), requires_grad=True)


def fused(value: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """One tape node for a multi-input op with a closed-form backward.

    `vjp(g)` returns one gradient per parent, each a new array or a
    workspace buffer that no other node holds (`backward` may add into it
    in place); it runs once per backward pass, however many of the parents
    need a gradient.
    """
    memo: dict = {}

    def make_grad(i: int) -> GradFn:
        def grad(g: np.ndarray) -> np.ndarray:
            if memo.get("g") is not g:
                memo["g"], memo["grads"] = g, vjp(g)
            return memo["grads"][i]

        return grad

    return Tensor(value, _edges=tuple((p, make_grad(i)) for i, p in enumerate(parents)), _fresh=True)


# -- arithmetic ----------------------------------------------------------------


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _pair(a, b)
    return Tensor(
        a.data * b.data,
        _edges=(
            (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
        ),
    )


def matmul(a: ArrayLike, b: ArrayLike, out: np.ndarray | None = None, a_grad: np.ndarray | None = None) -> Tensor:
    """Matrix product for 2-D @ 2-D, 2-D @ 1-D and 1-D @ 1-D operands. The
    product is written into `out` and, for a 2-D `a`, a's gradient into
    `a_grad` when given (new arrays otherwise)."""
    a, b = as_tensor(a), as_tensor(b)
    inner_a = a.data.shape[-1]
    inner_b = b.data.shape[0]
    if inner_a != inner_b:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")

    def grad_a(g: np.ndarray) -> np.ndarray:
        if a.data.ndim == 1 and b.data.ndim == 1:
            return g * b.data
        if b.data.ndim == 1:
            return np.dot(g[:, None], b.data[None], out=a_grad)  # outer product; BLAS beats the broadcast
        if a.data.ndim == 1:
            return g @ b.data.T
        return np.matmul(g, b.data.T, out=a_grad)

    def grad_b(g: np.ndarray) -> np.ndarray:
        if a.data.ndim == 1 and b.data.ndim == 1:
            return g * a.data
        if b.data.ndim == 1:
            return a.data.T @ g
        if a.data.ndim == 1:
            return np.dot(a.data[:, None], g[None])
        return a.data.T @ g

    return Tensor(np.matmul(a.data, b.data, out=out), _edges=((a, grad_a), (b, grad_b)), _fresh=True)


def transpose(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.T, _edges=((a, lambda g: g.T),))


def gather_rows(a: ArrayLike, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; gradients add back into those rows."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    return Tensor(a.data[idx], _edges=((a, lambda g: RowGrad(idx, g)),))


# -- reductions ------------------------------------------------------------------


def tsum(a: ArrayLike, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        return Tensor(a.data.sum(), _edges=((a, lambda g: np.broadcast_to(g, a.data.shape)),))
    # The summed axis back at length 1, copied along it by one C-level
    # repeat: a few times cheaper than broadcast_to(expand_dims(...)).
    kept = list(a.data.shape)
    kept[axis] = 1
    count = a.data.shape[axis]
    return Tensor(a.data.sum(axis=axis), _edges=((a, lambda g: g.reshape(kept).repeat(count, axis)),))


def tmean(a: ArrayLike, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / count)


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
