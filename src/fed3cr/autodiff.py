"""Reverse-mode gradients over closed-form nodes.

Every op is a `fused` node whose backward is written in closed form: the
training step records its whole objective as one such node over the
trainable leaves (see `losses.total_loss_t`). `backward` walks the
recorded graph in reverse topological order and sums the contributions a
tensor receives, so a leaf that feeds several nodes gets the sum of all
of them.

Only parents that need a gradient are recorded as edges, so constants
cost nothing in `backward`. A node's first contribution becomes its
`.grad` as is and later ones are added into it in place, so a vjp must
return arrays that no other node holds: new ones, or `Workspace` buffers
its caller handed in for that one role. During `backward` a `.grad` is
written only by that accumulation and `.data` never. Once it returns, the
caller that built the graph may use a leaf's `.grad` as scratch (the
client step's SGD scales it in place).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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


class Tensor:
    """A numpy array, its gradient, and the node that computed it."""

    __slots__ = ("data", "grad", "requires_grad", "_edges", "_vjp")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        # (parent, position of its gradient in what _vjp returns)
        self._edges = [(parent, i) for i, parent in enumerate(_parents) if parent.requires_grad]
        self._vjp = _vjp
        self.requires_grad = requires_grad or bool(self._edges)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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
        for node in reversed(topo):
            if not node._edges or node.grad is None:
                continue
            grads = node._vjp(node.grad)
            for parent, i in node._edges:
                contribution = grads[i]
                if contribution is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.asarray(contribution, dtype=parent.data.dtype)
                else:
                    parent.grad += contribution


def parameter(x: np.ndarray) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(x, requires_grad=True)


def fused(value: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """One node for a multi-input op with a closed-form backward.

    `vjp(g)` returns one gradient per parent, or None for a parent it
    leaves unchanged; each is a new array or a workspace buffer that no
    other node holds (`backward` may add into it in place). It runs once
    per backward pass, however many of the parents need a gradient.
    """
    return Tensor(value, _parents=parents, _vjp=vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
