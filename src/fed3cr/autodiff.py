"""Gradients of the client step's objective through one closed-form node.

A `Tensor` is a leaf (a trainable array, see `parameter`) or the one node
`fused` records over leaves: the training step's whole objective (see
`losses.total_loss_t`), whose vjp is written in closed form. `backward`
calls that vjp once and sets each leaf's `.grad` to the array returned
for it. A node cannot be a parent, since nothing would carry its
gradient on to the leaves under it.

The one ownership rule: no two leaves' gradients may share memory, nor
share it with any leaf's data, because the client step's SGD scales each
`.grad` in place before subtracting it.
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
    """A leaf array and its gradient, or the objective node over leaves."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(
        self,
        data: np.ndarray,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._vjp = _vjp

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, leaf={self._vjp is None})"

    def backward(self) -> None:
        """Set each leaf's `.grad` to d(self)/d(leaf), in the leaf's dtype,
        from one call of this node's vjp; a leaf it gives None gets None."""
        for leaf, grad in zip(self._parents, self._vjp(np.ones_like(self.data))):
            leaf.grad = None if grad is None else np.asarray(grad, dtype=leaf.data.dtype)


def parameter(x: np.ndarray) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(x)


def fused(value: np.ndarray, leaves: tuple[Tensor, ...], vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """The objective node: `value` over `leaves`, with a closed-form backward.

    `vjp(g)` runs once per `backward` and returns one gradient per leaf, or
    None for a leaf it gives none; no two of them may share memory (see the
    module docstring). A leaf that is itself a node raises `ValueError`.
    """
    if any(leaf._vjp is not None for leaf in leaves):
        raise ValueError("fused takes leaves only; a node parent's own leaves would get no gradient")
    return Tensor(value, leaves, vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
