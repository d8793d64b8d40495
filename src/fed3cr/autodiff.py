"""The client step's objective as a value with a closed-form backward, and
the array helpers the step shares.

A `Tensor` is the training step's whole objective (see
`losses.total_loss_t`): `backward()` calls its vjp once and returns one
gradient per trainable array, each in that array's dtype.

The one ownership rule: no two of those gradients may share memory, nor
share it with any trainable array, because the client step's SGD scales
each gradient in place before subtracting it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def distinct_rows(idx: np.ndarray, m: int) -> bool:
    """Whether the indices `idx`, already checked against an m-row table,
    name distinct rows; -1 and m-1 name the same row."""
    hit = np.zeros(m, dtype=bool)
    hit[idx] = True
    return np.count_nonzero(hit) == idx.size


def add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray, distinct: bool, scratch: np.ndarray | None = None) -> None:
    """Add row i of `rows` into row idx[i] of `out`, in place; a 1-D `rows`
    is one row added into every indexed row.

    `distinct` is `distinct_rows(idx, len(out))`, which a caller that scatters
    the same indices more than once checks once. Distinct indices (batch
    items, positives) gather their rows into `scratch` (a new array when
    None), add and scatter back; repeated ones, including two indices that
    name the same row such as -1 and M-1, fall back to `np.add.at`. The
    indices must already have been checked against `out` (they gathered its
    rows forward).
    """
    if not distinct:
        np.add.at(out, idx, rows)
        return
    if scratch is None:
        scratch = np.empty((idx.size, out.shape[1]), out.dtype)
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
        array[...] = source
        return array


class Tensor:
    """The client step's objective: its value and the closed-form vjp that
    returns its gradients."""

    __slots__ = ("data", "_vjp")

    def __init__(self, data: np.ndarray, vjp: Callable[[np.ndarray], list]):
        self.data = np.asarray(data)
        self._vjp = vjp

    def backward(self) -> list:
        """d(self)/d(array) for each trainable array, from one call of the
        vjp with a seed of one: a 0-d array in this scalar value's dtype."""
        return self._vjp(np.array(1, self.data.dtype))


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    z = np.exp(-np.abs(x))
    one_z = 1.0 + z
    out = np.divide(z, one_z)
    return np.divide(1.0, one_z, out=out, where=x >= 0)
