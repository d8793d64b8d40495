"""Client-side parameters and the consensus-enhancement forward pass.

A client owns two private blocks: its user embedding and a personal item
table. The shared (global) item table and the weights of a small fully
connected net, which turns the client's two preference prototypes into a
d x d transfer matrix, belong to the server. Both are passed to
`forward_pass` next to the client, which runs the pass in plain numpy:
training keeps its arrays and a closed-form pullback of the whole pass,
and scoring keeps each item's score under each view. Scoring fuses the
transformed global table with the personal one additively. A federated-MF client has no personal table: the shared table
it trains takes the personal role, and the table as downloaded takes the
global one.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import seeding
from .errors import DataError

# The row-enhancement baselines: a d -> d net maps each item row.
ROW_MAP_KINDS = ("consensus-transfer", "unified-transfer")
ENHANCEMENT_KINDS = ("ace", *ROW_MAP_KINDS, "none")
FINAL_INIT_SCALE = 1e-3  # half-width of the uniform init of a transfer net's output weights
# The fewest personal-table values worth a fill worker of their own. On a
# 2-core x86-64 host, a fresh process with BLAS on one thread took 0.45-0.7 ms
# to start its first thread, the time of 35,000-40,000 float32 normals at
# 11.5-18 ns each, so a worker pays for itself well before 2**16 values.
VALUES_PER_WORKER = 1 << 16


@dataclass
class TransferNet:
    """Fully connected net: ReLU hidden layers, linear output.

    `weights[l]` has shape (out_l, in_l); `biases[l]` has shape (out_l,).
    The default configuration maps the concatenated prototypes (2d) to the
    d*d entries of the transfer matrix; the alternative row-enhancement
    baselines use a d -> d configuration instead.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(w.shape for w in self.weights)


def init_transfer_net(
    rng: np.random.Generator,
    in_dim: int,
    hidden: list[int],
    out_dim: int,
    dtype=np.float32,
) -> TransferNet:
    """Hidden layers get fan-in uniform init; the output layer starts at
    zero bias and weights within +-FINAL_INIT_SCALE, so the generated
    transfer matrix begins at ~0."""
    widths = [in_dim] + list(hidden) + [out_dim]
    weights, biases = [], []
    for l in range(len(widths) - 1):
        fan_in, fan_out = widths[l], widths[l + 1]
        last = l == len(widths) - 2
        if last:
            w = rng.uniform(-FINAL_INIT_SCALE, FINAL_INIT_SCALE, size=(fan_out, fan_in))
            b = np.zeros(fan_out)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = rng.uniform(-bound, bound, size=fan_out)
        weights.append(w.astype(dtype))
        biases.append(b.astype(dtype))
    return TransferNet(weights, biases)


@dataclass
class NetPass:
    """One run of a transfer net over a vector or over the rows of a table:
    each layer's input (a hidden one after its ReLU), each hidden layer's
    ReLU mask, and the output. That is all its closed-form backward needs."""

    inputs: list[np.ndarray]
    masks: list[np.ndarray]
    out: np.ndarray


def _relu(out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """ReLU in place, bit for bit `out[~mask] = 0.0` with `mask` set to
    out > 0: NaN and -0.0 become 0.0 as well, since fmax drops NaN and
    adding 0 turns -0.0 into 0.0. Returns the mask."""
    np.greater(out, 0, out=mask)
    np.fmax(out, 0, out=out)
    out += 0
    return mask


def net_pass(net: TransferNet, x: np.ndarray, workspace: ad.Workspace, role: str) -> NetPass:
    """Run the net on `x`, one input vector or a matrix whose rows are mapped
    independently. Every activation is a `workspace` buffer under `role`,
    valid until the next pass in that role."""
    inputs, masks = [], []
    h = x
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        dtype = h.dtype if h.dtype == w.dtype == b.dtype else np.result_type(h, w, b)
        out = workspace.buffer((role, "h", l), h.shape[:-1] + w.shape[:1], dtype)
        if h.ndim == 1:
            np.matmul(w, h, out=out)
        else:
            np.matmul(h, w.T, out=out)
        out += b
        if l < len(net.weights) - 1:
            masks.append(_relu(out, workspace.buffer((role, "mask", l), out.shape, bool)))
        h = out
    return NetPass(inputs, masks, h)


def net_backward(net: TransferNet, fwd: NetPass, g: np.ndarray, workspace: ad.Workspace, role: str) -> list[np.ndarray]:
    """Closed-form backward of `net_pass`: from g = d(loss)/d(fwd.out), the
    gradients w.r.t. the pass's input and then w0, b0, w1, b1, ...
    Table-sized gradients and the 1-D case's weight gradients (the outer
    products) are `workspace` buffers under `role`; no two returned arrays
    share memory, and no other caller holds one."""
    blocks: list[np.ndarray] = []
    for l in reversed(range(len(net.weights))):
        w, h = net.weights[l], fwd.inputs[l]
        if l < len(net.weights) - 1:
            g = np.multiply(g, fwd.masks[l], out=workspace.buffer((role, "dh", l), g.shape, g.dtype))
        if g.ndim == 1:
            dw = np.dot(g[:, None], h[None], out=workspace.buffer((role, "dw", l), w.shape, w.dtype))
            blocks[:0] = [dw, g.copy()]
            g = w.T @ g
        else:
            blocks[:0] = [(h.T @ g).T, np.add.reduce(g, axis=0)]
            g = np.matmul(g, w, out=workspace.buffer((role, "dx", l), h.shape, g.dtype))
    return [g, *blocks]


@functools.cache
def _block_names(layers: int) -> tuple[tuple[str, str], ...]:
    """The `params` names of a net's layers: ("w0", "b0"), ("w1", "b1"), ..."""
    return tuple((f"w{l}", f"b{l}") for l in range(layers))


def _prototype(table: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Mean of the positives' rows: their sum times 1/|positives| in the table's dtype."""
    return np.add.reduce(table[positives], axis=0) * np.asarray(1.0 / positives.size, dtype=table.dtype)


@dataclass
class ClientState:
    """What a client owns: its user embedding and its personal item table
    (None for a federated-MF client, which trains the shared table only)."""

    client_id: int
    user_embedding: np.ndarray
    personal_table: np.ndarray | None


@dataclass
class ForwardTrace:
    """What one training forward pass computed, and how to pull gradients back.

    The arrays are the prototypes `p_G` and `p_P`, ACE's transfer matrix
    `W` (None for the other kinds), the enhanced global table `C_E` and
    prototype `p_E`, and `views`, the M x d tables whose sum is the scoring
    table V_F: the enhanced global table and the personal view, or a
    federated-MF client's trained table alone. Training scores only the
    batch rows of each view and never builds V_F. `params` holds the
    trainable arrays by name ("u", "C", "V", "w0", "b0", ...).

    `pullback(items, d_rows, d_u=, d_ce=, d_v=, dp_p=, dp_e=)` maps the
    objective's gradients w.r.t. u, C_E, the personal table V, p_P and p_E
    (each None when the objective gives none), and `d_rows`, the gradient
    w.r.t. the batch rows `items` of the fused table, to one gradient per
    trainable array in `params` order. Each is in its array's dtype, and
    none shares memory with another or with any trainable array, since the
    client step's SGD scales each in place.
    """

    p_G: np.ndarray
    p_P: np.ndarray
    W: np.ndarray | None
    C_E: np.ndarray
    p_E: np.ndarray
    views: tuple[np.ndarray, ...]
    params: dict = field(repr=False)
    pullback: Callable[..., list] = field(repr=False)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def draw_personal_tables(
    seed: int, d: int, M: int, client_ids: Sequence[int], dtype=np.float32
) -> list[np.ndarray]:
    """The M x d personal tables of `client_ids`, in that order. Each is
    Normal(0, 0.01) in `dtype` from the stream (seed, CLIENT_INIT,
    client_id, 1), so it depends on nothing drawn before it, its first rows
    do not depend on M, and its bits do not depend on the thread that fills
    it.

    The calling thread allocates every table and builds every generator.
    Worker w, the caller being worker 0, then fills tables w, w + workers,
    and so on. There is at most
    one worker per usable CPU and per VALUES_PER_WORKER values, the caller
    included, so a small draw starts no thread. An exception a fill raises
    is raised here, once every fill has stopped."""
    n = len(client_ids)
    workers = max(1, min(_usable_cpus(), n, n * M * d // VALUES_PER_WORKER))
    tables = [np.empty((M, d), dtype=dtype) for _ in range(n)]
    # Built before any fill starts, so a fill thread holds the GIL only
    # between fills; building them on the fill threads made the draw about
    # 10% slower at 2 workers. Each holds about 1 KB until the draw returns.
    gens = [seeding.rng(seed, seeding.CLIENT_INIT, c, 1) for c in client_ids]
    failures = []

    def work(w):
        try:
            for gen, v in zip(gens[w::workers], tables[w::workers]):
                gen.standard_normal(out=v, dtype=dtype)
                v *= 0.01
        except BaseException as exc:  # raised on the calling thread once every fill has stopped
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return tables


def init_client(
    seed: int, d: int, M: int, client_id: int = 0, dtype=np.float32, personal_table: bool = True
) -> ClientState:
    """Seeded client construction; identical (seed, client_id) gives identical
    state. Both blocks are Normal(0, 0.01), each from a stream of its own: u
    from (seed, CLIENT_INIT, client_id) and V from `draw_personal_tables`.
    With `personal_table=False` (a federated-MF client, or a run that draws
    every table at once) no V is drawn."""
    if d < 1 or M < 1:
        raise ValueError("d and M must be positive")
    u = seeding.rng(seed, seeding.CLIENT_INIT, client_id).normal(0.0, 0.01, size=d).astype(dtype)
    v = draw_personal_tables(seed, d, M, [client_id], dtype)[0] if personal_table else None
    return ClientState(client_id, u, v)


def init_client_net(
    rng: np.random.Generator,
    d: int,
    enhancement: str = "ace",
    dtype=np.float32,
) -> TransferNet | None:
    """The server's transfer net for an enhancement kind (None for "none"):
    ACE maps 2d -> 4d -> d*d, and a row map d -> 4d -> d."""
    if enhancement == "none":
        return None
    if enhancement == "ace":
        return init_transfer_net(rng, 2 * d, [4 * d], d * d, dtype=dtype)
    return init_row_net(rng, d, 4 * d, dtype=dtype)


def init_row_net(rng: np.random.Generator, d: int, hidden: int, dtype=np.float32) -> TransferNet:
    """Row-map net (d -> hidden -> d) initialized near the identity function.

    The first 2*d hidden units encode relu(x) - relu(-x) = x; the output
    layer reassembles it. Starting at the identity keeps the fused table at
    its plain additive value until the net learns something better (a
    zero-start would zero out every mapped row and erase the signal).
    """
    noise = 1e-3
    w0 = rng.uniform(-noise, noise, size=(hidden, d))
    w0[:d] += np.eye(d)
    w0[d : 2 * d] -= np.eye(d)
    b0 = np.zeros(hidden)
    w1 = rng.uniform(-noise, noise, size=(d, hidden))
    w1[:, :d] += np.eye(d)
    w1[:, d : 2 * d] -= np.eye(d)
    b1 = np.zeros(d)
    return TransferNet([w0.astype(dtype), w1.astype(dtype)], [b0.astype(dtype), b1.astype(dtype)])


# -- forward passes ----------------------------------------------------------------


def _checked_positives(client: ClientState, positives: np.ndarray, enhancement: str) -> np.ndarray:
    if enhancement not in ENHANCEMENT_KINDS:
        raise ValueError(f"unknown enhancement kind {enhancement!r}")
    positives = np.asarray(positives)
    if positives.size == 0:
        raise DataError(f"client {client.client_id} has no positives")
    return positives


@dataclass
class ViewScores:
    """One client's score of every item under each view: `global_view` (the
    enhanced consensus; None for a federated-MF client without the
    enhancement) and `personal` (the client's own table as it stands), and
    `fused_personal`, the personal term of the fused score global_view +
    fused_personal that ranks the items: `personal` itself except under
    unified-transfer, which maps V before fusing. Both are None when the
    caller kept them from an earlier pass. `p_P` is ACE's personal
    prototype (None for the other kinds)."""

    global_view: np.ndarray | None
    personal: np.ndarray | None
    fused_personal: np.ndarray | None
    p_P: np.ndarray | None


def forward_pass(
    client: ClientState,
    table: np.ndarray,
    net: TransferNet | None,
    positives: np.ndarray,
    *,
    enhancement: str = "ace",
    consensus: np.ndarray | None = None,
    workspace: ad.Workspace | None = None,
    tape: bool = True,
    global_pass: NetPass | None = None,
    personal: bool = True,
    p_p: np.ndarray | None = None,
) -> ForwardTrace | ViewScores:
    """Run the enhancement forward from the client's private blocks, the
    shared table `table` and the net `net` (ignored when `enhancement` is
    "none"). Training calls it and gets a `ForwardTrace`; evaluation calls
    it with `tape=False` and gets the client's `ViewScores`, from the same
    W or row-map passes but without building C_E (and, but for ACE's W,
    without the prototypes).

    A row map's pass over the global table depends on no private block:
    `global_pass`, when given, is that `net_pass` of `net` over `table`
    already run (evaluation maps the server's table once per round).
    `personal=False` tells a scoring pass that the caller kept the
    client's personal view from an earlier pass over the same private
    blocks: it then reads neither V nor its positives' rows, and ACE takes
    p_P from `p_p`, the one that pass returned.

    The trace's `params` dict holds the trainable arrays themselves ("u",
    "C" for `table`, "V" and per-layer "w{l}"/"b{l}"); the client step's
    SGD updates them in place with the gradients the pullback returns.

    A client without a personal table trains "u", "C" and the net only. Its
    trained table "C" takes the personal role (V_F = C with no enhancement),
    and `consensus`, the frozen download (default: `table`), takes the
    global role: V_F = C + consensus W^T. The sum V_F itself is not
    built; the trace keeps its terms as `views`.

    The trace's `pullback` is the closed-form backward of the whole pass:
    the batch rows into each view's gradient, ACE's from C_E and p_E through
    W and the net to the prototypes, a row map's from its mapped rows to
    the table and the net, and each prototype's to the positives' rows.
    Under "none", C_E is the consensus itself and p_E is p_G, so their
    gradients are the consensus's and p_G's. C_E, C's gradient through it, the
    passes' activations and the net's table-sized and outer-product
    gradients are `workspace` buffers, so they stay valid only until the
    next pass over the same workspace (a fresh one when None).
    """
    positives = _checked_positives(client, positives, enhancement)
    if workspace is None:
        workspace = ad.Workspace()
    u = client.user_embedding
    single = client.personal_table is None
    own = table if single else client.personal_table  # the personal role
    glob = table if not single or consensus is None else consensus  # the global role
    if tape or enhancement == "ace":  # scoring reads the prototypes only through W
        p_g = _prototype(glob, positives)
        p_p = _prototype(own, positives) if p_p is None else p_p
    w_mat = c_pass = v_pass = None
    if enhancement == "ace":
        # ACE's d x d transfer matrix W = net([p_G, p_P])
        fwd = net_pass(net, np.concatenate([p_g, p_p]), workspace, "transfer")
        w_mat = fwd.out.reshape(p_g.size, p_g.size)
    elif enhancement != "none":
        c_pass = net_pass(net, glob, workspace, "C") if global_pass is None else global_pass
        if enhancement == "unified-transfer":
            v_pass = net_pass(net, own, workspace, "V")

    if not tape:
        # Every item's score under each view, with no fused table and, for
        # ACE, no C_E, since C_E u = C (W^T u).
        if enhancement == "ace":
            global_view = glob @ (w_mat.T @ u)
        elif enhancement == "none":
            global_view = None if single else glob @ u
        else:
            global_view = c_pass.out @ u
        own_view = fused_personal = None
        if personal:
            own_view = own @ u
            fused_personal = own_view if v_pass is None else v_pass.out @ u
        return ViewScores(global_view, own_view, fused_personal, p_p)

    params: dict = {"u": u, "C": table}
    if not single:
        params["V"] = own
    if net is not None and enhancement != "none":
        for (w_name, b_name), w, b in zip(_block_names(len(net.weights)), net.weights, net.biases):
            params[w_name] = w
            params[b_name] = b

    if enhancement == "ace":
        c_e = np.matmul(glob, w_mat.T, out=workspace.buffer(("forward_pass", "C_E"), glob.shape, glob.dtype))
        p_e = w_mat @ p_g
        views = (c_e, own)
    elif c_pass is not None:
        c_e = c_pass.out
        p_e = _prototype(c_e, positives)
        views = (c_e, own if v_pass is None else v_pass.out)
    else:  # none: the raw consensus fused with the personal table, or a single table alone
        c_e, p_e = glob, p_g
        views = (own,) if single else (glob, own)

    positives_distinct = None  # checked on the pass's first mean_rows call

    def mean_rows(out: np.ndarray, dp: np.ndarray) -> None:
        """Add dp, the gradient of a mean over the positives' rows of a
        table, into those rows of `out`, the table's gradient so far."""
        nonlocal positives_distinct
        if positives_distinct is None:
            positives_distinct = ad.distinct_rows(positives, out.shape[0])
        ad.add_rows(out, positives, dp * np.asarray(1.0 / positives.size, dtype=out.dtype), positives_distinct)

    def pullback(items, d_rows, *, d_u=None, d_ce=None, d_v=None, dp_p=None, dp_e=None) -> list:
        # The batch rows first: into C_E's and V's gradients where those are
        # the views, else into a zeroed gradient of the view (a single
        # table under "none", or unified-transfer's mapped V).
        scratch = workspace.buffer(("forward_pass", "scatter batch"), d_rows.shape, d_rows.dtype)
        items_distinct = ad.distinct_rows(items, views[0].shape[0])

        def with_rows(grad: np.ndarray | None, slot: int) -> np.ndarray:
            if grad is None:
                view = views[slot]
                grad = workspace.buffer(("forward_pass", "d view", slot), view.shape, view.dtype)
                grad.fill(0)
            ad.add_rows(grad, items, d_rows, items_distinct, scratch)
            return grad

        if single and enhancement == "none":  # the trained table is the one view
            d_own = with_rows(None, 0)
        else:
            d_ce = with_rows(d_ce, 0)
            if v_pass is None:
                d_own = with_rows(d_v, 1)
            else:
                d_own, d_mapped = d_v, with_rows(None, 1)
        dp_g = None
        d_theta: list[np.ndarray] = []
        if enhancement == "ace":
            d_w = (glob.T @ d_ce).T
            if dp_e is not None:
                d_w += np.dot(dp_e[:, None], p_g[None])  # the outer product; BLAS beats the broadcast
            dx, *d_theta = net_backward(net, fwd, d_w.reshape(-1), workspace, "transfer")
            d = p_g.size
            dp_p = dx[d:] if dp_p is None else dx[d:] + dp_p
            if not single:
                d_glob = np.matmul(d_ce, w_mat, out=workspace.buffer(("forward_pass", "C"), glob.shape, glob.dtype))
                dp_g = dx[:d] if dp_e is None else dx[:d] + w_mat.T @ dp_e
        elif c_pass is not None:
            if dp_e is not None:
                mean_rows(d_ce, dp_e)
            d_glob, *d_theta = net_backward(net, c_pass, d_ce, workspace, "C")
            if v_pass is not None:
                d_in, *d_theta_v = net_backward(net, v_pass, d_mapped, workspace, "V")
                for block, more in zip(d_theta, d_theta_v):
                    block += more
                if d_own is None:
                    d_own = d_in
                else:
                    d_own += d_in
        else:  # none: C_E is the consensus and p_E is p_G
            d_glob, dp_g = d_ce, dp_e
        if dp_g is not None and not single:
            mean_rows(d_glob, dp_g)
        if dp_p is not None:
            mean_rows(d_own, dp_p)
        table_grads = [d_own] if single else [d_glob, d_own]
        return [d_u, *table_grads, *d_theta]

    return ForwardTrace(p_G=p_g, p_P=p_p, W=w_mat, C_E=c_e, p_E=p_e, views=views, params=params, pullback=pullback)
