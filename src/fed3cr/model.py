"""Client-side parameters and the consensus-enhancement forward pass.

A client owns two private blocks: its user embedding and a personal item
table. The shared (global) item table and the weights of a small fully
connected net, which turns the client's two preference prototypes into a
d x d transfer matrix, belong to the server; whoever trains or scores passes
them to `forward_pass` next to the client. Scoring fuses the transformed
global table with the personal one additively. A federated-MF client has no
personal table: the shared table it trains takes the personal role, and the
table as downloaded takes the global one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import seeding
from .autodiff import Tensor
from .errors import DataError, ShapeError

ENHANCEMENT_KINDS = ("ace", "consensus-transfer", "unified-transfer", "none")


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

    def copy(self) -> "TransferNet":
        return TransferNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_transfer_net(
    rng: np.random.Generator,
    in_dim: int,
    hidden: list[int],
    out_dim: int,
    final_init: str = "zero",
    final_scale: float = 1e-3,
    dtype=np.float32,
) -> TransferNet:
    """Hidden layers get fan-in uniform init; the output layer starts near
    zero ('zero') or near a flattened identity ('identity') so the generated
    transfer matrix begins at ~0 or ~I respectively."""
    widths = [in_dim] + list(hidden) + [out_dim]
    weights, biases = [], []
    for l in range(len(widths) - 1):
        fan_in, fan_out = widths[l], widths[l + 1]
        last = l == len(widths) - 2
        if last:
            w = rng.uniform(-final_scale, final_scale, size=(fan_out, fan_in))
            b = np.zeros(fan_out)
            if final_init == "identity":
                d = int(round(out_dim**0.5))
                if d * d != out_dim:
                    raise ShapeError(f"identity init needs a square output, got {out_dim}")
                b = np.eye(d).reshape(-1)
            elif final_init != "zero":
                raise ValueError(f"unknown final_init {final_init!r}")
        else:
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = rng.uniform(-bound, bound, size=fan_out)
        weights.append(w.astype(dtype))
        biases.append(b.astype(dtype))
    return TransferNet(weights, biases)


def net_forward(params: list[tuple[Tensor, Tensor]], x: Tensor, workspace: ad.Workspace) -> Tensor:
    """Run the net on a single input vector, building each layer's weight
    gradient in a workspace buffer."""
    h = x
    for l, (w, b) in enumerate(params):
        grad = workspace.buffer(("net_forward", l), w.data.shape, w.data.dtype)
        h = ad.matmul(w, h, a_grad=grad) + b
        if l < len(params) - 1:
            h = ad.relu(h)
    return h


def net_forward_rows(params: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    """Run the net independently on every row of a matrix."""
    h = x
    for l, (w, b) in enumerate(params):
        h = ad.matmul(h, ad.transpose(w)) + b
        if l < len(params) - 1:
            h = ad.relu(h)
    return h


@dataclass
class ClientState:
    """What a client owns: its user embedding and its personal item table
    (None for a federated-MF client, which trains the shared table only)."""

    client_id: int
    user_embedding: np.ndarray
    personal_table: np.ndarray | None


@dataclass
class ForwardTrace:
    """Tensors recorded by one forward pass; `params` holds the trainable leaves.

    `views` are the M x d tables whose sum is the scoring table V_F: the
    enhanced global table and the personal view, or a federated-MF client's
    trained table alone. Training scores only the batch rows of each view,
    and evaluation each whole view once; neither builds V_F.
    """

    p_G: Tensor
    p_P: Tensor
    W: Tensor | None
    C_E: Tensor
    p_E: Tensor
    views: tuple[Tensor, ...]
    params: dict = field(repr=False, default_factory=dict)


def init_client(seed: int, d: int, M: int, client_id: int = 0, dtype=np.float32) -> ClientState:
    """Seeded client construction; identical (seed, client_id) gives identical
    state. Both blocks draw from Normal(0, 0.01)."""
    if d < 1 or M < 1:
        raise ValueError("d and M must be positive")
    rng = seeding.rng(seed, seeding.CLIENT_INIT, client_id)
    u = rng.normal(0.0, 0.01, size=d).astype(dtype)
    rng.normal(0.0, 0.01, size=(M, d))  # discarded, but V's values (so every seeded output) depend on it
    v = rng.normal(0.0, 0.01, size=(M, d)).astype(dtype)
    return ClientState(client_id, u, v)


def init_client_net(
    rng: np.random.Generator,
    d: int,
    schedule: tuple[int, ...],
    ace_init: str = "zero",
    enhancement: str = "ace",
    dtype=np.float32,
) -> TransferNet | None:
    """The server's transfer net for an enhancement kind (None for "none").

    `schedule` lists layer widths as multiples of d starting at the mandatory
    input width 2*d; the output layer (d*d units) is appended automatically.
    """
    if enhancement == "none":
        return None
    if enhancement == "ace":
        if not schedule or schedule[0] != 2:
            raise ShapeError(f"transfer-net schedule must start at width 2*d, got {schedule}")
        hidden = [m * d for m in schedule[1:]]
        return init_transfer_net(rng, 2 * d, hidden, d * d, final_init=ace_init, dtype=dtype)
    # Row-enhancement baselines map item rows d -> d through one hidden layer.
    hidden = max(schedule[-1] * d if len(schedule) > 1 else 4 * d, 2 * d)
    return init_row_net(rng, d, hidden, dtype=dtype)


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


# -- differentiable forward pass ----------------------------------------------------


def forward_pass(
    client: ClientState,
    table: np.ndarray,
    net: TransferNet | None,
    positives: np.ndarray,
    *,
    enhancement: str = "ace",
    ace_scale: float = 1.0,
    consensus: np.ndarray | None = None,
    workspace: ad.Workspace | None = None,
) -> ForwardTrace:
    """Build the differentiable graph from the client's private blocks, the
    shared table `table` and the net `net` (ignored when `enhancement` is
    "none").

    The returned trace's `params` dict holds the trainable leaf tensors
    ("u", "C" for `table`, "V" and per-layer "w{l}"/"b{l}"); after a
    backward pass their `.grad` fields drive the SGD update.

    A client without a personal table trains "u", "C" and the net only. Its
    trained table "C" takes the personal role (V_F = C with no enhancement),
    and `consensus`, the frozen download (default: `table`), takes the
    global role: V_F = C + consensus W^T. The sum V_F itself is not
    recorded; the trace keeps its terms as `views`.

    The enhanced table C_E, C's gradient through it and the net's weight
    gradients are built in `workspace` buffers, so they stay valid only
    until the next pass over the same workspace (a fresh one when None).
    """
    if enhancement not in ENHANCEMENT_KINDS:
        raise ValueError(f"unknown enhancement kind {enhancement!r}")
    positives = np.asarray(positives)
    if positives.size == 0:
        raise DataError(f"client {client.client_id} has no positives")

    if workspace is None:
        workspace = ad.Workspace()
    d = table.shape[1]
    u_t = ad.parameter(client.user_embedding)
    c_t = ad.parameter(table)
    params: dict = {"u": u_t, "C": c_t}
    single = client.personal_table is None
    if single:
        v_t = c_t
        c_t = ad.as_tensor(table if consensus is None else consensus)
    else:
        v_t = params["V"] = ad.parameter(client.personal_table)

    theta: list[tuple[Tensor, Tensor]] = []
    if net is not None and enhancement != "none":
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            w_t, b_t = ad.parameter(w), ad.parameter(b)
            params[f"w{l}"] = w_t
            params[f"b{l}"] = b_t
            theta.append((w_t, b_t))

    p_g = ad.tmean(ad.gather_rows(c_t, positives), axis=0)
    p_p = ad.tmean(ad.gather_rows(v_t, positives), axis=0)

    w_mat: Tensor | None = None
    if enhancement == "ace":
        out = net_forward(theta, ad.concat([p_g, p_p]), workspace)
        w_mat = ad.reshape(out, (d, d))
        if ace_scale != 1.0:
            w_mat = ad.mul(w_mat, ace_scale)
        shape, dtype = c_t.data.shape, c_t.data.dtype
        product = workspace.buffer(("forward_pass", "C_E"), shape, dtype)
        grad = workspace.buffer(("forward_pass", "C"), shape, dtype)
        c_e = ad.matmul(c_t, ad.transpose(w_mat), out=product, a_grad=grad)
        p_e = ad.matmul(w_mat, p_g)
        views = (c_e, v_t)
    elif enhancement == "consensus-transfer":
        c_e = net_forward_rows(theta, c_t)
        p_e = ad.tmean(ad.gather_rows(c_e, positives), axis=0)
        views = (c_e, v_t)
    elif enhancement == "unified-transfer":
        c_e = net_forward_rows(theta, c_t)
        p_e = ad.tmean(ad.gather_rows(c_e, positives), axis=0)
        views = (c_e, net_forward_rows(theta, v_t))
    else:  # none: the raw consensus fused with the personal table, or a single table alone
        c_e = c_t
        p_e = p_g
        views = (v_t,) if single else (c_t, v_t)

    return ForwardTrace(p_G=p_g, p_P=p_p, W=w_mat, C_E=c_e, p_E=p_e, views=views, params=params)
