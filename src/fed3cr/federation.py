"""Federated orchestration: client sampling, local SGD updates, server-side
averaging of the shared item table and transfer-net weights, round-wise
evaluation, and the variants one training loop runs: the ablation grid and
federated MF with and without the consensus-enhancement plug-in.

Only the shared table and the transfer-net weights ever leave a client;
user embeddings and personal tables stay local. When `run_training` is
given an UploadChannel, every upload is sent through it, so that surface
can be audited. Between rounds a client holds only those private blocks:
the shared table and the net live once, on the server, plus one working
copy in the run's workspace, which the client being trained fills.
Clients train one after another in id order, and each upload is added into
the round's running sums before the next client starts, so a round holds
no upload beyond the one in training.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import seeding
from .autodiff import Workspace
from .datasets import InteractionDataset, NegativeSampler, build_eval_candidates
from .errors import AggregationError, ConfigurationError, ShapeError
from .evaluation import RBO_P, TOP_K, RoundMetrics, hr_ndcg_at_k, rank_candidates, view_consistency_rbo
from .losses import COMPLEMENTARITY_KINDS, EQ12_MODES, LossBreakdown, total_loss_t
from .model import (
    ENHANCEMENT_KINDS,
    ClientState,
    TransferNet,
    draw_personal_tables,
    forward_pass,
    init_client,
    init_client_net,
    net_pass,
)

# label -> (enhancement kind, l_a on, l_o on, personal table). C0 is bare
# additive fusion, C1 adds the enhancement, C2/C3/C4 add only the auxiliary
# losses, C5/C6 combine the enhancement with one loss each, Fed3CR enables
# everything. FedMF trains one shared table, and FedMF+ACE plugs the
# enhancement into it. The two row maps swap ACE for a transfer of the
# consensus or of both tables, under Fed3CR's losses.
VARIANT_LABELS = {
    "C0": ("none", False, False, True),
    "C1": ("ace", False, False, True),
    "C2": ("none", True, False, True),
    "C3": ("none", False, True, True),
    "C4": ("none", True, True, True),
    "C5": ("ace", True, False, True),
    "C6": ("ace", False, True, True),
    "Fed3CR": ("ace", True, True, True),
    "FedMF": ("none", False, False, False),
    "FedMF+ACE": ("ace", False, False, False),
    "consensus-transfer": ("consensus-transfer", True, True, True),
    "unified-transfer": ("unified-transfer", True, True, True),
}

# The default grid of `fed3cr ablate`.
ABLATION_LABELS = ("C0", "C1", "C2", "C3", "C4", "C5", "C6", "Fed3CR")

# The server's transfer-net layer widths in multiples of d, from the input
# width 2d; `init_client_net` appends the output layer.
TRANSFER_SCHEDULE = (2, 4)


def config_key(f: dataclasses.Field, section: str) -> str:
    """The dotted config key of a HyperParams field: `section.<field
    name>`, unless the field's metadata "config" names another key."""
    return f.metadata.get("config", f"{section}.{f.name}")


@dataclass(frozen=True)
class VariantConfig:
    """Which enhancement path and which auxiliary losses a run uses. The
    defaults are Fed3CR's flags; `from_label` gives any label's. A config
    picks a variant by its label only."""

    enhancement_kind: str = "ace"
    consistency_enabled: bool = True
    orthogonality_enabled: bool = True
    complementarity_kind: str = "orthogonal"
    # False: one trained shared table (federated MF)
    personal_table: bool = True

    @property
    def has_net(self) -> bool:
        return self.enhancement_kind != "none"

    def validate(self) -> None:
        if self.enhancement_kind not in ENHANCEMENT_KINDS:
            raise ConfigurationError(f"unknown enhancement kind {self.enhancement_kind!r}")
        if self.complementarity_kind not in COMPLEMENTARITY_KINDS:
            raise ConfigurationError(f"unknown complementarity kind {self.complementarity_kind!r}")
        if not self.personal_table and (
            self.consistency_enabled
            or self.orthogonality_enabled
            or self.enhancement_kind not in ("ace", "none")
        ):
            # l_a, l_o and the row maps compare or map two item views.
            raise ConfigurationError(
                "a variant without a personal table has one item view; it cannot turn on "
                "consistency, orthogonality or a row-map enhancement"
            )

    @classmethod
    def from_label(cls, label: str) -> "VariantConfig":
        if label not in VARIANT_LABELS:
            raise ConfigurationError(
                f"unknown variant label {label!r} (expected one of {tuple(VARIANT_LABELS)})"
            )
        kind, la, lo, personal = VARIANT_LABELS[label]
        return cls(
            enhancement_kind=kind,
            consistency_enabled=la,
            orthogonality_enabled=lo,
            personal_table=personal,
        )


@dataclass
class HyperParams:
    """All training, loss and evaluation knobs with their defaults. Each field
    is the config key `training.<field name>` unless its metadata says
    otherwise (see `config_key`)."""

    rounds: int = 100
    local_iters: int = 10
    dim: int = 32
    batch_size: int = 2048
    negatives_per_positive: int = 4
    client_fraction: float = 1.0
    lr: float = 0.1
    lr_gamma: float = 0.999
    beta_a: float = 0.5
    beta_o: float = 0.5
    eq12_mode: str = "softmax"
    eval_negatives: int = field(default=99, metadata={"config": "eval.negatives"})
    seed: int = 0
    dtype: str = "float32"
    eval_interval: int = field(default=1, metadata={"config": "eval.interval"})
    rbo_k: int = field(default=50, metadata={"config": "eval.rbo_k"})

    def validate(self) -> None:
        """Reject an out-of-range knob, naming it by its config key."""

        def require(ok: bool, name: str, rule: str) -> None:
            if not ok:
                key = config_key(self.__dataclass_fields__[name], "training")
                raise ConfigurationError(f"{key} {rule}, got {getattr(self, name)!r}")

        for name in ("rounds", "local_iters", "dim", "batch_size", "eval_interval", "rbo_k"):
            require(getattr(self, name) >= 1, name, "must be >= 1")
        require(self.negatives_per_positive >= 0, "negatives_per_positive", "must be >= 0")
        require(0.0 < self.client_fraction <= 1.0, "client_fraction", "must lie in (0, 1]")
        require(self.lr > 0.0, "lr", "must be positive")
        require(self.lr_gamma > 0.0, "lr_gamma", "must be positive")
        for name in ("lr", "lr_gamma", "beta_a", "beta_o"):
            require(math.isfinite(getattr(self, name)), name, "must be finite")
        for name in ("beta_a", "beta_o"):
            require(getattr(self, name) >= 0.0, name, "must be >= 0")
        require(self.eq12_mode in EQ12_MODES, "eq12_mode", f"must be one of {EQ12_MODES}")
        require(self.dtype in ("float32", "float64"), "dtype", "must be float32 or float64")
        require(
            self.eval_negatives >= 1 or self.eval_negatives == -1,
            "eval_negatives",
            "must be positive (or -1 for full ranking)",
        )

    def rbo_depth(self, num_items: int) -> int:
        """The depth the view RBO is taken at: `eval.rbo_k`, capped at the item count."""
        return min(self.rbo_k, num_items)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class ServerState:
    """What the server owns between rounds."""

    consensus: np.ndarray
    theta: TransferNet | None
    round: int = 0


@dataclass
class Upload:
    """The complete client-to-server payload: shared table + net weights."""

    client_id: int
    consensus: np.ndarray
    transfer_net: TransferNet | None


class UploadChannel:
    """Instrumented client-to-server path; records every payload block.

    With `capture_bytes` the raw serialized payload is kept so tests can
    assert exactly which bytes left the client.
    """

    def __init__(self, capture_bytes: bool = False):
        self.capture_bytes = capture_bytes
        self.records: list[dict] = []

    def send(self, round: int, upload: Upload) -> Upload:
        blocks = [("consensus", upload.consensus.shape, upload.consensus.nbytes)]
        payload = upload.consensus.tobytes() if self.capture_bytes else b""
        if upload.transfer_net is not None:
            for l, (w, b) in enumerate(zip(upload.transfer_net.weights, upload.transfer_net.biases)):
                blocks.append((f"transfer_net.w{l}", w.shape, w.nbytes))
                blocks.append((f"transfer_net.b{l}", b.shape, b.nbytes))
                if self.capture_bytes:
                    payload += w.tobytes() + b.tobytes()
        self.records.append(
            {
                "round": round,
                "client_id": upload.client_id,
                "blocks": blocks,
                "payload_bytes": payload if self.capture_bytes else None,
                "total_nbytes": sum(b[2] for b in blocks),
            }
        )
        return upload


# -- aggregation ----------------------------------------------------------------------


def aggregate_consensus(table: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """Add one uploaded table into the round's running sum `total` in place
    and return the sum; None starts a new one. Divided by the number of
    tables added, the sum is their elementwise mean, bit for bit what
    `np.mean(np.stack(tables), axis=0)` gives: that too adds each table in
    turn into zeros, then divides."""
    if total is None:
        total = np.zeros_like(table)
    elif table.shape != total.shape:
        raise ShapeError(f"upload shapes differ: {total.shape} vs {table.shape}")
    total += table
    return total


def aggregate_theta(net: TransferNet, total: TransferNet | None = None) -> TransferNet:
    """Add one uploaded net into the round's running blockwise sum `total`
    in place and return the sum; None starts a new one (see
    `aggregate_consensus`)."""
    if total is None:
        total = TransferNet([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    elif net.layer_shapes != total.layer_shapes:
        raise ConfigurationError(f"transfer-net schedules differ: {total.layer_shapes} vs {net.layer_shapes}")
    for block_sum, block in zip(total.weights + total.biases, net.weights + net.biases):
        block_sum += block
    return total


def select_clients(n: int, fraction: float, round: int, seed: int) -> list[int]:
    """ceil(fraction * n) distinct ids, uniform without replacement,
    deterministic in (seed, round); returned sorted. The product is exact,
    taken on the shortest decimal that reads back as `fraction`: 0.07 of 100
    clients is 7, where the float product 7.000000000000001 rounds up to 8."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must lie in (0, 1], got {fraction}")
    count = math.ceil(Fraction(repr(float(fraction))) * n)
    if count >= n:
        return list(range(n))
    rng = seeding.rng(seed, seeding.CLIENT_SELECT, round)
    return sorted(int(c) for c in rng.choice(n, size=count, replace=False))


# -- local update ----------------------------------------------------------------------


def _mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    """The mean of each loss term over `parts`. One C-contiguous row per term
    keeps each row's reduction pairwise, as `np.mean` of that term's list."""
    terms = np.array([[getattr(p, name) for p in parts] for name in ("l_rec", "l_a", "l_o", "total")])
    l_rec, l_a, l_o, total = np.mean(terms, axis=1).tolist()
    return LossBreakdown(l_rec=l_rec, l_a=l_a, l_o=l_o, total=total)


def local_update(
    state: ClientState,
    consensus: np.ndarray,
    theta: TransferNet | None,
    sampler: NegativeSampler,
    hp: HyperParams,
    variant: VariantConfig,
    round: int = 0,
    workspace: Workspace | None = None,
) -> tuple[Upload, LossBreakdown] | None:
    """Download the shared blocks, run E SGD iterations, return the upload.

    The learning rate decays per local iteration across the whole run:
    lr * gamma^(round * E + e). A non-finite loss aborts the client for the
    round (it is excluded from aggregation) with a warning naming it.

    The working table and net, and every large array of a step, are
    `workspace` buffers, so after the first call a step allocates no
    table-sized array. The upload is those buffers: it stays valid only
    until the next call with the same workspace. Without one, each call
    trains in a fresh workspace and the upload is the caller's own.
    """
    positives = sampler.dataset.client_items[state.client_id]
    if len(positives) == 0:
        warnings.warn(f"round {round}: client {state.client_id} has no positives; skipped")
        return None

    if variant.has_net and theta is None:
        raise ConfigurationError("variant requires transfer-net weights to download")
    if workspace is None:
        workspace = Workspace()
    # Train working copies of the shared blocks; they become the upload, never
    # alias the server's arrays, and leave the frozen download as it came.
    download = np.asarray(consensus, dtype=hp.np_dtype)
    table = workspace.copy(("local_update", "table"), download)
    net = None
    if variant.has_net:
        net = TransferNet(
            [workspace.copy(("local_update", "w", l), w) for l, w in enumerate(theta.weights)],
            [workspace.copy(("local_update", "b", l), b) for l, b in enumerate(theta.biases)],
        )

    # Row-map nets see gradient sums over all M item rows; use the mean
    # so the shared learning rate stays stable for the baseline kinds.
    net_scale = 1.0 / download.shape[0] if variant.enhancement_kind in (
        "consensus-transfer",
        "unified-transfer",
    ) else 1.0
    breakdowns = []
    for e in range(hp.local_iters):
        items, labels = sampler.sample_batch(state.client_id, hp.batch_size)
        trace = forward_pass(
            state,
            table,
            net,
            positives,
            enhancement=variant.enhancement_kind,
            consensus=download,
            workspace=workspace,
        )
        total, breakdown = total_loss_t(
            trace,
            items,
            labels,
            beta_a=hp.beta_a,
            beta_o=hp.beta_o,
            eq12_mode=hp.eq12_mode,
            consistency_enabled=variant.consistency_enabled,
            orthogonality_enabled=variant.orthogonality_enabled,
            complementarity_kind=variant.complementarity_kind,
            workspace=workspace,
        )
        if not math.isfinite(breakdown.total):
            warnings.warn(
                f"round {round}: client {state.client_id} produced a non-finite loss; "
                "excluded from aggregation"
            )
            return None
        lr = hp.lr * hp.lr_gamma ** (round * hp.local_iters + e)
        for (name, param), grad in zip(trace.params.items(), total.backward()):
            scale = net_scale if name[0] in ("w", "b") else 1.0
            # In place, in the gradient's own buffer: no two share one.
            np.multiply(grad, lr * scale, out=grad)
            param -= grad
        breakdowns.append(breakdown)
        del trace, total  # free this step's objective and trace before the next forward pass

    upload = Upload(client_id=state.client_id, consensus=table, transfer_net=net)
    return upload, _mean_breakdown(breakdowns)


# -- training loop ----------------------------------------------------------------------


@dataclass
class TrainingResult:
    server: ServerState
    metrics: list[RoundMetrics]
    clients: list[ClientState] = field(repr=False, default_factory=list)


def init_server(ds: InteractionDataset, hp: HyperParams, variant: VariantConfig) -> ServerState:
    rng = seeding.rng(hp.seed, seeding.SERVER_INIT, 0)
    consensus = rng.normal(0.0, 0.01, size=(ds.num_items, hp.dim)).astype(hp.np_dtype)
    theta = None
    if variant.has_net:
        theta = init_client_net(
            seeding.rng(hp.seed, seeding.SERVER_INIT, 1),
            hp.dim,
            TRANSFER_SCHEDULE,
            enhancement=variant.enhancement_kind,
            dtype=hp.np_dtype,
        )
    return ServerState(consensus=consensus, theta=theta, round=0)


def evaluate_round(
    clients: list[ClientState],
    server: ServerState,
    ds: InteractionDataset,
    hp: HyperParams,
    variant: VariantConfig,
    candidates: list[np.ndarray],
    round: int,
    loss_means: LossBreakdown,
    workspace: Workspace | None = None,
) -> RoundMetrics:
    """Score every client with positives against the server's blocks and
    average HR and NDCG at `TOP_K` and (with a personal table) the view RBO.

    Each client scores as it would after downloading the freshest shared
    blocks. Scoring only reads them, so every client reads the server's,
    through one forward pass with `tape=False`; a row map's pass over the
    server's table is the same for every client, so it runs once here. The
    clients go in blocks of d: each one's score vectors are copied into
    rows of (d, M) `workspace` blocks and its candidates into a (d, K) one,
    padded with its test item (which never orders before itself), and the
    ranking, top-k and RBO functions run once per block."""
    if workspace is None:
        workspace = Workspace()
    evaluated = [c for c in clients if len(ds.client_items[c.client_id])]
    global_pass = None
    if variant.enhancement_kind in ("consensus-transfer", "unified-transfer"):
        global_pass = net_pass(server.theta, server.consensus, workspace, "C")
    width = max((len(candidates[c.client_id]) for c in evaluated), default=1)
    views = ("fused", "personal", "global_view") if variant.personal_table else ("fused",)
    block = hp.dim
    hits, ndcgs, rbos = (np.empty(len(evaluated), dtype) for dtype in (np.int64, np.float64, np.float64))
    for start in range(0, len(evaluated), block):
        chunk = evaluated[start : start + block]
        n = len(chunk)
        cands = workspace.buffer(("evaluate_round", "candidates"), (block, width), np.int64)[:n]
        tests = np.array([ds.test_items[c.client_id] for c in chunk], dtype=np.int64)
        for row, client in enumerate(chunk):
            scores = forward_pass(
                client,
                server.consensus,
                server.theta,
                ds.client_items[client.client_id],
                enhancement=variant.enhancement_kind,
                workspace=workspace,
                tape=False,
                global_pass=global_pass,
            )
            if row == 0:
                shape, dtype = (block, scores.fused.size), scores.fused.dtype
                blocks = {view: workspace.buffer(("evaluate_round", view), shape, dtype)[:n] for view in views}
            # The personal view is the raw table V, which unified-transfer maps before fusing.
            for view in views:
                blocks[view][row] = getattr(scores, view)
            own = candidates[client.client_id]
            cands[row, : len(own)] = own
            cands[row, len(own) :] = tests[row]
        done = slice(start, start + n)
        hits[done], ndcgs[done] = hr_ndcg_at_k(rank_candidates(blocks["fused"], cands, tests), TOP_K)
        if variant.personal_table:
            k = hp.rbo_depth(ds.num_items)
            rbos[done] = view_consistency_rbo(blocks["personal"], blocks["global_view"], k, RBO_P, workspace)
    return RoundMetrics(
        round=round,
        hr_at_k=float(np.mean(hits)),
        ndcg_at_k=float(np.mean(ndcgs)),
        rbo=float(np.mean(rbos)) if variant.personal_table and evaluated else None,
        loss_rec=loss_means.l_rec,
        loss_a=loss_means.l_a,
        loss_o=loss_means.l_o,
        clients_evaluated=len(evaluated),
    )


def run_training(
    ds: InteractionDataset,
    hp: HyperParams,
    variant: VariantConfig = VariantConfig(),
    channel: UploadChannel | None = None,
) -> TrainingResult:
    """Full federated run: T rounds of select / local update / aggregate /
    evaluate. The selected clients train in id order through one workspace,
    and each upload is added into the round's running sums as it arrives;
    the server's new blocks are those sums divided by the number of
    uploads. For a fixed (config, seed) the run, and so `metrics.csv`, is
    byte-reproducible only at a fixed BLAS thread count: BLAS may sum a
    product in another order on another count, which changes low bits
    that training then carries into the metrics."""
    hp.validate()
    variant.validate()
    if not ds.is_split:
        raise ConfigurationError("dataset must be split before training")

    clients = [
        init_client(hp.seed, hp.dim, ds.num_items, client_id=c, dtype=hp.np_dtype, personal_table=False)
        for c in range(ds.num_clients)
    ]
    if variant.personal_table:
        tables = draw_personal_tables(hp.seed, hp.dim, ds.num_items, range(ds.num_clients), hp.np_dtype)
        for client, table in zip(clients, tables):
            client.personal_table = table
    server = init_server(ds, hp, variant)
    sampler = NegativeSampler(ds, hp.seed, hp.negatives_per_positive)
    candidates = [
        build_eval_candidates(ds, c, hp.eval_negatives, hp.seed) for c in range(ds.num_clients)
    ]
    workspace = Workspace()

    metrics: list[RoundMetrics] = []
    for round in range(hp.rounds):
        selected = select_clients(ds.num_clients, hp.client_fraction, round, hp.seed)
        table_sum, theta_sum, losses = None, None, []
        for cid in selected:
            result = local_update(
                clients[cid], server.consensus, server.theta, sampler, hp, variant, round, workspace
            )
            if result is None:
                continue
            upload, breakdown = result
            if channel is not None:
                channel.send(round, upload)
            # The upload is the workspace's working copy: add it before the next client overwrites it.
            table_sum = aggregate_consensus(upload.consensus, table_sum)
            if variant.has_net:
                theta_sum = aggregate_theta(upload.transfer_net, theta_sum)
            losses.append(breakdown)
        if not losses:
            raise AggregationError(f"round {round}: every selected client failed; aborting run")

        table_sum /= len(losses)
        server.consensus = table_sum
        if variant.has_net:
            for block in theta_sum.weights + theta_sum.biases:
                block /= len(losses)
            server.theta = theta_sum
        server.round = round + 1

        if (round + 1) % hp.eval_interval == 0 or round == hp.rounds - 1:
            metrics.append(
                evaluate_round(
                    clients,
                    server,
                    ds,
                    hp,
                    variant,
                    candidates,
                    round,
                    _mean_breakdown(losses),
                    workspace=workspace,
                )
            )
    return TrainingResult(server=server, metrics=metrics, clients=clients)
