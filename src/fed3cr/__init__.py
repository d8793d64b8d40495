"""Federated recommendation with client-side consensus enhancement.

A numpy-backed simulator for one-user-per-client federated training of
implicit-feedback recommenders. Clients keep a private user embedding and a
personal item table, share a global item table through server averaging,
and learn a transfer matrix that reshapes the shared table to fit their own
distribution. Auxiliary losses keep the two item views rank-consistent and
feature-orthogonal. A diagnostics module measures how far the averaged
table drifts from any single client's optimum.
"""

from .checkpoint import load_client_state, load_server_state, save_client_state, save_server_state
from .config import ExperimentConfig, load_config, resolve_config
from .datasets import (
    HeldOut,
    InteractionDataset,
    NegativeSampler,
    RawInteraction,
    build_eval_candidates,
    leave_one_out_split,
    load_dataset,
)
from .degradation import (
    DegradationReport,
    QuadraticClient,
    bound_sweep,
    empirical_heterogeneity_probe,
    toy_example_report,
    verify_bound,
)
from .evaluation import (
    RoundMetrics,
    export_correlation_matrix,
    hr_ndcg_at_k,
    metrics_csv_lines,
    rank_candidates,
    rbo_truncated,
    view_consistency_rbo,
)
from .federation import (
    HyperParams,
    ServerState,
    TrainingResult,
    Upload,
    UploadChannel,
    VariantConfig,
    aggregate_consensus,
    aggregate_theta,
    local_update,
    run_training,
    select_clients,
)
from .losses import (
    LossBreakdown,
    consistency_loss,
    orthogonality_loss,
    rec_loss,
    top_one_distribution,
    total_loss_t,
)
from .model import (
    ClientState,
    ForwardTrace,
    TransferNet,
    forward_pass,
    init_client,
)
from .numerics import GradCheckReport, grad_check
from .toy import generate_toy_dataset

__version__ = "0.1.0"

__all__ = [
    "ClientState",
    "DegradationReport",
    "ExperimentConfig",
    "ForwardTrace",
    "GradCheckReport",
    "HeldOut",
    "HyperParams",
    "InteractionDataset",
    "LossBreakdown",
    "NegativeSampler",
    "QuadraticClient",
    "RawInteraction",
    "RoundMetrics",
    "ServerState",
    "TrainingResult",
    "TransferNet",
    "Upload",
    "UploadChannel",
    "VariantConfig",
    "aggregate_consensus",
    "aggregate_theta",
    "bound_sweep",
    "build_eval_candidates",
    "consistency_loss",
    "empirical_heterogeneity_probe",
    "export_correlation_matrix",
    "forward_pass",
    "generate_toy_dataset",
    "grad_check",
    "hr_ndcg_at_k",
    "init_client",
    "leave_one_out_split",
    "load_client_state",
    "load_config",
    "load_dataset",
    "load_server_state",
    "local_update",
    "metrics_csv_lines",
    "orthogonality_loss",
    "rank_candidates",
    "rbo_truncated",
    "rec_loss",
    "resolve_config",
    "run_training",
    "save_client_state",
    "save_server_state",
    "select_clients",
    "top_one_distribution",
    "total_loss_t",
    "toy_example_report",
    "verify_bound",
    "view_consistency_rbo",
]
