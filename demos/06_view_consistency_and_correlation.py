"""Do the two item views agree on ranking while capturing different features?

Two diagnostics on trained clients:
  - rank-biased overlap (RBO) between each client's top-20 lists under the
    personal view and the enhanced-global view: the consistency loss should
    pull it up;
  - the d x d correlation between the two tables, exported with small
    entries zeroed: the orthogonality loss should empty it out compared to
    a distance-push alternative.

Run: python demos/06_view_consistency_and_correlation.py  (about ten seconds)
"""

import dataclasses
import os
import tempfile

import numpy as np

from fed3cr import HyperParams, VariantConfig, export_correlation_matrix, run_training
from fed3cr.datasets import leave_one_out_split
from fed3cr.evaluation import rbo_truncated
from fed3cr.model import forward_pass
from fed3cr.toy import generate_toy_dataset

train, held = leave_one_out_split(generate_toy_dataset(seed=0), seed=0)
hp = HyperParams(
    rounds=30, local_iters=5, dim=16, lr=0.1, beta_a=0.5, beta_o=0.5,
    eval_negatives=59, rbo_k=20, eval_interval=30, seed=0,
)

print("=== RBO anchors ===")
print("identical lists :", rbo_truncated([1, 2, 3], [1, 2, 3], p=0.99))
print("disjoint lists  :", rbo_truncated([1, 2, 3], [4, 5, 6], p=0.99))
print("one swap, p=0.5 :", round(rbo_truncated([1, 2, 3], [1, 3, 2], p=0.5), 4))

print("\n=== Consistency loss raises cross-view agreement ===")
with_term = run_training(train, held, hp, VariantConfig.from_label("Fed3CR"))
without_term = run_training(train, held, dataclasses.replace(hp, beta_a=0.0), VariantConfig.from_label("Fed3CR"))
print(f"mean top-20 RBO with the consistency term   : {with_term.metrics[-1].rbo:.4f}")
print(f"mean top-20 RBO without it (beta_a = 0)     : {without_term.metrics[-1].rbo:.4f}")

print("\n=== Orthogonality empties the correlation matrix ===")
l2_variant = VariantConfig(
    enhancement_kind="ace", consistency_enabled=True,
    orthogonality_enabled=True, complementarity_kind="l2-distance",
)
with_l2 = run_training(train, held, hp, l2_variant)


def surviving_entries(result, variant, client_id):
    client = result.clients[client_id]
    trace = forward_pass(
        client,
        result.server.consensus,
        result.server.theta,
        train.client_items[client_id],
        enhancement=variant.enhancement_kind,
    )
    path = os.path.join(tempfile.mkdtemp(), f"corr_{client_id}.csv")
    matrix = export_correlation_matrix(trace.C_E, client.personal_table, path, clip=0.003)
    return int((matrix != 0).sum()), path


client_id = 22
n_orth, path = surviving_entries(with_term, VariantConfig.from_label("Fed3CR"), client_id)
n_l2, _ = surviving_entries(with_l2, l2_variant, client_id)
total = hp.dim * hp.dim
print(f"client {client_id}: entries above 0.003 with orthogonality pressure: {n_orth}/{total}")
print(f"client {client_id}: entries above 0.003 with distance push instead : {n_l2}/{total}")
print(f"one matrix exported for external heatmap rendering: {path}")
