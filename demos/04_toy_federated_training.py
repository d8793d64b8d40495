"""A complete federated run on the bundled synthetic dataset.

Twenty-four single-user clients in four taste blocks train locally and
share only their global item table and transfer-net weights; the server
averages both each round. Every upload is recorded by an instrumented
channel so the privacy surface is auditable after the fact.

Run: python demos/04_toy_federated_training.py
"""

import numpy as np

from fed3cr import HyperParams, UploadChannel, VariantConfig, run_training
from fed3cr.datasets import leave_one_out_split
from fed3cr.evaluation import TOP_K, metrics_csv_lines
from fed3cr.toy import generate_toy_dataset

ds = generate_toy_dataset(seed=0)
stats = ds.stats()
print(f"dataset: {stats['clients']} clients x {stats['items']} items, "
      f"{stats['interactions']} interactions (sparsity {stats['sparsity']:.2%})\n")
train, held = leave_one_out_split(ds, seed=0)  # one test item per client held out

hp = HyperParams(
    rounds=20,
    local_iters=5,
    dim=16,
    lr=0.1,
    beta_a=0.5,
    beta_o=0.5,
    eval_negatives=59,
    rbo_k=20,
    eval_interval=4,
    seed=0,
)
channel = UploadChannel()
result = run_training(train, held, hp, VariantConfig.from_label("Fed3CR"), channel=channel)

print("round-by-round metrics:")
for line in metrics_csv_lines(result.metrics, hp.rbo_k):
    print(" ", line)

random_hr = TOP_K / (hp.eval_negatives + 1)
final = result.metrics[-1]
print(f"\nfinal HR@10 {final.hr_at_k:.3f} vs random-ranking baseline {random_hr:.3f}")

kinds = {name.split(".")[0] for record in channel.records for name, _, _ in record["blocks"]}
print(f"\n{len(channel.records)} uploads crossed the channel; payload kinds seen: {sorted(kinds)}")
print("user embeddings and personal tables never left any client.")

norms = [np.linalg.norm(c.personal_table) for c in result.clients]
print(f"personal-table norms span [{min(norms):.2f}, {max(norms):.2f}] across clients;")
print("each client kept its own view while sharing the collective one.")
