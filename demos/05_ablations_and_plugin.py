"""Which pieces earn their keep: the ablation grid and the plug-in test.

The C0..C6 labels toggle the enhancement step and the two auxiliary losses;
Fed3CR enables everything. The second half bolts the enhancement mechanism
onto a plain federated matrix-factorization baseline (label FedMF), where
the downloaded table is treated as the consensus to enhance (FedMF+ACE).
All of them run through the same training loop, `run_training`.

Run: python demos/05_ablations_and_plugin.py  (about half a minute)
"""

import dataclasses

from fed3cr import HyperParams, VariantConfig, run_training
from fed3cr.datasets import leave_one_out_split
from fed3cr.federation import ABLATION_LABELS
from fed3cr.toy import generate_toy_dataset

train, held = leave_one_out_split(generate_toy_dataset(seed=0), seed=0)
hp = HyperParams(
    rounds=30, local_iters=5, dim=16, lr=0.1, beta_a=0.5, beta_o=0.5,
    eval_negatives=59, rbo_k=20, eval_interval=30, seed=0,
)

print("variant  enhancement         L_cons  L_orth   HR@10   NDCG@10")
for label in ABLATION_LABELS:
    variant = VariantConfig.from_label(label)
    final = run_training(train, held, hp, variant).metrics[-1]
    print(
        f"{label:8s} {variant.enhancement_kind:18s} "
        f"{'on ' if variant.consistency_enabled else 'off'}     "
        f"{'on ' if variant.orthogonality_enabled else 'off'}    "
        f"{final.hr_at_k:6.3f}  {final.ndcg_at_k:6.3f}"
    )

print("\nevery variant solves the toy task by round 30; the enhancement's value")
print("shows up as convergence speed, so compare the first rounds directly:")
early_hp = dataclasses.replace(hp, rounds=4, eval_interval=1)
for label in ("C0", "C1"):
    metrics = run_training(train, held, early_hp, VariantConfig.from_label(label)).metrics
    traj = "  ".join(f"{m.hr_at_k:.2f}" for m in metrics)
    print(f"  {label}: HR@10 over rounds 1-4: {traj}")

print("\nalternative enhancement heads (auxiliary losses off, like C1):")
for kind in ("consensus-transfer", "unified-transfer"):
    variant = VariantConfig(kind, consistency_enabled=False, orthogonality_enabled=False)
    final = run_training(train, held, hp, variant).metrics[-1]
    print(f"  {kind:20s} HR@10 {final.hr_at_k:.3f}  NDCG@10 {final.ndcg_at_k:.3f}")

print("\nfederated MF baseline, with and without the enhancement plug-in:")
plain = run_training(train, held, hp, VariantConfig.from_label("FedMF")).metrics[-1]
plugin = run_training(train, held, hp, VariantConfig.from_label("FedMF+ACE")).metrics[-1]
print(f"  plain  : HR@10 {plain.hr_at_k:.3f}  NDCG@10 {plain.ndcg_at_k:.3f}")
print(f"  plug-in: HR@10 {plugin.hr_at_k:.3f}  NDCG@10 {plugin.ndcg_at_k:.3f}")
print("(the plug-in starts near a no-op: the net's last layer starts near zero,")
print(" and a zero transfer matrix leaves the baseline's scores exactly as they are)")
