"""Does averaging heterogeneous clients degrade the shared item table?

The toy generator plants every item at its taste block's center plus
noise. After federated MF trains, linear CKA between the server's item
table and those planted vectors says how much of the item structure the
averaged table still carries: 1 is all of it up to rotation and scale. The
chance level is the run's own round-0 table, a small Gaussian draw. With
more blocks, the same 24 clients split into smaller groups that pull the
shared table in more directions, and less of the structure survives.

Run: python demos/01_consensus_alignment.py
"""

from fed3cr import (
    HyperParams,
    VariantConfig,
    consensus_alignment,
    leave_one_out_split,
    planted_item_vectors,
    run_training,
)
from fed3cr.federation import init_server
from fed3cr.toy import generate_toy_dataset

hp = HyperParams(rounds=30, local_iters=5, dim=16, lr=0.1, eval_negatives=59, eval_interval=30, seed=0)
variant = VariantConfig.from_label("FedMF")

print("FedMF, 24 clients x 96 items, 30 rounds, seed 0")
print("blocks  trained  round-0")
for blocks in (2, 4, 8):
    ds = generate_toy_dataset(num_blocks=blocks, seed=hp.seed)
    train, held = leave_one_out_split(ds, seed=hp.seed)
    planted = planted_item_vectors(ds.num_items, blocks, hp.seed)
    trained = consensus_alignment(run_training(train, held, hp, variant).server.consensus, planted)
    start = consensus_alignment(init_server(train, hp, variant).consensus, planted)
    print(f"{blocks:6d}  {trained:7.3f}  {start:7.3f}")
print("The trained table carries more of the planted structure than its random")
print("start, and less of it the more taste blocks the clients fall into.")
