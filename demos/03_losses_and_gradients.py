"""The three training objectives and the gradient contract behind them.

Shows the recommendation BCE, the ranking-consistency term between the two
item views, the orthogonality penalty on their correlation matrix, the
weighted total, and a finite-difference audit of the analytic gradients.

Run: python demos/03_losses_and_gradients.py
"""

import numpy as np

from fed3cr import (
    ClientState,
    TransferNet,
    consistency_loss,
    forward_pass,
    grad_check,
    init_client,
    orthogonality_loss,
    rec_loss,
    top_one_distribution,
    total_loss_t,
)
from fed3cr.model import init_client_net

print("=== Recommendation BCE ===")
print("coin-flip prediction on a positive:", round(rec_loss(np.array([0.5]), np.array([1])), 4))
print("confident correct predictions     :", round(rec_loss(np.array([0.99, 0.01]), np.array([1, 0])), 4))

print("\n=== Ranking consistency between views ===")
proto = np.array([1.0, 0.5])
table = np.random.default_rng(0).normal(size=(6, 2))
dist = top_one_distribution(proto, table)
print("top-one distribution (softmax of cosines):", np.round(dist, 3), "sum", dist.sum())
same = consistency_loss(dist, dist)
print(f"matching distributions -> shared entropy {same:.4f} (the floor, not zero)")
other = top_one_distribution(-proto, table)
print(f"disagreeing distributions -> {consistency_loss(dist, other):.4f}")

print("\n=== Orthogonality penalty ===")
c_e = np.array([[1.0, 0.0]])
v = np.array([[0.0, 1.0]])
print("single-row worked case:", orthogonality_loss(c_e, v))
rng = np.random.default_rng(1)
shared = rng.normal(size=(10, 4))
print("tables with heavy overlap:", round(orthogonality_loss(shared, 0.7 * shared), 3))

print("\n=== Weighted total on a live forward pass ===")
state = init_client(seed=5, d=4, M=6, dtype=np.float64)
rng = np.random.default_rng(5)
table = rng.normal(0, 0.01, (6, 4))  # the server's shared table and net
net = init_client_net(rng, 4, dtype=np.float64)
positives = np.array([0, 2, 4])
trace = forward_pass(state, table, net, positives)
items, labels = np.array([0, 1, 2, 3, 5]), np.array([1, 0, 1, 0, 0])
_, parts = total_loss_t(trace, items, labels, beta_a=0.5, beta_o=0.5)
print(f"rec {parts.l_rec:.4f} + 0.5*consistency {parts.l_a:.4f} + 0.5*orthogonality {parts.l_o:.4f}"
      f" = {parts.total:.4f}")

print("\n=== Gradient audit (central differences vs the closed-form backward) ===")
# condition the instance: tiny near-zero blocks make finite differences noisy
rng = np.random.default_rng(9)
state.user_embedding = rng.normal(0, 0.5, 4)
table = rng.normal(0, 0.5, (6, 4))
state.personal_table = rng.normal(0, 0.5, (6, 4))
net.weights[-1] = rng.normal(0, 0.3, net.weights[-1].shape)


blocks = {"u": state.user_embedding, "C": table, "V": state.personal_table}
blocks.update({f"w{l}": w for l, w in enumerate(net.weights)})


def objective(b):
    client = ClientState(state.client_id, b["u"], b["V"])
    t = forward_pass(client, b["C"], TransferNet([b["w0"], b["w1"]], net.biases), positives)
    return total_loss_t(t, items, labels, beta_a=0.5, beta_o=0.5)[0], t


total, trace = objective(blocks)
grads = dict(zip(trace.params, total.backward()))  # one gradient per trainable array, by name
for name in blocks:
    report = grad_check(lambda p: float(objective({**blocks, name: p})[0].data), blocks[name], grads[name])
    print(f"  block {name:2s}: {report}")
