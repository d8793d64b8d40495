"""The client-side scoring pipeline, one forward pass at a time.

A client looks up its interacted rows in both item tables, averages them
into two preference prototypes, feeds their concatenation through a small
net to get a d x d transfer matrix W, maps every shared-table row through
W, adds the personal table, and scores items against the user embedding.
`forward_pass` returns each of these steps' arrays in its trace, with the
trainable arrays by name and the closed-form pullback that turns the
objective's gradients w.r.t. u, C_E, V and the prototypes into one gradient
per trainable array.

Run: python demos/02_enhancement_forward_pass.py
"""

import numpy as np

from fed3cr import forward_pass, init_client
from fed3cr.model import TransferNet, init_client_net

d, num_items = 8, 12
state = init_client(seed=42, d=d, M=num_items, client_id=0, dtype=np.float64)
# the server's blocks: the shared table and the transfer net
rng = np.random.default_rng(42)
table = rng.normal(0.0, 0.01, size=(num_items, d))
net = init_client_net(rng, d, dtype=np.float64)
positives = np.array([0, 3, 5, 9])

print(f"client with {num_items} items, dimension {d}, positives {positives.tolist()}\n")

trace = forward_pass(state, table, net, positives)
print("prototype from shared table   p_G:", np.round(trace.p_G, 4))
print("prototype from personal table p_P:", np.round(trace.p_P, 4))

w = trace.W
print(f"\ntransfer matrix W: shape {w.shape}, |W|_F = {np.linalg.norm(w):.5f}")
print("(fresh nets start with W near zero, so enhancement begins as a no-op)")

print(f"\nenhanced shared table C_E = C W^T: {trace.C_E.shape}, |C_E|_F = {np.linalg.norm(trace.C_E):.5f}")
print("trainable arrays:", ", ".join(f"{name} {a.shape}" for name, a in trace.params.items()))
fused = sum(trace.views[1:], trace.views[0])
print(f"fused scoring table   V_F = C_E + V: {fused.shape}")

print("\nper-item interaction probabilities sigma(u . V_F[j]):")
scores = fused @ state.user_embedding
for j in range(4):
    print(f"  item {j}: {1.0 / (1.0 + np.exp(-scores[j])):.4f}")

print("\nA net rigged to output the identity (zero output weights, the output bias")
print("the flattened I) gives W = I, so C_E = C and fusion is plain C + V:")
rigged = TransferNet(
    net.weights[:-1] + [np.zeros_like(net.weights[-1])], net.biases[:-1] + [np.eye(d).reshape(-1)]
)
trace_i = forward_pass(state, table, rigged, positives)
print(f"|W - I|_F = {np.linalg.norm(trace_i.W - np.eye(d)):.5f}")
print("max |C_E - C| =", float(np.abs(trace_i.C_E - table).max()))
