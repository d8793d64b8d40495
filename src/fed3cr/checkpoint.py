"""Binary checkpoint format for client parameter blocks.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header listing
the blocks (name, shape) plus dtype/seed/round metadata, then the raw
little-endian array bytes concatenated in header order. A block the client
lacks (the personal table of a federated-MF client) is left out of the
list. Reload is bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ParseError
from .model import ClientState, TransferNet

FORMAT_VERSION = 1


def _blocks(state: ClientState) -> list[tuple[str, np.ndarray]]:
    blocks = [("user_embedding", state.user_embedding), ("global_table", state.global_table)]
    if state.personal_table is not None:
        blocks.append(("personal_table", state.personal_table))
    if state.transfer_net is not None:
        for l, (w, b) in enumerate(zip(state.transfer_net.weights, state.transfer_net.biases)):
            blocks.append((f"net_w{l}", w))
            blocks.append((f"net_b{l}", b))
    return blocks


def save_client_state(path: str, state: ClientState, seed: int, round: int) -> None:
    blocks = _blocks(state)
    dtype = np.dtype(state.user_embedding.dtype).newbyteorder("<")
    header = {
        "version": FORMAT_VERSION,
        "client_id": state.client_id,
        "seed": seed,
        "round": round,
        "dtype": dtype.str,
        "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in blocks],
        "has_net": state.transfer_net is not None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr).astype(dtype).tobytes())


def load_client_state(path: str) -> tuple[ClientState, dict]:
    """Read a checkpoint; returns (state, header metadata)."""
    with open(path, "rb") as fh:
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ParseError("truncated checkpoint header")
        (header_len,) = struct.unpack("<Q", raw_len)
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise ParseError(f"unsupported checkpoint version {header.get('version')}")
        dtype = np.dtype(header["dtype"])
        arrays: dict[str, np.ndarray] = {}
        for block in header["blocks"]:
            shape = tuple(block["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise ParseError(f"truncated payload for block {block['name']}")
            arrays[block["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()

    net = None
    if header["has_net"]:
        weights, biases, l = [], [], 0
        while f"net_w{l}" in arrays:
            weights.append(arrays[f"net_w{l}"])
            biases.append(arrays[f"net_b{l}"])
            l += 1
        net = TransferNet(weights, biases)
    state = ClientState(
        client_id=header["client_id"],
        user_embedding=arrays["user_embedding"],
        global_table=arrays["global_table"],
        personal_table=arrays.get("personal_table"),
        transfer_net=net,
    )
    return state, header
