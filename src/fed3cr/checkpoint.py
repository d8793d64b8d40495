"""Binary checkpoint format for client and server parameter blocks.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header listing
the blocks (name, shape) plus dtype/seed/round metadata, then the raw
little-endian array bytes concatenated in header order. Reload is bit-exact.

A client file holds only what the client owns: its user embedding and, when
it has one, its personal table. The shared table and the transfer-net
weights belong to the server, whose one file holds them with the round they
were aggregated in. The server file plus the client files are the model the
last evaluation scored.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ParseError
from .federation import ServerState
from .model import ClientState, TransferNet

FORMAT_VERSION = 2


def _write(path: str, meta: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    dtype = np.dtype(blocks[0][1].dtype).newbyteorder("<")
    header = {
        **meta,
        "version": FORMAT_VERSION,
        "dtype": dtype.str,
        "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in blocks],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in blocks:
            # No copy when the block is already contiguous in the header's dtype.
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def _read(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ParseError("truncated checkpoint header")
    (header_len,) = struct.unpack_from("<Q", raw)
    offset = 8 + header_len
    if offset > len(raw):
        raise ParseError("truncated checkpoint header")
    try:
        header = json.loads(raw[8:offset].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ParseError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"checkpoint header is not a JSON object: {header!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {header.get('version')}")
    try:
        dtype = np.dtype(str(header["dtype"]))  # str: np.dtype(None) would read as float64
        blocks = [(block["name"], tuple(block["shape"])) for block in header["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:  # a missing entry, or one of the wrong type
        raise ParseError(f"malformed checkpoint header: {exc!r}") from exc
    if dtype.kind not in "biufc":
        raise ParseError(f"checkpoint dtype {dtype.str!r} is not numeric")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in blocks:
        if not isinstance(name, str) or not all(type(n) is int and n >= 0 for n in shape):
            raise ParseError(f"malformed checkpoint block {name!r} of shape {shape}")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(raw):
            raise ParseError(f"truncated payload for block {name}")
        arrays[name] = np.frombuffer(raw, dtype, count, offset).reshape(shape).copy()
        offset += count * dtype.itemsize
    if offset != len(raw):
        raise ParseError(f"{len(raw) - offset} trailing bytes after the last block")
    return header, arrays


def save_client_state(path: str, state: ClientState, seed: int, round: int) -> None:
    """Write the client's private blocks."""
    blocks = [("user_embedding", state.user_embedding)]
    if state.personal_table is not None:
        blocks.append(("personal_table", state.personal_table))
    _write(path, {"client_id": state.client_id, "seed": seed, "round": round}, blocks)


def load_client_state(path: str) -> tuple[ClientState, dict]:
    """Read a client checkpoint; returns (state, header)."""
    header, arrays = _read(path)
    try:
        return ClientState(header["client_id"], arrays["user_embedding"], arrays.get("personal_table")), header
    except KeyError as exc:
        raise ParseError(f"client checkpoint lacks {exc}") from None


def save_server_state(path: str, server: ServerState, seed: int) -> None:
    """Write the server's consensus table, its net weights (if any) and round."""
    blocks = [("consensus", server.consensus)]
    if server.theta is not None:
        for l, (w, b) in enumerate(zip(server.theta.weights, server.theta.biases)):
            blocks.append((f"net_w{l}", w))
            blocks.append((f"net_b{l}", b))
    _write(path, {"seed": seed, "round": server.round}, blocks)


def load_server_state(path: str) -> tuple[ServerState, dict]:
    """Read a server checkpoint; returns (server state, header)."""
    header, arrays = _read(path)
    weights, biases, l = [], [], 0
    try:
        while f"net_w{l}" in arrays:
            weights.append(arrays[f"net_w{l}"])
            biases.append(arrays[f"net_b{l}"])
            l += 1
        theta = TransferNet(weights, biases) if weights else None
        return ServerState(consensus=arrays["consensus"], theta=theta, round=header["round"]), header
    except KeyError as exc:
        raise ParseError(f"server checkpoint lacks {exc}") from None
