"""Trajectory checkpoints: JSON header + little-endian float64 payload.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON header,
then the coefficient payload (interleaved re/im, row-major over modes, nodes
outermost) for the nine stored field sets.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import CheckpointError
from .fields import GridSpec, SpectralField
from .solver import TrajectoryState

MAGIC = b"MPCKPT01"
FORMAT_VERSION = 1
_FIELD_SETS = ("u", "om", "th", "rhs_u", "rhs_om", "rhs_th",
               "free_u", "free_om", "free_th")


def checkpoint_write(traj: TrajectoryState, path: str,
                     config_hash: str = "") -> None:
    grid = traj.grid
    header = {
        "version": FORMAT_VERSION,
        "grid": grid.to_dict(),
        "times": [float(t) for t in traj.times],
        "iteration": traj.m,
        "config_hash": config_hash,
        "fields": {},
    }
    for name in _FIELD_SETS:
        nodes = getattr(traj, name)
        header["fields"][name] = {
            "components": nodes[0].components,
            "mean_zero": [bool(f.mean_zero) for f in nodes],
        }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        # little-endian complex128 is the interleaved re/im float64 layout;
        # each node goes straight to the file
        for name in _FIELD_SETS:
            for f in getattr(traj, name):
                fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16"))


def read_header(path: str) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        head = fh.read(hlen)
        if len(head) != hlen:
            raise CheckpointError(f"{path}: truncated header")
        header = json.loads(head.decode("utf-8"))
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('version')} != {FORMAT_VERSION}")
    return header


def checkpoint_read(path: str, expected_hash: str | None = None) -> TrajectoryState:
    header = read_header(path)
    if expected_hash is not None and header.get("config_hash") != expected_hash:
        raise CheckpointError(
            f"{path}: checkpoint belongs to config {header.get('config_hash')!r}, "
            f"refusing resume with {expected_hash!r}")
    grid = GridSpec.from_dict(header["grid"])
    times = np.asarray(header["times"], dtype=np.float64)
    n_nodes = times.size
    mode_count = grid.num_modes
    with open(path, "rb") as fh:
        fh.read(8)
        (hlen,) = struct.unpack("<Q", fh.read(8))
        fh.seek(16 + hlen)
        sets = {}
        for name in _FIELD_SETS:
            meta = header["fields"][name]
            comp = int(meta["components"])
            nodes = []
            for j in range(n_nodes):
                nbytes = comp * mode_count * 2 * 8
                raw = fh.read(nbytes)
                if len(raw) != nbytes:
                    raise CheckpointError(f"{path}: truncated payload in {name}[{j}]")
                c = np.frombuffer(raw, dtype="<c16").reshape((comp,) + grid.shape)
                nodes.append(SpectralField(grid, c, mean_zero=bool(meta["mean_zero"][j])))
            sets[name] = nodes
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after payload")
    return TrajectoryState(times=times, m=int(header["iteration"]), **sets)
