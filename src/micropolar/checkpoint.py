"""Window-end checkpoints: the solver state at the end of one window, all a
restart needs, since the mild solution continues uniquely from it.

Layout (format version 3): 8-byte magic, 8-byte little-endian header length,
UTF-8 JSON header, then the half spectra (last-axis modes 0..n/2) of u, om
and th as the solver holds them, interleaved re/im little-endian float64,
row-major over components and modes.  Round trips are bit-exact.  A payload
that is not finite, or whose planes k_last = 0 and n/2 (their own conjugates)
are not Hermitian within HERMITIAN_RTOL of its largest coefficient, is refused.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import CheckpointError
from .fields import GridSpec, plane_defect
from .solver import TAGS, TrajectoryState

MAGIC = b"MPCKPT01"
FORMAT_VERSION = 3
# the solver's arithmetic leaves relative defects near 1e-20 on the planes
HERMITIAN_RTOL = 1e-12


def checkpoint_write(traj: TrajectoryState, path: str,
                     config_hash: str = "", window: int = 0) -> None:
    """Write the last node of traj, the end of the given window."""
    header = {
        "version": FORMAT_VERSION,
        "grid": traj.grid.to_dict(),
        "t_end": float(traj.times[-1]),
        "window": window,
        "iteration": traj.m,
        "config_hash": config_hash,
        "fields": {tag: {"components": traj.coeffs[tag].shape[1], "mean_zero": tag == "u"}
                   for tag in TAGS},
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        # little-endian complex128 is the interleaved re/im float64 layout
        for tag in TAGS:
            fh.write(np.ascontiguousarray(traj.coeffs[tag][-1], dtype="<c16"))


def _read_header(fh, path: str) -> dict:
    if fh.read(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    size = fh.read(8)
    if len(size) != 8:
        raise CheckpointError(f"{path}: truncated header")
    (hlen,) = struct.unpack("<Q", size)
    if hlen > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except ValueError:      # invalid UTF-8 or JSON
        raise CheckpointError(f"{path}: header is not UTF-8 JSON") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('version')} != {FORMAT_VERSION}")
    return header


def read_header(path: str) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def checkpoint_read(path: str, expected_hash: str | None = None) -> TrajectoryState:
    """The checkpoint as a one-node trajectory: times [t_end] and the end
    state, the solver state a resume starts from."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if expected_hash is not None and header.get("config_hash") != expected_hash:
            raise CheckpointError(
                f"{path}: checkpoint belongs to config {header.get('config_hash')!r}, "
                f"refusing resume with {expected_hash!r}")
        grid = GridSpec.from_dict(header["grid"])
        state = {}
        for name in TAGS:
            shape = (1, int(header["fields"][name]["components"])) + grid.half_shape
            nbytes = int(np.prod(shape)) * 16
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise CheckpointError(f"{path}: truncated payload in {name}")
            half = state[name] = np.frombuffer(raw, dtype="<c16").reshape(shape)
            if not (np.isfinite(half).all()
                    and plane_defect(grid, half) <= HERMITIAN_RTOL * np.max(np.abs(half))):
                raise CheckpointError(f"{path}: {name} is not the spectrum of a real field")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after payload")
    return TrajectoryState(np.array([float(header["t_end"])]), grid, state, state,
                           m=int(header["iteration"]))
