import numpy as np
import pytest

import micropolar as mp
from micropolar.checkpoint import checkpoint_read, checkpoint_write, read_header
from micropolar.errors import CheckpointError

ZERO = mp.ForcingSpec.zero()


def _trajectory(grid, params, seed=5):
    rng = np.random.default_rng(seed)
    u0 = mp.leray_project(mp.random_field(grid, 2, rng, amplitude=0.2, sigma=3.0))
    om0 = mp.random_field(grid, 1, rng, amplitude=0.2, sigma=3.0)
    th0 = mp.random_field(grid, 1, rng, amplitude=0.2, sigma=3.0)
    times = np.linspace(0, 0.25, 9)
    return mp.initial_trajectory(u0, om0, th0, times, params)


def test_roundtrip_bit_exact(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="abc123")
    back = checkpoint_read(str(path))
    assert np.array_equal(back.times, traj.times[-1:])
    assert back.m == traj.m
    for a, b in zip(traj.state_at(traj.node_count - 1), back.state_at(0)):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.mean_zero == b.mean_zero
    for tag, half in back.coeffs.items():
        assert np.array_equal(half, traj.coeffs[tag][-1:])
        assert np.array_equal(back.free[tag], half)


def test_payload_is_interleaved_float64(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="abc123")
    expected = []
    for f in traj.state_at(traj.node_count - 1):
        inter = np.empty(f.coeffs.size * 2, dtype="<f8")
        inter[0::2] = f.coeffs.real.reshape(-1)
        inter[1::2] = f.coeffs.imag.reshape(-1)
        expected.append(inter.tobytes())
    payload = b"".join(expected)
    data = path.read_bytes()
    assert data.endswith(payload)
    (hlen,) = np.frombuffer(data[8:16], dtype="<u8")
    assert len(data) == 16 + int(hlen) + len(payload)


def test_header_readable(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), "deadbeef", 3)
    header = read_header(str(path))
    assert header["config_hash"] == "deadbeef"
    assert header["grid"]["n"] == grid2d.n
    assert header["t_end"] == traj.times[-1]
    assert header["window"] == 3
    assert {name: meta["components"] for name, meta in header["fields"].items()} \
        == {"u": 2, "om": 1, "th": 1}


def test_truncated_file_rejected(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="x")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 64])
    with pytest.raises(CheckpointError):
        checkpoint_read(str(path))


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "junk.mpk"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        read_header(str(path))


def test_hash_mismatch_refused(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="aaaa")
    with pytest.raises(CheckpointError):
        checkpoint_read(str(path), expected_hash="bbbb")
    assert checkpoint_read(str(path), expected_hash="aaaa") is not None


def test_resume_matches_uninterrupted(grid2d, params, cfg2, tmp_path):
    rng = np.random.default_rng(6)
    u0 = mp.leray_project(mp.random_field(grid2d, 2, rng, amplitude=0.2, sigma=3.0))
    om0 = mp.random_field(grid2d, 1, rng, amplitude=0.2, sigma=3.0)
    th0 = mp.random_field(grid2d, 1, rng, amplitude=0.2, sigma=3.0)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=96, tol=1e-11, m_max=40)
    full = mp.global_solve(u0, om0, th0, cfg2, params, ZERO, ZERO, pic, 0.5)

    half = mp.global_solve(u0, om0, th0, cfg2, params, ZERO, ZERO, pic, 0.25)
    path = tmp_path / "w.mpk"
    checkpoint_write(half.traj, str(path), config_hash="h")
    loaded = checkpoint_read(str(path), expected_hash="h")
    state = loaded.state_at(loaded.node_count - 1)
    resumed = mp.global_solve(state[0], state[1], state[2], cfg2, params,
                              ZERO, ZERO, pic, 0.5, t0=0.25)
    assert resumed.traj.times[0] == 0.25
    assert resumed.traj.times[-1] == full.traj.times[-1]
    end_full = full.traj.state_at(full.traj.node_count - 1)
    end_res = resumed.traj.state_at(resumed.traj.node_count - 1)
    from micropolar.solver import duhamel_residual
    quad = duhamel_residual(full.traj, params)
    tol = 10 * max(float(np.max(v)) for v in quad.values())
    for a, b in zip(end_full, end_res):
        assert (a - b).l2() <= max(tol, 1e-12)


def test_version_mismatch_refused(grid2d, params, tmp_path):
    import json
    import struct

    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="x")
    data = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", bytes(data[8:16]))
    header = json.loads(bytes(data[16:16 + hlen]).decode())
    header["version"] = 99
    new_head = json.dumps(header, sort_keys=True).encode()
    rebuilt = data[:8] + struct.pack("<Q", len(new_head)) + new_head \
        + data[16 + hlen:]
    path.write_bytes(bytes(rebuilt))
    with pytest.raises(CheckpointError):
        read_header(str(path))


def test_benchmark_reader_contract(grid2d, params, tmp_path):
    """A written checkpoint reads the way the benchmark's output check reads
    it: per-node full-spectrum velocities, one time and a full end state."""
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="abc123")
    back = checkpoint_read(str(path))
    u = np.stack([f.coeffs for f in back.u])
    assert u.shape == (1, grid2d.dim) + grid2d.shape
    assert len(back.times) == 1
    state = tuple(f.coeffs for f in back.state_at(len(back.times) - 1))
    assert [c.shape for c in state] == [(2,) + grid2d.shape, (1,) + grid2d.shape,
                                        (1,) + grid2d.shape]
    assert np.array_equal(u[0], state[0])


def test_non_real_payload_rejected(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="x")
    data = bytearray(path.read_bytes())
    # the last coefficient of th is the conjugate of a stored mode
    data[-16:] = np.array([1.0 + 2.0j], dtype="<c16").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="real field"):
        checkpoint_read(str(path))
