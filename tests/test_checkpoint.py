import json

import numpy as np
import pytest

import micropolar as mp
from micropolar.checkpoint import checkpoint_read, checkpoint_write, read_header
from micropolar.errors import CheckpointError
from micropolar.solver import TAGS, picard_step, tag_components

ZERO = mp.ForcingSpec.zero()


def _trajectory(grid, params, seed=5):
    rng = np.random.default_rng(seed)
    comps = tag_components(grid.dim)
    u0 = mp.leray_project(mp.random_field(grid, grid.dim, rng, amplitude=0.2, sigma=3.0))
    om0 = mp.random_field(grid, comps["om"], rng, amplitude=0.2, sigma=3.0)
    th0 = mp.random_field(grid, 1, rng, amplitude=0.2, sigma=3.0)
    times = np.linspace(0, 0.25, 9)
    return mp.initial_trajectory(mp.start_state(u0, om0, th0), times, params)


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


def test_roundtrip_bit_exact_3d(grid3d, params, tmp_path):
    """A 3D sweep's end state reads back with the bytes it was written with."""
    traj = picard_step(_trajectory(grid3d, params), params, ZERO, ZERO)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="abc123", window=2)
    back = checkpoint_read(str(path))
    assert back.times.tobytes() == traj.times[-1:].tobytes() and back.m == 1
    for tag, half in traj.coeffs.items():
        assert back.coeffs[tag].tobytes() == half[-1:].tobytes()
    assert path.stat().st_size == 16 + len(json.dumps(read_header(str(path)), sort_keys=True)) \
        + sum(half[-1].nbytes for half in traj.coeffs.values())


def test_payload_is_interleaved_float64(grid2d, params, tmp_path):
    traj = _trajectory(grid2d, params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="abc123")
    expected = []
    for half in traj.coeffs.values():
        assert half.shape[2:] == (grid2d.n, grid2d.n // 2 + 1)
        inter = np.empty(half[-1].size * 2, dtype="<f8")
        inter[0::2] = half[-1].real.reshape(-1)
        inter[1::2] = half[-1].imag.reshape(-1)
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
    full = mp.global_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic, 0.5)

    half = mp.global_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic, 0.25)
    path = tmp_path / "w.mpk"
    checkpoint_write(half.end, str(path), config_hash="h")
    loaded = checkpoint_read(str(path), expected_hash="h")
    resumed = mp.global_solve(loaded, cfg2, params, ZERO, ZERO, pic, 0.5)
    # every node from t0 = 0.25 on repeats the uninterrupted march bit for
    # bit: a restart at t0 > 0 does not project the velocity again
    j0 = len(half.log["t"]) - 1
    assert resumed.log.keys() == full.log.keys()
    for key, values in resumed.log.items():
        assert values.tobytes() == full.log[key][j0:].tobytes(), key
    for name in ("times", "kinetic", "heat", "dissipation", "total"):
        assert getattr(resumed.ledger, name).tobytes() \
            == getattr(full.ledger, name)[j0:].tobytes(), name
    assert resumed.end.times.tobytes() == full.end.times.tobytes()
    for tag in TAGS:
        assert resumed.end.coeffs[tag].tobytes() == full.end.coeffs[tag].tobytes()


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


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_non_hermitian_zero_plane_rejected(params, tmp_path, dim, n):
    """A coefficient of the k_last = 0 plane whose conjugate mode does not
    match it is refused, even by a small relative defect."""
    traj = _trajectory(mp.GridSpec(dim=dim, n=n), params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="x")
    data = bytearray(path.read_bytes())
    half = traj.coeffs["th"][-1]
    # mode (1, 0[, 0]) of th, the last of the three fields
    offset = len(data) - half.nbytes + 16 * int(np.prod(half.shape[2:]))
    value = np.frombuffer(bytes(data[offset:offset + 16]), dtype="<c16")[0]
    assert abs(value) > 0
    bad = value + 1e-9j * float(np.max(np.abs(half)))
    data[offset:offset + 16] = np.array([bad], dtype="<c16").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="real field"):
        checkpoint_read(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_non_finite_payload_rejected(params, tmp_path, dim, n, bad):
    """A NaN or infinite coefficient off the self-conjugate planes, which
    the Hermitian check does not read, is refused too."""
    traj = _trajectory(mp.GridSpec(dim=dim, n=n), params)
    path = tmp_path / "t.mpk"
    checkpoint_write(traj, str(path), config_hash="x")
    data = bytearray(path.read_bytes())
    # mode (0, 1[, ...]) of th: last-axis index 1, an interior column
    offset = len(data) - traj.coeffs["th"][-1].nbytes + 16
    data[offset:offset + 16] = np.array([complex(bad, 0.0)], dtype="<c16").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="real field"):
        checkpoint_read(str(path))
