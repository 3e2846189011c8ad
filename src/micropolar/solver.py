"""Successive approximation of the coupled integral equations.

A trajectory is the whole time curve of (velocity, microrotation,
temperature), each field held as the node-stacked half spectra of a real
field; one iteration maps the curve u ->  free-evolution + integral of
exp(-(t-s) generator) applied to the nonlinearity along the curve.  The
integral uses per-mode exact exponential weights with piecewise-linear
interpolation of the integrand between nodes (order 2 in the node
spacing); the linear part is therefore treated exactly.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .exponents import TAGS, ExponentConfig
from .fields import (
    GridSpec,
    SpectralField,
    dealias_mask,
    irfft_half,
    parseval_columns,
    parseval_l2,
    _zero_index,
)
from .nonlinear import CouplingParams, ForcingSpec, assemble_rhs, generators
from .operators import (
    OperatorKind,
    OperatorSymbol,
    apply_operator,
    cross,
    derivative_symbol,
    eig_families,
    lebesgue_norm,
    leray_coeffs,
    parallel_part,
    power_coeffs,
    power_weight,
    projector_symbols,
    spectral_coeffs,
    subspaces,
)

MEAN_TOL = 1e-10

# grid values one assemble_rhs call may take to the grid: blocks of nodes
# amortise the per-call overhead of the small transforms, while blocks past
# the cache-sized working set run slower and raise the peak memory
RHS_BLOCK_BYTES = 3 << 18


def beta_function(x: float, y: float) -> float:
    """Euler beta via log-gamma."""
    if x <= 0 or y <= 0:
        raise ValueError(f"beta function needs positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


# ---------------------------------------------------------------------------
# Exponential quadrature weights
#
# psi_k(z) = integral_0^1 exp(-z(1-xi)) xi^k dxi = k! sum_m (-z)^m / (k+m+1)!


def _psi(k: int, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z < 1.0
    zs = z[small]
    acc = np.zeros_like(zs)
    # 18 terms: remainder below 1/19! even at z = 1
    for m in range(17, -1, -1):
        acc = acc * (-zs) + math.factorial(k) / math.factorial(k + m + 1)
    out[small] = acc
    zl = z[~small]
    if zl.size:
        psi = -np.expm1(-zl) / zl  # psi_0
        for j in range(1, k + 1):
            psi = (1.0 - j * psi) / zl
        out[~small] = psi
    return out


def interval_weights(eig: np.ndarray, h: float) -> tuple:
    """(decay, w0, w1): exp(-h mu) and the exact weights of the linear
    interpolant on one subinterval, so that

        int_t^{t+h} exp(-(t+h-s) mu) N(s) ds = w0 N(t) + w1 N(t+h).
    """
    z = eig * h
    psi0 = _psi(0, z)
    psi1 = _psi(1, z)
    return np.exp(-z), h * (psi0 - psi1), h * psi1


def cubic_weights(eig: np.ndarray, h: float) -> tuple:
    """Weights (w for sigma^k, k=0..3) of a local cubic on one subinterval."""
    z = eig * h
    return tuple(h ** (k + 1) * _psi(k, z) for k in range(4))


class DuhamelPropagator:
    """Exact per-mode propagation of int_0^t exp(-(t-s) L) N(s) ds along a
    node grid for fields stacked on the component axis: ops[i] generates the
    comps[i] planes of field i, in stack order.

    One recurrence runs on the real view of all the planes, with real
    weights per plane, repeated for the real and imaginary parts.  A field
    with two invariant families (a vector under the elliptic generator)
    keeps its first family in its own planes and its second in extra planes
    after the last field's; the two are summed into the field's planes at
    every node.

    start_rhs is the stacked RHS at node 0 once picard_step has assembled
    it there: node 0 is the window's start state in every sweep."""

    def __init__(self, ops: tuple, comps: tuple, times: np.ndarray):
        self.ops = tuple(op.with_power(1.0) for op in ops)
        self.comps = tuple(comps)
        self._families = [eig_families(op, c) for op, c in zip(self.ops, comps)]
        # (field planes, its second family's planes after the last field's)
        self._second_planes, start, at = [], 0, sum(self.comps)
        for eigs, c in zip(self._families, self.comps):
            if len(eigs) > 1:
                self._second_planes.append((slice(start, start + c), slice(at, at + c)))
                at += c
            start += c
        # the recurrence planes of the samples: the stack's, then each second family's
        self._pieces = [slice(0, start)] + [second for _, second in self._second_planes]
        self.times = np.asarray(times, dtype=np.float64)
        self._weights = {}
        self._steps = None
        self.start_rhs = None

    def _interval(self, h: float) -> list:
        """(decay, w0, w1) of interval_weights on the planes of each piece of
        the recurrence, as float64 arrays laid out like the real view of a
        complex node row."""
        key = round(h, 15)
        if key not in self._weights:
            # each field's first family, then the second families
            fields = list(zip(self._families, self.comps))
            planes = [(eigs[0], c) for eigs, c in fields]
            planes += [(eigs[1], c) for eigs, c in fields if len(eigs) > 1]
            weights = [(interval_weights(eig, h), c) for eig, c in planes]
            full = [np.repeat(np.concatenate([np.broadcast_to(w[k], (c,) + w[k].shape)
                                              for w, c in weights]), 2, axis=-1)
                    for k in range(3)]
            self._weights[key] = [tuple(w[piece] for w in full) for piece in self._pieces]
        return self._weights[key]

    def _intervals(self) -> list:
        """_interval of every interval in node order; intervals of one
        length share their weights."""
        if self._steps is None:
            self._steps = [self._interval(float(self.times[j + 1] - self.times[j]))
                           for j in range(len(self.times) - 1)]
        return self._steps

    def integrate_nodes(self, rhs: np.ndarray) -> np.ndarray:
        """Duhamel integrals at every node of RHS samples at the nodes, both
        node-stacked half spectra (nodes, sum(comps), *half).

        A field with two families keeps its first in its planes, split in
        place as subspaces splits it, and its second apart: a C-ordered rhs
        is overwritten.
        Each interval writes decay * I_j, then adds w0 N_j and w1 N_{j+1},
        in that order, through one scratch row, on the stack's planes and
        then on each second family's.  With one family per field the
        recurrence runs on the output rows themselves; with second families
        it runs on a pair of spare rows, and each new row's second families
        are added into its fields' output planes."""
        rhs = np.ascontiguousarray(rhs)
        samples = [rhs]
        if self._second_planes:
            kap, ksq = projector_symbols(self.ops[0].grid)
            for field, _ in self._second_planes:
                para = parallel_part(rhs[:, field], kap, ksq)
                rhs[:, field] -= para
                samples.append(para)
        out = np.empty(rhs.shape, dtype=np.complex128)
        out[0] = 0.0
        real = out.view(np.float64)
        rows = real if len(samples) == 1 else \
            np.zeros((2, self._pieces[-1].stop) + real.shape[2:])
        scratch = np.empty(rows.shape[1:])
        parts = [(rows[:, piece], data.view(np.float64), scratch[piece])
                 for piece, data in zip(self._pieces, samples)]
        for j, weights in enumerate(self._intervals()):
            a, b = (j, j + 1) if rows is real else (j % 2, (j + 1) % 2)
            for (decay, w0, w1), (acc, data, tmp) in zip(weights, parts):
                new = np.multiply(decay, acc[a], out=acc[b])
                new += np.multiply(w0, data[j], out=tmp)
                new += np.multiply(w1, data[j + 1], out=tmp)
            if rows is not real:
                row = rows[b].view(np.complex128)
                out[j + 1] = row[: rhs.shape[1]]
                for field, second in self._second_planes:
                    out[j + 1, field] += row[second]
        return out


# ---------------------------------------------------------------------------
# Trajectories

def tag_components(dim: int) -> dict:
    """Component count of each field tag on a dim-dimensional grid; the
    planar microrotation is a scalar."""
    return {"u": dim, "om": 1 if dim == 2 else 3, "th": 1}


def window_propagator(grid: GridSpec, params: CouplingParams,
                      times: np.ndarray) -> DuhamelPropagator:
    """The propagator of the system's three generators on the stacked RHS
    (nodes, dim + C + 1, *half) of the fields of TAGS, in that order."""
    comps = tag_components(grid.dim)
    return DuhamelPropagator(generators(grid, params), tuple(comps[tag] for tag in TAGS),
                             times)


@dataclass(frozen=True)
class PicardConfig:
    horizon: float = 0.5
    nodes_per_unit: int = 256
    m_max: int = 30
    tol: float = 1e-9
    grading: float = 1.0                      # t_j = T (j/J)^grading
    linear_only: bool = False

    def __post_init__(self):
        if not (self.horizon > 0 and self.tol > 0 and self.m_max >= 1):
            raise ConfigurationError("horizon, tol must be positive and m_max >= 1")
        if self.nodes_per_unit < 1:
            raise ConfigurationError("nodes_per_unit must be >= 1")
        if self.nodes_per_unit >= np.iinfo(np.intp).max / self.horizon:
            raise ConfigurationError(f"nodes_per_unit gives a window of {self.horizon:g} "
                                     f"more nodes than an array can index")

    def node_grid(self, horizon: float | None = None) -> np.ndarray:
        T = self.horizon if horizon is None else horizon
        j_count = max(4, int(round(T * self.nodes_per_unit)))
        frac = np.arange(j_count + 1, dtype=np.float64) / j_count
        return T * frac ** self.grading

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "nodes_per_unit": self.nodes_per_unit,
                "m_max": self.m_max, "tol": self.tol, "grading": self.grading,
                "linear_only": self.linear_only}

    @staticmethod
    def from_dict(d: dict) -> "PicardConfig":
        return PicardConfig(
            horizon=float(d.get("horizon", 0.5)),
            nodes_per_unit=int(d.get("nodes_per_unit", 256)),
            m_max=int(d.get("m_max", 30)),
            tol=float(d.get("tol", 1e-9)),
            grading=float(d.get("grading", 1.0)),
            linear_only=bool(d.get("linear_only", False)))


@dataclass
class TrajectoryState:
    """Node-sampled curves of the three fields.  coeffs and free map each tag
    of TAGS, in that order, to the read-only half spectra (nodes, comp, *half)
    of the iterate and of the window's free evolution.  A one-node trajectory
    is a solver state (a solve's start, a window's end, a checkpoint), its
    own free evolution over a window of length 0."""

    times: np.ndarray
    grid: GridSpec
    coeffs: dict
    free: dict
    m: int = 0

    def __post_init__(self):
        for arr in (*self.coeffs.values(), *self.free.values()):
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.times)

    def node_blocks(self, first: int = 0) -> list:
        """Consecutive slices of rhs_block_size nodes from node first to the
        last; the last may be shorter."""
        n, size = self.node_count, rhs_block_size(self.grid, self.coeffs["om"].shape[1])
        return [slice(j, min(j + size, n)) for j in range(first, n, size)]

    def end_state(self) -> "TrajectoryState":
        """The last node as a one-node trajectory, a copy that outlives the arrays."""
        last = {tag: c[-1:].copy() for tag, c in self.coeffs.items()}
        return TrajectoryState(self.times[-1:], self.grid, last, last, m=self.m)

    def _field(self, tag: str, half: np.ndarray) -> SpectralField:
        # the Stokes semigroup and the projected RHS keep the velocity mean-zero
        return SpectralField(self.grid, half, mean_zero=tag == "u")

    def state_at(self, j: int) -> tuple:
        """(u, om, th) at node j as fields on the stored arrays: a view for
        readers of checkpoints and reports; the solver uses the arrays."""
        return tuple(self._field(tag, c[j]) for tag, c in self.coeffs.items())

    def l2_norms(self) -> dict:
        """The L2 norm of each field at every node, keyed by tag: the values
        of state_at(j)[i].l2(), bit for bit, without building the fields."""
        return {tag: parseval_l2(self.grid, half) for tag, half in self.coeffs.items()}

    @property
    def u(self) -> tuple:
        """The velocity at every node as fields on the stored arrays: a view
        for readers of checkpoints and reports; the solver uses the arrays."""
        return tuple(self._field("u", c) for c in self.coeffs["u"])


def start_state(u0: SpectralField, om0: SpectralField, th0: SpectralField) -> TrajectoryState:
    """The solver state of the initial data (u0, om0, th0) at t = 0."""
    coeffs = {tag: f.half[np.newaxis] for tag, f in zip(TAGS, (u0, om0, th0))}
    return TrajectoryState(np.array([0.0]), u0.grid, coeffs, coeffs)


def rhs_block_size(grid: GridSpec, ncomp: int) -> int:
    """Nodes per assemble_rhs call: as many as keep the float64 grid values of
    its plane buffer (u, om and the gradients of u, om and th, that is
    dim + C + (dim + C + 1) dim planes a node, and th itself when forced)
    within about RHS_BLOCK_BYTES, and at least one.  A window's first sweep
    blocks nodes 0..J and each later sweep nodes 1..J, so 65 nodes of the
    2D n = 32 grid take 8 blocks of 8 and one of 1, then 8 blocks of 8."""
    planes = (grid.dim + ncomp) * (grid.dim + 1) + grid.dim
    return max(1, RHS_BLOCK_BYTES // (planes * grid.num_modes * 8))


def _free_evolution(op: OperatorSymbol, start: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-t op) start at every node as stacked half spectra, from the half
    spectrum (comp, *half) of a real field, solenoidal under Stokes: one
    broadcast exp(-t eig) over the nodes."""
    t = times.reshape((-1,) + (1,) * (op.grid.dim + 1))
    return spectral_coeffs(op, lambda eig: np.exp(-t * eig), start[np.newaxis])


def initial_trajectory(start: TrajectoryState, times: np.ndarray, params: CouplingParams,
                       strict: bool = True) -> TrajectoryState:
    """Free-evolution trajectory (iteration zero) from the one-node start
    state, at the times elapsed since it.  strict checks the preconditions
    on initial data: a solenoidal velocity (the L2 norm of its divergence
    within 1e-8 of its own), mean-zero fields, and no mode outside the 2/3
    ball (dealias_mask), where products would alias and which the RHS
    transforms do not read.  A start at t = 0 is
    initial data, whose velocity the Stokes semigroup sees Leray-projected;
    a later start is a state of the solver, already projected, and node 0
    keeps its bits."""
    times, grid = np.asarray(times, dtype=np.float64), start.grid
    u0, om0, th0 = (start.coeffs[tag][0] for tag in TAGS)
    if strict:
        div = np.sum(derivative_symbol(grid) * u0, axis=0)[np.newaxis, np.newaxis]
        if parseval_l2(grid, div)[0] > 1e-8 * parseval_l2(grid, start.coeffs["u"])[0]:
            raise PreconditionError("initial velocity is not solenoidal")
        for name, c in zip(("velocity", "microrotation", "temperature"), (u0, om0, th0)):
            scale = max(1.0, float(np.max(np.abs(c))))
            if np.max(np.abs(c[(Ellipsis,) + _zero_index(grid)])) > MEAN_TOL * scale:
                raise PreconditionError(f"initial {name} must be mean-zero")
            if np.max(np.abs(c[:, ~dealias_mask(grid)]), initial=0.0) > MEAN_TOL * scale:
                raise PreconditionError(f"initial {name} has modes outside the 2/3 "
                                        f"dealias ball")
    if float(start.times[0]) == 0.0:
        u0 = leray_coeffs(grid, u0)
    free = {tag: _free_evolution(op, c, times) for tag, op, c
            in zip(TAGS, generators(grid, params), (u0, om0, th0))}
    return TrajectoryState(times=times, grid=grid, coeffs=free, free=free, m=0)


def _tag_views(stack: np.ndarray) -> dict:
    """The planes of each field of TAGS in a stack (nodes, dim + C + 1,
    *half) of them, as views keyed by tag."""
    dim = stack.ndim - 2
    return dict(zip(TAGS, np.split(stack, [dim, stack.shape[1] - 1], axis=1)))


def workers() -> int:
    """Threads a sweep's RHS blocks share: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _rhs_stack(traj: TrajectoryState, params: CouplingParams, f: ForcingSpec,
               g: ForcingSpec, linear_only: bool, first: int) -> np.ndarray:
    """Right-hand sides of the iterate at the nodes from first on, one
    assemble_rhs call per block of rhs_block_size nodes on its half spectra,
    stacked (nodes, dim + C + 1, *half); the rows before first are left for
    the caller to fill.

    The blocks are dealt out in strides to the calling thread and
    min(workers(), blocks) - 1 helper threads, started here and joined
    before the return; their transforms and ufuncs release the interpreter
    lock.  Each block writes only its own rows, and a block's RHS does not
    depend on the others, so the bits do not depend on the thread count.
    The first exception of any block is raised here once every thread has
    stopped."""
    dim, ncomp = traj.grid.dim, traj.coeffs["om"].shape[1]
    half = traj.coeffs["u"].shape[2:]
    rhs = np.empty((traj.node_count, dim + ncomp + 1) + half, dtype=np.complex128)
    blocks = traj.node_blocks(first)
    errors = []

    def run(share):
        for b in share:
            if errors:                  # another thread has failed: stop
                return
            try:
                assemble_rhs(traj.grid, *(traj.coeffs[tag][b] for tag in TAGS),
                             params, f, g, linear_only=linear_only, out=rhs[b])
            except Exception as exc:
                errors.append(exc)
                return

    count = max(1, min(workers(), len(blocks)))
    helpers = [threading.Thread(target=run, args=(blocks[i::count],))
               for i in range(1, count)]
    for t in helpers:
        t.start()
    try:
        run(blocks[::count])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return rhs


def node_rhs(traj: TrajectoryState, params: CouplingParams, f: ForcingSpec,
             g: ForcingSpec, linear_only: bool = False) -> dict:
    """Right-hand sides of the iterate at every node, as node-stacked half
    spectra keyed by the tag of the equation they drive."""
    return _tag_views(_rhs_stack(traj, params, f, g, linear_only, 0))


def picard_step(traj: TrajectoryState, params: CouplingParams,
                f: ForcingSpec, g: ForcingSpec,
                linear_only: bool = False,
                propagator: DuhamelPropagator | None = None) -> TrajectoryState:
    """One successive-approximation sweep: the RHS of the input iterate at
    every node, then free evolution plus its Duhamel integral.

    Node 0 of every iterate of a window is the window's start state, so its
    RHS is the same in every sweep.  The first sweep through a propagator
    keeps it in its start_rhs; a later sweep through the same propagator,
    which must then serve the same window and forcing, assembles nodes 1..
    only."""
    if propagator is None:
        propagator = window_propagator(traj.grid, params, traj.times)
    kept = propagator.start_rhs is not None
    rhs = _rhs_stack(traj, params, f, g, linear_only, 1 if kept else 0)
    if kept:
        rhs[0] = propagator.start_rhs
    else:
        propagator.start_rhs = rhs[0].copy()
    # the new iterate, free evolution plus integral, in the integral's planes
    new = _tag_views(propagator.integrate_nodes(rhs))
    for tag in TAGS:
        np.add(traj.free[tag], new[tag], out=new[tag])
    new["u"][(Ellipsis,) + _zero_index(traj.grid)] = 0.0
    return replace(traj, coeffs=new, m=traj.m + 1)


# ---------------------------------------------------------------------------
# Weighted norms


def _energies(c: np.ndarray) -> np.ndarray:
    """|c|^2 of complex coefficients, as re^2 + im^2."""
    return c.real * c.real + c.imag * c.imag


def time_weight(times: np.ndarray, power: float) -> np.ndarray:
    """t^power at every node; at t = 0 the weight is 0 for power > 0, else 1."""
    w = np.ones_like(times)
    pos = times > 0
    w[pos] = times[pos] ** power
    if power > 0:
        w[~pos] = 0.0
    return w


class WeightedNorms:
    """t^(x - x0)-weighted fractional norms along a trajectory, at the nine
    intermediate exponents of the configuration."""

    def __init__(self, cfg: ExponentConfig, grid: GridSpec, params: CouplingParams):
        self.cfg = cfg
        self.grid = grid
        self.ops = dict(zip(TAGS, generators(grid, params)))
        self.lebesgue = cfg.by_tag("lebesgue")
        self.base = cfg.by_tag("base")
        self.exps = cfg.by_tag("tracked")
        self._parseval = {}

    def fractional_norm(self, tag: str, fld: SpectralField, exp: float) -> float:
        g = apply_operator(self.ops[tag].with_power(exp), fld)
        s = self.lebesgue[tag]
        if s == 2.0:
            return g.l2()
        return lebesgue_norm(g, s)

    def _parseval_weights(self, tag: str, eigs: list, exps) -> list:
        """Per subspace, the (half-spectrum modes, exponents) matrix of
        |eig^exp|^2, with the interior half-spectrum columns counted twice
        for the conjugate modes they stand for."""
        key = (tag, len(eigs), tuple(exps))
        if key not in self._parseval:
            cols = parseval_columns(self.grid)
            self._parseval[key] = [
                np.stack([(power_weight(eig, x) ** 2 * cols).reshape(-1)
                          for x in exps], axis=1)
                for eig in eigs]
        return self._parseval[key]

    def node_norms(self, tag: str, half: np.ndarray, exps) -> np.ndarray:
        """||op^exp field|| at every node for every exponent, shape
        (exponents, nodes), from the stacked half-spectrum coefficients
        (nodes, comp, *half) of real fields.

        For s = 2 the norms are one Parseval reduction of the per-mode
        energies re^2 + im^2 of each invariant subspace, split once, one
        (1 x modes) product per node, so a node's bits do not depend on the
        row count; other s take power_coeffs and one batched inverse
        transform per exponent."""
        op, s, grid = self.ops[tag], self.lebesgue[tag], self.grid
        if s == 2.0:
            eigs = eig_families(op, half.shape[1])
            kap, ksq = projector_symbols(grid)
            if op.kind is OperatorKind.STOKES or len(eigs) == 2:
                # |perp|^2 = |k x c|^2 / |k|^2 and, for the second family of
                # the elliptic generator, |para|^2 = |k . c|^2 / |k|^2; at
                # k = 0 the whole coefficient belongs to the first family
                comps = np.moveaxis(half, 1, 0)
                zero = (Ellipsis,) + _zero_index(grid)
                perp = np.sum(_energies(cross(comps, tuple(kap))), axis=0) / ksq
                perp[zero] = np.sum(_energies(half[zero]), axis=1)
                parts = [perp]
                if len(eigs) == 2:
                    parts.append(_energies(sum(kap[a] * comps[a] for a in range(grid.dim))) / ksq)
            else:
                parts = [np.sum(_energies(half), axis=1)]
            total = sum(np.matmul(e.reshape(len(e), 1, -1), w)[:, 0] for e, w in
                        zip(parts, self._parseval_weights(tag, eigs, exps)))
            return np.sqrt(grid.volume * total).T
        out = []
        for x in exps:
            vals = irfft_half(grid, power_coeffs(op.with_power(x), half))
            mag = np.sum(vals * vals, axis=1).reshape(len(half), -1)
            out.append((np.sum(mag ** (s / 2.0), axis=1) * grid.cell_volume) ** (1.0 / s))
        return np.array(out)

    def weighted_curve(self, tag: str, half: np.ndarray, times: np.ndarray,
                       exp) -> np.ndarray:
        """t^(exp - base) ||op^exp field(t)|| at every node (zero weight at t=0
        when exp > base) of node-stacked half spectra (nodes, comp, *half); a
        sequence of exponents gives one curve per exponent, stacked."""
        exps = np.atleast_1d(exp)
        vals = self.node_norms(tag, half, exps)
        base = self.base[tag]
        curves = np.stack([time_weight(times, x - base) for x in exps]) * vals
        return curves if np.ndim(exp) else curves[0]

    def iteration_table(self, traj: TrajectoryState) -> dict:
        """Weighted-norm curves for all nine exponents of one iterate."""
        out = {}
        for tag, half in traj.coeffs.items():
            curves = self.weighted_curve(tag, half, traj.times, self.exps[tag])
            out.update(((tag, exp), c) for exp, c in zip(self.exps[tag], curves))
        return out

    def difference(self, a: TrajectoryState, b: TrajectoryState) -> dict:
        """Sup over nodes of the weighted norms of the iterate difference."""
        out = {}
        for tag in TAGS:
            diff = a.coeffs[tag] - b.coeffs[tag]
            curves = self.weighted_curve(tag, diff, a.times, self.exps[tag])
            out.update(((tag, exp), float(np.max(c)))
                       for exp, c in zip(self.exps[tag], curves))
        return out


# ---------------------------------------------------------------------------
# Picard driver


@dataclass
class IterationRecord:
    m: int
    diffs: dict
    total: float
    ratio: float | None


@dataclass
class ConvergenceReport:
    converged: bool = False
    diverged: bool = False
    iterations: list = field(default_factory=list)
    iterate_norms: list = field(default_factory=list)  # per-m weighted-norm tables
    tstar: float | None = None
    horizon: float | None = None
    notes: list = field(default_factory=list)

    @property
    def ratios(self) -> list:
        return [rec.ratio for rec in self.iterations if rec.ratio is not None]


def picard_solve(start: TrajectoryState, cfg: ExponentConfig, params: CouplingParams,
                 f: ForcingSpec, g: ForcingSpec, pic: PicardConfig,
                 constants=None, times: np.ndarray | None = None,
                 record_norms: bool = False) -> tuple:
    """Iterate the integral-equation map from the one-node start state until
    the weighted-norm difference of consecutive iterates drops below tol.
    times are elapsed since the start (pic.node_grid() by default); the
    trajectory's times are absolute.  A start at t = 0 is initial data and
    must meet its preconditions; a later state carries the mean modes the
    dynamics generate.

    Returns (trajectory, ConvergenceReport).  Non-contraction (ratio >= 1 for
    three consecutive sweeps) stops early with the partial state flagged."""
    if not cfg.has_intermediates:
        raise ConfigurationError("picard_solve needs a completed exponent config")
    if times is None:
        times = pic.node_grid()
    norms = WeightedNorms(cfg, start.grid, params)
    report = ConvergenceReport(horizon=float(times[-1]))
    if constants is not None:
        from .kmbounds import local_horizon
        hres = local_horizon(start, cfg, params, constants, times, f, g)
        report.tstar = hres.tstar
        if hres.tstar is None:
            report.notes.append("no admissible contraction horizon at the smallest "
                                "sample (degenerate horizon); proceeding")
        elif float(times[-1]) > hres.tstar + 1e-12:
            report.notes.append(f"horizon {float(times[-1]):.4g} exceeds estimated "
                                f"contraction horizon T*={hres.tstar:.4g}; proceeding")

    prop = window_propagator(start.grid, params, times)
    traj = initial_trajectory(start, times, params, strict=float(start.times[0]) == 0.0)
    if record_norms:
        report.iterate_norms.append(norms.iteration_table(traj))
    prev_total = None
    bad_streak = 0
    for m in range(1, pic.m_max + 1):
        new = picard_step(traj, params, f, g, linear_only=pic.linear_only,
                          propagator=prop)
        diffs = norms.difference(new, traj)
        total = max(diffs.values()) if diffs else 0.0
        ratio = None if prev_total in (None, 0.0) else total / prev_total
        report.iterations.append(IterationRecord(m, diffs, total, ratio))
        if record_norms:
            report.iterate_norms.append(norms.iteration_table(new))
        traj = new
        if total < pic.tol:
            report.converged = True
            break
        if ratio is not None and ratio >= 1.0:
            bad_streak += 1
            if bad_streak >= 3:
                report.diverged = True
                report.notes.append(
                    f"difference ratio >= 1 for {bad_streak} consecutive sweeps")
                break
        else:
            bad_streak = 0
        prev_total = total
    return replace(traj, times=traj.times + start.times[0]), report


def duhamel_residual(traj: TrajectoryState, params: CouplingParams,
                     f: ForcingSpec = ForcingSpec(), g: ForcingSpec = ForcingSpec(),
                     linear_only: bool = False) -> dict:
    """Independent check that the trajectory solves the integral equations
    whose nonlinearity has forcing f, g (zero by default).

    Recomputes the Duhamel integral of the trajectory's RHS with cubic (rather
    than linear) interpolation of the integrand; the L2 mismatch per node
    measures the distance from a refined quadrature and shrinks at second
    order in the node spacing.  Both the integral and the free evolution start
    at the first node: by the semigroup property, a trajectory joined from
    windows or resumed at t0 > 0 is one mild solution from that node.
    """
    from scipy.interpolate import CubicSpline

    times = traj.times
    rhs = node_rhs(traj, params, f, g, linear_only)
    out = {}
    for (tag, half), op in zip(traj.coeffs.items(), generators(traj.grid, params)):
        acc = 0.0
        for eig, part in subspaces(op, rhs[tag]):
            cs = CubicSpline(times, part.reshape(len(times), -1), axis=0).c  # (4, nodes-1, flat)
            eig_flat = np.broadcast_to(eig, part.shape[1:]).reshape(-1)
            run = np.zeros(cs.shape[2], dtype=np.complex128)
            vals = [run]
            for j in range(len(times) - 1):
                h = float(times[j + 1] - times[j])
                w = cubic_weights(eig_flat, h)
                seg = (w[0] * cs[3, j] + w[1] * cs[2, j]
                       + w[2] * cs[1, j] + w[3] * cs[0, j])
                run = np.exp(-h * eig_flat) * run + seg
                vals.append(run)
            acc = acc + np.stack(vals)
        refined = _free_evolution(op, half[0], times - times[0]) + acc.reshape(half.shape)
        out[tag] = parseval_l2(traj.grid, half - refined)
    return out


# ---------------------------------------------------------------------------
# Windowed global march with decay monitoring


@dataclass
class GlobalResult:
    log: dict                      # node_log of the run, the windows joined
    ledger: object                 # the run's energy ledger, an analysis.EnergyLog
    reports: list
    end: TrajectoryState           # the last node, the state a resume starts from
    e_sup: dict                    # (tag, exp) -> running sup (the E functions)
    e_bound: float | None = None   # small-data self-consistency threshold
    bound_crossed: bool = False
    completed: bool = True


def node_log(traj: TrajectoryState, norms: WeightedNorms) -> dict:
    """Per-node scalars: "t", each field's L2 norm by tag (l2_norms) and its norms at the
    tracked and the base exponents by (tag, exp), one node_norms call each (a column's bits
    depend on its call's columns, not on its rows, so the logs of windows join)."""
    log = {"t": traj.times, **traj.l2_norms()}
    for tag, half in traj.coeffs.items():
        for exps in (norms.exps[tag], [norms.base[tag]]):
            log.update(zip([(tag, x) for x in exps], norms.node_norms(tag, half, exps)))
    return log


def _join(parts: list) -> dict:
    """Consecutive windows' per-node arrays, keyed alike, joined at their
    shared end nodes; other values are the first window's."""
    return {key: np.concatenate([first] + [p[key][1:] for p in parts[1:]])
            if isinstance(first, np.ndarray) else first for key, first in parts[0].items()}


def first_window(pic: PicardConfig, t0: float) -> int:
    """Index of the window of the march from t = 0 that a march from t0
    runs first: the one t0 lies in, or the next when t0 ends a window."""
    return int(math.floor(t0 / pic.horizon + 1e-9))


def window_horizons(pic: PicardConfig, t_total: float, t0: float = 0.0) -> list:
    """Horizons of the windows that march from t0 to t_total: those of the
    march from t = 0, from the window that starts at t0 on, so that a march
    resumed at a window's end repeats the uninterrupted one.  A t0 inside a
    window first runs to that window's end.  The list is empty when t0 already reaches t_total."""
    h = pic.horizon
    n_windows = int(math.ceil(t_total / h - 1e-12))
    first = first_window(pic, t0)
    out = [min(h, t_total - w * h) for w in range(first, n_windows)]
    if out and t0 - first * h > 1e-9 * h:
        out[0] -= t0 - first * h
    return out if out and out[0] > 1e-9 * h else []


def global_solve(start: TrajectoryState, cfg: ExponentConfig, params: CouplingParams,
                 f: ForcingSpec, g: ForcingSpec, pic: PicardConfig,
                 t_total: float, constants=None, checkpoint_hook=None) -> GlobalResult:
    """March windows of picard_solve from the one-node start state to
    t_total, each window from the last node of the one before, and log the
    decay-weighted sup functions along the way.

    Node times are absolute.  checkpoint_hook(w, traj) receives each
    converged window.  Each window, an unconverged last one too, is reduced
    to its node_log and energy ledger when it ends and then dropped, so the
    march holds one window's arrays at a time."""
    from .analysis import EnergyLog, energy_report

    if not cfg.has_lambdas:
        raise ConfigurationError("global_solve needs the decay-rate chain")
    t0 = float(start.times[0])
    horizons = window_horizons(pic, t_total, t0)
    if not horizons:
        raise ConfigurationError(f"t_total {t_total:g} must exceed the start time {t0:g}")
    norms = WeightedNorms(cfg, start.grid, params)
    logs, ledgers, reports, end = [], [], [], start
    for w, horizon in enumerate(horizons):
        traj, rep = picard_solve(end, cfg, params, f, g, pic,
                                 constants=constants if w == 0 else None,
                                 times=pic.node_grid(horizon=horizon))
        reports.append(rep)
        logs.append(node_log(traj, norms))
        ledgers.append(vars(energy_report(traj, params, f, g)))
        end = traj.end_state()
        if not rep.converged:
            break
        if checkpoint_hook is not None:
            checkpoint_hook(w, traj)
        del traj                    # the window's arrays go before the next one

    log = _join(logs)
    t = log["t"]
    e_sup = {(tag, x): np.maximum.accumulate(
        time_weight(np.minimum(t, 1.0), x - norms.base[tag]) * log[(tag, x)]
        * np.exp((cfg.lam2 if tag == "th" else cfg.lam) * t))
        for tag in TAGS for x in norms.exps[tag]}

    result = GlobalResult(log=log, ledger=EnergyLog(**_join(ledgers)), reports=reports,
                          end=end, e_sup=e_sup, completed=all(rep.converged for rep in reports))
    if constants is not None:
        from .kmbounds import contraction_coefficients
        cg = max(contraction_coefficients(cfg, params, constants, start.grid, f, g))
        d0 = sum(float(norms.node_norms(tag, half, [norms.base[tag]])[0, 0])
                 for tag, half in start.coeffs.items())
        if 4.0 * cg * cg * d0 < 1.0:
            result.e_bound = 2.0 * cg * d0
            emax = max(float(np.max(s)) for s in e_sup.values())
            result.bound_crossed = emax > result.e_bound
    return result
