"""Classical Calogero-Moser dynamics: eigenvalue solutions, Lax diagnostics,
scattering fits, and an RK4 reference integrator whose fixed-step loop also
drives the single-mode oracle ``dynamics.ode_evolve``. It steps Python
complex scalars, with one pair-force kernel for both systems (``_rk4_path``).

Complex positions, momenta, coupling and frequency are supported throughout.
The regime is read off the sign of omega^2: positive (harmonic), negative
(hyperbolic), zero (isolated). The eigenvalue solution only involves
cos(omega t) and sin(omega t)/omega, both entire in omega^2, so no branch
choice is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, starmap
from operator import sub

import numpy as np

DELTA_COLLIDE = 1e-6


class CollisionError(RuntimeError):
    """Particles approached within DELTA_COLLIDE."""


@dataclass(frozen=True)
class CMSystem:
    """n-body Calogero-Moser data: positions, momenta, coupling, frequency."""

    q0: np.ndarray
    p0: np.ndarray
    g: complex
    omega: complex = 0j

    @staticmethod
    def make(q0, p0, g, omega=0.0):
        q0 = np.array(q0, dtype=complex).reshape(-1)
        p0 = np.array(p0, dtype=complex).reshape(-1)
        if q0.size != p0.size:
            raise ValueError("positions and momenta must have equal length")
        if q0.size < 1:
            raise ValueError("at least one particle required")
        _require_distinct(q0, "initial positions closer than DELTA_COLLIDE")
        q0.setflags(write=False)
        p0.setflags(write=False)
        return CMSystem(q0, p0, complex(g), complex(omega))

    @property
    def n(self):
        return self.q0.size


@dataclass(frozen=True)
class LaxPair:
    """Lax matrices at a phase-space point.

    For omega = 0 the spectrum of L is conserved along trajectories. For
    omega != 0 the plain L-spectrum rotates; the conserved set is the
    spectrum of (L + i omega Q)(L - i omega Q), see ``conserved_spectrum``.
    """

    L: np.ndarray
    M: np.ndarray


@dataclass(frozen=True)
class ScatteringResult:
    """Permutation and asymptotic line fits of an isolated scattering process.

    ``permutation[k] = j`` means the outgoing line of trajectory k coincides
    with the incoming line of trajectory j. ``horizon`` is the (possibly
    auto-extended) fit time actually used.
    """

    permutation: tuple
    p_in: np.ndarray
    q_in: np.ndarray
    p_out: np.ndarray
    q_out: np.ndarray
    residual: float
    horizon: float


def _min_separation(q):
    n = q.size
    if n < 2:
        return np.inf
    d = np.abs(np.subtract.outer(q, q)).ravel()
    d[:: n + 1] = np.inf
    return float(d.min())


def _require_distinct(q, message):
    """Raise CollisionError(message) if two of the positions q are within DELTA_COLLIDE."""
    if _min_separation(q) < DELTA_COLLIDE:
        raise CollisionError(message)


def _cauchy(q, scale=1.0, diagonal=0j):
    """The pair terms scale / (q_j - q_k) of distinct positions q, ``diagonal``
    on the diagonal: the Lax matrix L with scale i g and diagonal p."""
    d = np.subtract.outer(q, q)
    out = np.divide(scale, d, out=np.zeros(d.shape, dtype=complex), where=d != 0)
    np.fill_diagonal(out, diagonal)
    return out


def lax_matrices(q, p, g):
    """Lax pair (L, M) at a phase-space point; distinct positions required.
    M = g / (q_j - q_k)^2 summed on the diagonal, and its negative off it."""
    q = np.asarray(q, dtype=complex).reshape(-1)
    p = np.asarray(p, dtype=complex).reshape(-1)
    _require_distinct(q, "coincident positions in lax_matrices")
    M = -g * _cauchy(q) ** 2
    np.fill_diagonal(M, -M.sum(axis=1))
    return LaxPair(_cauchy(q, 1j * g, p), M)


def conserved_spectrum(q, p, g, omega=0.0):
    """Sorted spectrum of the regime-appropriate conserved Lax quantity.

    Eigenvalues of L when omega = 0, else of (L + i omega Q)(L - i omega Q);
    both are constant along trajectories in their regime.
    """
    L = lax_matrices(q, p, g).L
    if omega == 0:
        return np.sort_complex(np.linalg.eigvals(L))
    Q = np.diag(np.asarray(q, dtype=complex))
    B = (L + 1j * omega * Q) @ (L - 1j * omega * Q)
    return np.sort_complex(np.linalg.eigvals(B))


def _propagator(w2, t):
    """(cos(omega t), sin(omega t)/omega) at the times t, entire in w2 = omega^2.

    A float t (one gate) takes the scalar cmath functions, which give the
    values of numpy's without its per-call cost."""
    if w2 == 0:
        return 1.0 + 0.0 * t, t
    w = cmath.sqrt(w2)
    if isinstance(t, float):
        return cmath.cos(w * t), cmath.sin(w * t) / w
    return np.cos(w * t), np.sin(w * t) / w


def cm_solve(system, t):
    """Positions at time t as eigenvalues of the propagated Lax matrix.

    The eigenvalues come back as an unordered set; use ``cm_solve_path`` for
    continuously labeled trajectories.
    """
    fc, fs = _propagator(system.omega**2, t)
    L0 = _cauchy(system.q0, 1j * system.g, system.p0)
    lam = np.diag(system.q0) * fc + L0 * fs
    return np.linalg.eigvals(lam)


# times per batched eigen-solve: the stack of propagated Lax matrices holds
# _PATH_BLOCK n^2 entries however long the grid is
_PATH_BLOCK = 256


def cm_solve_path(system, times):
    """Continuous trajectories on a grid of times, shape (n, len(times)).

    The propagated Lax matrices of a block of times are diagonalised in one
    batched call. Each step labels its eigenvalues by nearest neighbour: every
    position of the previous step takes the eigenvalue closest to it. When
    those choices form a permutation, each position gets its cheapest partner,
    so no assignment costs less: the labels are the minimal-cost assignment
    (squared distances). A step where two positions claim one eigenvalue, or
    where a cost is not finite, falls back to
    ``scipy.optimize.linear_sum_assignment``, which rejects NaN costs. The grid
    must be fine enough that particles move less than half their minimal gap
    between samples; the fallback then never runs.

    Row k continues the particle at q0[k]: a grid of two or more times that
    does not start at t = 0 is reached by a uniform walk from 0 to times[0],
    at the grid's first spacing or finer, labelled the same way. A one-point
    grid has no spacing to walk at: its one column is the minimal-cost match to
    q0, so its rows are a set of positions.
    """
    times = np.asarray(times, dtype=float)
    n = system.n
    L0 = _cauchy(system.q0, 1j * system.g, system.p0)
    Q0 = np.diag(system.q0)
    w2 = system.omega**2
    # the labelled positions of the previous step are last[perm]
    last, perm = system.q0, list(range(n))
    if times.size > 1 and times[0] != 0 and times[1] != times[0]:
        steps = math.ceil(abs(times[0] / (times[1] - times[0])))
        for lo in range(1, steps, _PATH_BLOCK):
            walk = times[0] * np.arange(lo, min(lo + _PATH_BLOCK, steps)) / steps
            _, last, perm = _label_block(Q0, L0, *_propagator(w2, walk), last, perm)
    fcs, fss = _propagator(w2, times)
    out = np.empty((n, times.size), dtype=complex)
    for lo in range(0, times.size, _PATH_BLOCK):
        block = slice(lo, lo + _PATH_BLOCK)
        rows, last, perm = _label_block(Q0, L0, fcs[block], fss[block], last, perm)
        out[:, block] = rows.T
    return out


def _label_block(Q0, L0, fc, fs, last, perm):
    """Eigenvalues of Q0 fc[i] + L0 fs[i] for a block of times, one row per
    time, labelled step by step (``cm_solve_path``) on from the positions
    last[perm]; returned with the (last, perm) of the block's final time."""
    vals = np.linalg.eigvals(Q0 * fc[:, None, None] + L0 * fs[:, None, None])
    refs = np.concatenate((last[None], vals[:-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # such steps fall back
        cost = np.abs(refs[:, :, None] - vals[:, None, :]) ** 2
    nearest = cost.argmin(axis=2)
    ok = (np.sort(nearest, axis=1) == np.arange(len(last))).all(axis=1)
    ok &= np.isfinite(cost).all(axis=(1, 2))
    perms = []
    for i, (row, simple) in enumerate(zip(nearest.tolist(), ok.tolist())):
        perm = [row[k] for k in perm] if simple else _match_order(cost[i, perm]).tolist()
        perms.append(perm)
    return np.take_along_axis(vals, np.array(perms), axis=1), vals[-1], perm


def _match_order(cost):
    """Column of each row in the minimal-cost assignment of a square cost matrix."""
    # imported on use: scipy.optimize adds about 43 MB ru_maxrss to an hqcsim process
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment(cost)[1]


def _pair_forces(q, g2):
    """Forces 2 g2 sum_{j != k} (q_k - q_j)^-3 on the positions q (Python
    complex scalars), as a list; each pair is visited once, its two terms
    being opposite."""
    g2, f = 2.0 * g2, [0j] * len(q)
    for k in range(1, len(q)):
        qk, acc = q[k], 0j
        for j in range(k):
            d = qk - q[j]
            c = g2 / (d * d * d)
            acc += c
            f[j] -= c
        f[k] = acc
    return f


def _cm_derivative(system):
    """d(q, p)/dt of ``system`` as a function of the list y = q + p."""
    n, g2, w2 = system.n, system.g**2, system.omega**2

    def deriv(y):
        q = y[:n]
        return y[n:] + [f - w2 * x for x, f in zip(q, _pair_forces(q, g2))]

    return deriv


def _rk4_path(deriv, y0, h, steps, positions, admissible=None):
    """Fixed-step RK4 states y(0), y(h), ..., y(steps h); shape (steps + 1, len(y0)).

    ``deriv`` maps the state, a list of Python complex scalars, to the list of
    its derivatives: on a few values their arithmetic costs far less than
    numpy's per-call overhead. The O(n^2) pair sums then run in Python, ahead
    of numpy up to n of about 8 particles and behind above (1.4-1.6 times
    slower at n = 12, 2.0-2.3 at n = 16).

    Every step must stay finite (and pass ``admissible(y)`` when given), else
    RuntimeError; particles at ``y[positions]`` closer than DELTA_COLLIDE
    raise CollisionError.
    """
    y = np.asarray(y0, dtype=complex).tolist()
    ys = [y]
    hh, h6 = 0.5 * h, h / 6.0
    for i in range(1, steps + 1):
        try:
            k1 = deriv(y)
            k2 = deriv([u + hh * k for u, k in zip(y, k1)])
            k3 = deriv([u + hh * k for u, k in zip(y, k2)])
            k4 = deriv([u + h * k for u, k in zip(y, k3)])
            # b + b is 2 b to the bit, without the int-to-complex product
            y = [u + h6 * (a + (b + b) + (c + c) + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
            stable = all(map(cmath.isfinite, y)) and (not admissible or admissible(y))
            sep = min(map(abs, starmap(sub, combinations(y[positions], 2))), default=math.inf)
        except ArithmeticError:  # a zero distance or an overflow: numpy's inf or nan
            stable = False
        if not stable:
            raise RuntimeError(f"integration unstable at t={i * h:.6g}; reduce dt")
        if sep < DELTA_COLLIDE:
            raise CollisionError(
                f"particles collided at t={i * h:.6g} (min separation {sep:.3e})"
            )
        ys.append(y)
    return np.array(ys, dtype=complex)


def cm_ode_path(system, t, dt):
    """RK4 reference integration; returns (times, q path, p path)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = max(1, int(round(abs(t) / dt)))
    n = system.n
    y0 = np.concatenate([system.q0, system.p0]).astype(complex)
    ys = _rk4_path(_cm_derivative(system), y0, t / steps, steps, slice(0, n))
    return np.linspace(0.0, t, steps + 1), ys[:, :n].T, ys[:, n:].T


def cm_ode(system, t, dt):
    """Positions at time t from the RK4 reference route."""
    _, qs, _ = cm_ode_path(system, t, dt)
    return qs[:, -1]


def _fit_lines(system, t_lo, t_hi, samples=60):
    """Least-squares linear fits q_k(t) ~ p_k t + q_k over [t_lo, t_hi]."""
    ts = np.linspace(t_lo, t_hi, samples)
    path = cm_solve_path(system, ts)
    design = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(design, path.T, rcond=None)
    fitted = design @ coef
    resid = float(np.max(np.abs(fitted - path.T)))
    return coef[0], coef[1], resid  # momenta, offsets, fit residual


def scattering_permutation(system, T, max_doublings=12):
    """Asymptotic scattering data of an isolated system.

    T is grown automatically until the pairwise interaction is below the fit
    tolerance. Returns the trajectory permutation between incoming and
    outgoing asymptotic lines, with the fitted momenta and offsets.
    """
    if abs(system.omega) > 1e-12:
        raise ValueError("scattering analysis requires the isolated regime (omega = 0)")
    T = float(T)
    for _ in range(max_doublings + 1):
        q_far = cm_solve_path(system, [-T, T])
        gap = min(_min_separation(q_far[:, 0]), _min_separation(q_far[:, 1]))
        pscale = max(float(np.max(np.abs(system.p0))), 1e-9)
        tol = 1e-4 * pscale * T
        # interaction force scale over the fit window must be negligible
        if abs(system.g) ** 2 / max(gap, 1e-12) ** 3 * T**2 < 0.1 * tol:
            break
        T *= 2.0
    p_out, q_out, r1 = _fit_lines(system, 0.8 * T, T)
    p_in, q_in, r2 = _fit_lines(system, -T, -0.8 * T)
    residual = max(r1, r2)
    if residual > tol:
        raise RuntimeError(
            f"asymptotic fit residual {residual:.3e} above tolerance {tol:.3e}; "
            "increase T"
        )
    cols = _match_order(
        np.abs(p_out[:, None] - p_in[None, :]) ** 2
        + np.abs(q_out[:, None] - q_in[None, :]) ** 2 / max(T, 1.0) ** 2
    )
    mismatch = float(np.max(np.abs(p_out - p_in[cols])))
    if mismatch > tol:
        raise RuntimeError(
            f"asymptotic momenta mismatch {mismatch:.3e} above tolerance {tol:.3e}"
        )
    return ScatteringResult(
        tuple(int(c) for c in cols), p_in, q_in, p_out, q_out, residual, T
    )
