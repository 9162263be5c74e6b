"""Measurement rules: heterodyne (continuous) and Fock (discrete) sampling,
post-measurement projections, permanents, and transition probabilities.

Outcome convention: continuous outcomes follow physical heterodyne detection,
i.e. the outcome alpha is distributed by the Husimi density
exp(-|alpha|^2) |F(alpha*)|^2 / pi^m and the post-measurement state fixes the
measured variables at the conjugated outcomes. Every sampler runs the shot
engine of ``circuits``: modes are measured one at a time, and shot i draws
from its own counter-based substream, so its outcomes do not depend on how
many shots are made. Each measured mode's outcome has a per-mode law of the
state conditioned on the outcomes before it, ``_FockLaw`` for a photon count
and ``_RejectionPlan`` for a heterodyne outcome. Both offer ``draw(rng)``, the
outcome, its mass (density) and the proposal points tried, and
``project(value, mass)``, the normalized rest-mode state after that outcome
(or the amplitude when no mode is left). A heterodyne draw is by rejection
from an inflated Gaussian fitted to the Gaussian part of the state. The
target density of a measured mode, with other modes left or none, is the
Bargmann norm of the coherent projection, in closed form: each plan fills one
mean-zero Wick table, and each outcome Taylor-shifts its polynomial by the
outcome's mean and contracts it with that table; every target is computed in
the log domain and exponentiated once. The envelope is proven, not estimated
(``_RejectionPlan``), so the draws are exact; acceptance falls with the
stellar rank, and below MIN_ACCEPT_RATE the sampler raises. A target that is
NaN or exceeds the envelope raises RuntimeError instead of biasing the sample.

A photon count is drawn by inverting the CDF of the masses (norms^2) of the
mode's Fock projections. Where the Gaussian part is zero (A = 0, B = 0), as
for a Fock input after passive gates, the stellar function is a polynomial
P = sum_n p_n z^n, the finite superposition sum_n p_n sqrt(n!) e^C |n>: the
Fock basis rule. Projection n of mode k is then sqrt(n!) times the z_k^n
coefficient of P, and its mass is e^{2 Re C} sum |p|^2 n! over its
monomials, with no derivative sweep and no Wick table.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gates import Passive, Squeeze
from .multimode import apply_gate
from .states import (
    NORM_TOL,
    GaussPart,
    PolyPart,
    StellarState,
    _add_linear,
    _bargmann_kernel,
    _closed_index,
    _kept,
    _section,
    _section_poly,
    _taylor_shifted,
    _wick_moments,
    _wick_table,
    norm_squared,
    poly_coeffs_1m,
    to_fock_array,
)

RYSER_LIMIT = 20
PROPOSAL_INFLATION = 1.5
MAX_TRIES = 20000  # proposal points per draw before the sampler gives up
MIN_ACCEPT_RATE = 1e-3


@dataclass(frozen=True)
class ContinuousOutcome:
    alphas: tuple


@dataclass(frozen=True)
class DiscreteOutcome:
    ns: tuple


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    shots: int = 1
    cutoff: int = 30


def shot_rng(seed, shot):
    """Counter-based generator for one shot: its draws do not depend on which
    other shots run, or in what order."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(shot)])
    return np.random.Generator(np.random.Philox(key=key))


def require_normalized(state):
    ns = norm_squared(state)
    if abs(ns - 1.0) > NORM_TOL:
        raise ValueError(f"operation requires a normalized state; norm^2 = {ns!r}")
    return state


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_coherent(state, modes, alphas):
    """Project the given modes onto coherent states |alpha_k>.

    Returns the unnormalized remaining-mode state with stellar function
    exp(-|alpha|^2/2) F(alpha*, z_rest); projecting every mode returns the
    complex amplitude instead. The stellar rank never increases.
    """
    modes = [int(k) for k in modes]
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if len(modes) != alphas.size:
        raise ValueError("one outcome per projected mode required")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode in projection")
    if any(not 0 <= k < state.modes for k in modes):
        raise ValueError("mode index out of range")
    w = np.conj(alphas)
    rest = [k for k in range(state.modes) if k not in modes]
    g = state.gauss
    I = modes
    prefpart = -0.5 * float(np.sum(np.abs(alphas) ** 2))
    const = g.C + g.B[I] @ w - 0.5 * w @ g.A[np.ix_(I, I)] @ w + prefpart
    # polynomial with measured slots evaluated at w
    new_coeffs = {}
    for idx, c in state.poly.coeffs.items():
        factor = c
        for pos, k in enumerate(I):
            if idx[k]:
                factor = factor * w[pos] ** idx[k]
        new_idx = tuple(idx[k] for k in rest)
        new_coeffs[new_idx] = new_coeffs.get(new_idx, 0) + factor
    if not rest:
        total = sum(new_coeffs.values())
        return complex(total * np.exp(const))
    B_rest = g.B[rest] - g.A[np.ix_(rest, I)] @ w
    poly = PolyPart.make(new_coeffs, modes=len(rest)).pruned()
    return StellarState.make(len(rest), poly, _rest_gauss(g, rest, B_rest, const))


def _rest_gauss(g, rest, B_rest, C):
    """GaussPart of the modes ``rest``: a submatrix of the symmetric A, so it
    is built directly, with no re-symmetrisation."""
    A_rest = g.A[np.ix_(rest, rest)]
    B_rest = np.asarray(B_rest, dtype=complex)
    for arr in (A_rest, B_rest):
        arr.setflags(write=False)
    return GaussPart(A_rest, B_rest, complex(C))


def project_fock(state, mode, n):
    """Project one mode onto |n>: (1/sqrt(n!)) d^n/dz^n F at z_mode = 0, entry n of
    ``_fock_projections`` (the remaining-mode polynomial degree grows by at most n;
    projecting the last mode returns the complex amplitude)."""
    return _fock_projections(state, mode, n)[int(n)]


def fock_amplitude(state, pattern):
    """<n|psi> for the photon counts n = ``pattern``, one per mode: mode 0 is
    projected onto |n_0> by ``project_fock``, then each following mode of what
    is left, down to the complex amplitude. Exact, with no truncation: the
    cost grows with |n|, not with a cutoff.
    """
    if len(pattern) != state.modes:
        raise ValueError(f"{len(pattern)} photon counts for {state.modes} modes")
    for n in pattern:
        state = project_fock(state, 0, n)
    return state


def _fock_projections(state, mode, nmax):
    """``project_fock(state, mode, n)`` for n = 0..nmax: the last mode's amplitudes
    (``_last_mode_amplitudes``), else the rows of one sweep (``_FockRows``). With
    F = P exp(E) and l = dE/dz_k = B_k - (A z)_k, d^n F = P_n exp(E) with
    P_{n+1} = dP_n/dz_k + l P_n: one step per n on P_n / sqrt(n!), held as a section
    array (``states._section``) with z_k^p rows up to p = nmax - n (higher powers do
    not reach z_k = 0 in the steps left), graded in the other modes that l couples
    and fixed in the rest. Projection n is its row 0 times the rest-mode Gaussian;
    once P_n is exactly zero (the step is linear), the sweep stops there. With l = 0
    (row k of A and B_k zero, as for a Fock input after passive gates) there is no
    sweep: P_n = d^n P / sqrt(n!), so projection n is sqrt(n!) Q_n for the section
    rows Q_n of P, and the rows end after the first n past the last nonzero Q_n."""
    mode, nmax = int(mode), int(nmax)
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if nmax < 0:
        raise ValueError("photon number must be non-negative")
    g, m = state.gauss, state.modes
    if m == 1:
        return _last_mode_amplitudes(state, nmax)
    rest = [k for k in range(m) if k != mode]
    ell = (-g.A[mode]).tolist()  # l = B_k + sum_j ell_j z_j
    coupled = [j for j in rest if ell[j]]
    # a variable in l gains at most one degree per step: z_k's powers, capped
    # at nmax, and the total degree of the coupled other modes
    coeffs = state.poly.coeffs
    dk = max((n[mode] for n in coeffs), default=0)
    deg = max((sum(n[j] for j in coupled) for n in coeffs), default=0) if coupled else 0
    P, layout = _section(state, mode, min(dk + nmax * (ell[mode] != 0), nmax),
                         coupled, deg + nmax)
    if any(ell) or g.B[mode]:
        down = np.arange(1, P.shape[0])[:, None]
        rows = np.empty((nmax + 1, layout.width), dtype=complex)
        for n in range(nmax + 1):
            if n:
                P = P[:nmax - n + 2]  # row p of P_n needs rows up to p + 1
                step = g.B[mode] * P
                step[:-1] += down[:len(P) - 1] * P[1:]
                _add_linear(step, P, ell, layout)
                P = step / math.sqrt(n)
            rows[n] = P[0]
            if not P.any():
                break
        rows = rows[:n + 1]
    else:  # l = 0: P_n = d^n P / sqrt(n!), whose row 0 is sqrt(n!) Q_n
        last = max(np.flatnonzero(P.any(axis=1)), default=-1)
        rows = np.zeros((min(last + 1, nmax) + 1, layout.width), dtype=complex)
        scale = np.cumprod(np.sqrt(np.arange(1.0, last + 1)))  # sqrt(n!) in floats
        rows[:last + 1] = P[:last + 1] * np.concatenate(([1.0], scale))[:, None]
    return _FockRows(rows, layout, _rest_gauss(g, rest, g.B[rest], g.C))


class _FockRows:
    """A fill with modes left: projection n's section row ``rows[n]`` and state ``fill[n]``."""

    def __init__(self, rows, layout, gauss):
        self.rows, self.layout, self.gauss, self._states = rows, layout, gauss, {}

    def __getitem__(self, n):
        n = min(n, len(self.rows) - 1)  # past the row where the sweep stopped: zero
        if n not in self._states:
            poly = _section_poly(self.rows[n], self.layout)
            self._states[n] = StellarState(self.gauss.modes, poly, self.gauss)
        return self._states[n]


class _FockLaw:
    """The photon-count law of one mode of a state up to ``nmax`` photons: the fill of
    its Fock projections, their masses and CDF. Raises RuntimeError when the counts
    capture less than 1 - 1e-6 of the state's norm^2."""

    def __init__(self, state, mode, nmax):
        self.fill = _fock_projections(state, mode, nmax)
        self.masses = _fock_masses(self.fill, nmax)
        self.cdf, self.total = np.cumsum(self.masses), float(np.sum(self.masses))
        if self.total < 1.0 - 1e-6:
            raise RuntimeError(f"discrete cutoff {nmax} captures only {self.total:.9f} "
                               "of the conditional distribution")

    def draw(self, rng):
        """A count n with cdf[n - 1] <= u * total < cdf[n] for a uniform u, so never
        one of zero mass; its mass; and no proposal points."""
        u = rng.random()
        n = min(int(np.searchsorted(self.cdf, u * self.total, side="right")), len(self.cdf) - 1)
        return n, self.masses[n], 0

    def project(self, n, mass):
        """The normalized rest-mode state after count n, or its amplitude."""
        return _normalized_by(self.fill[n], mass)


def _normalized_by(proj, mass):
    """``proj`` scaled to unit norm, given its norm^2 ``mass``; amplitudes pass."""
    if isinstance(proj, complex):
        return proj
    if mass <= 0:
        raise ValueError("cannot normalize a zero-norm state")
    return proj.scaled(-0.5 * math.log(mass))


def _fock_masses(fill, nmax):
    """The norm^2 of each n = 0..nmax of a fill: |amplitude|^2, or Re(core sum conj(p) T p)
    per nonzero row p of ``_kept`` entries, T one Wick table on their monomials' down-closure.
    A fill whose rest-mode Gaussian part is zero (A = 0, B = 0) holds polynomials, so its
    masses are e^{2 Re C} sum_n |p_n|^2 n!, exactly summed over each row's monomials n.
    Relative accuracy is not promised below about 1e-12 of the largest mass (faint rows)."""
    if isinstance(fill, list):
        return np.abs(fill) ** 2
    keys, flat = fill.layout.keys(None)
    vals = np.where(_kept(fill.rows), fill.rows, 0).take(flat, axis=1)
    g, masses = fill.gauss, np.zeros(nmax + 1)
    if not (g.A.any() or g.B.any()):  # a polynomial: <z^a|z^b> = a! delta_ab
        weight = np.array([math.prod(map(math.factorial, n)) for n in keys], dtype=float)
        terms = (np.abs(vals) ** 2 * weight).tolist()
        masses[:len(terms)] = [math.exp(2.0 * g.C.real) * math.fsum(t) for t in terms]
        return masses
    live, held = vals.any(axis=1), vals.any(axis=0)
    support = tuple(itertools.compress(keys, held.tolist()))
    index = _closed_index(g.modes, support)
    p = np.zeros((np.count_nonzero(live), index.size), dtype=complex)
    p[:, [index.pos[n] for n in support]] = vals[np.ix_(live, held)]
    g.check_admissible()
    core, T = _wick_table(g, g, index, index)
    masses[np.flatnonzero(live)] = (core * np.sum((np.conj(p) @ T) * p, axis=1)).real
    return masses


def _last_mode_amplitudes(state, nmax):
    """psi_n = sqrt(n!) [z^n] P(z) exp(-a z^2/2 + b z + c), n = 0..nmax, on Python scalars:
    psi = e^c P(a^dagger) h by Horner's rule ((a^dagger h)_n = sqrt(n) h_{n-1}), where
    h_j = sqrt(j!) [z^j] exp(-a z^2/2 + b z), h_{j+1} = (b h_j - a sqrt(j) h_{j-1}) / sqrt(j+1)."""
    a, b = complex(state.gauss.A[0, 0]), complex(state.gauss.B[0])
    h, roots = [1.0 + 0j, b], [math.sqrt(j) for j in range(nmax + 1)]
    for j in range(1, nmax):
        h.append((b * h[j] - a * roots[j] * h[j - 1]) / roots[j + 1])
    h, psi = [complex(np.exp(state.gauss.C)) * x for x in h], [0j] * (nmax + 1)
    for c in reversed(poly_coeffs_1m(state)[:nmax + 1].tolist()):
        psi = [c * h[0]] + [c * h[n] + roots[n] * psi[n - 1] for n in range(1, nmax + 1)]
    return psi


# ---------------------------------------------------------------------------
# discrete (Fock) measurement
# ---------------------------------------------------------------------------

def fock_probabilities(state, cutoff, loss_tol=1e-8):
    """Outcome probabilities {n: |psi_n|^2} up to the total-degree cutoff: the
    truncated reference that the exact ``fock_amplitude`` is checked against.

    The sum of the returned map is the captured norm; a truncation loss above
    ``loss_tol`` is reported on the warning channel.
    """
    require_normalized(state)
    arr = to_fock_array(state, cutoff, warn_tail=False)
    if arr.truncation_loss > loss_tol:
        warnings.warn(
            f"fock_probabilities truncation loss {arr.truncation_loss:.3e} "
            f"exceeds {loss_tol:.1e}",
            stacklevel=2,
        )
    return {idx: float(abs(a) ** 2) for idx, a in sorted(arr.amplitudes.items())}


def _engine_run(state, kind, modes, cfg):
    """The shot engine after cfg.shots shots of one ``kind`` measurement of
    ``modes`` on ``state``, and each shot's outcome values."""
    from .circuits import _ShotEngine, measurement_circuit

    spec = measurement_circuit(state.modes, kind, modes)
    engine = _ShotEngine(spec, cfg, require_normalized(state))
    return engine, [engine.run_shot(shot)[0][0][3] for shot in range(cfg.shots)]


def sample_discrete(state, modes, cfg):
    """Photon-number outcomes on the given modes, drawn by the shot engine:
    one mode at a time from the Fock projections, with at most cfg.cutoff
    photons per mode. Deterministic given the seed: shot i uses the substream
    keyed (seed, i). Raises RuntimeError when the cutoff captures less than
    1 - 1e-6 of a mode's distribution.
    """
    _, values = _engine_run(state, "discrete", modes, cfg)
    return [DiscreteOutcome(ns) for ns in values]


# ---------------------------------------------------------------------------
# continuous (heterodyne) measurement
# ---------------------------------------------------------------------------

def _husimi_gaussian_moments(gauss):
    """Mean and covariance over (Re w, Im w) of the Gaussian-part Husimi.

    w = alpha* are the conjugated outcomes; the density is proportional to
    exp(-|w|^2 + 2 Re(-w^T A w / 2 + B^T w)), a real Gaussian in 2m variables.
    """
    m = gauss.modes
    M = np.eye(2 * m)
    M[:m, :m] += gauss.A.real
    M[m:, m:] -= gauss.A.real
    M[:m, m:] = M[m:, :m] = -gauss.A.imag
    ell = np.concatenate([2.0 * gauss.B.real, -2.0 * gauss.B.imag])
    cov0 = np.linalg.inv(2.0 * M)
    mean = cov0 @ ell
    return mean, cov0


@functools.lru_cache(maxsize=32)
def _envelope_nodes(degree):
    """The fit of ``_RejectionPlan._envelope`` for a degree: (degree + 1)^2 nodes
    u = scale (x_i, x_j) on Chebyshev points x, scaled to where u^degree
    exp(-beta u^2) peaks; V = vander(x), V^-1; the weights (i / (2 beta e
    scale^2))^(i/2) = max_x |x|^i exp(-beta scale^2 x^2); |V^-1| row sums weighted."""
    beta = 0.5 * (1.0 - 1.0 / PROPOSAL_INFLATION)
    scale = math.sqrt(max(degree, 1) / (2.0 * beta))
    x = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    U = scale * np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    V, i = np.vander(x, increasing=True), np.arange(degree + 1)
    Vinv = np.linalg.inv(V)
    weight = (i / (2.0 * beta * math.e * scale**2)) ** (i / 2)
    return U, V, Vinv, weight, np.abs(Vinv).sum(axis=1) @ weight


class _RejectionPlan:
    """Rejection sampling of one measured mode of a state, with a proven envelope.

    The proposal is N(mean, PROPOSAL_INFLATION Sigma_0), the mode's block of the
    Gaussian-part Husimi (``_husimi_gaussian_moments``). The target is
    Gamma(w) s(w): the Gaussian core Gamma (the target with P = 1) is a constant
    times N(mean, Sigma_0), and s(w) = Re c(w)^H T0 c(w) >= 0 (``log_target``,
    T0 the plan's one mean-zero Wick table) is a polynomial of degree
    D <= 2 deg P in (Re w, Im w). In whitened coordinates
    u of Sigma_0, target/proposal = f(u) exp(-beta |u|^2) with f of degree D and
    beta = (1 - 1/PROPOSAL_INFLATION) / 2. With f = sum_ij f_ij u_1^i u_2^j,
    fitted exactly on (D + 1)^2 nodes,

        log_env = log sum_ij |f_ij| (i / (2 beta e))^(i/2) (j / (2 beta e))^(j/2)

    plus the fit's rounding residual bounds the ratio everywhere, and is exact
    at rank 0. The target integrates to pi, so a point is accepted with
    probability pi exp(-log_env): 1/PROPOSAL_INFLATION at rank 0, less as the
    bound loosens with the rank; the engine raises below MIN_ACCEPT_RATE.
    """

    def __init__(self, state, mode):
        self.state, self.mode = state, int(mode)
        g, m, k = state.gauss, state.modes, self.mode
        R = [j for j in range(m) if j != k]
        self.A_RI, self.A_II = g.A[R, k], g.A[k, k]
        self.B_R, self.B_I, self.C = g.B[R], g.B[k], g.C
        self.K, roots = _bargmann_kernel(g.A[R][:, R], g.A[R][:, R])
        self.log_root = float(np.sum(np.log(roots)).real)
        # P(w, z_R) = sum_p w^p Q_p(z_R): the section in the measured variable,
        # Q_p over the moment index of the rest modes (pad column dropped)
        terms = state.poly.coeffs
        Q, layout = _section(state, k, max(n[k] for n in terms), R,
                             max(sum(n) - n[k] for n in terms))
        self.index, self.Q, self.powers = layout.index, Q[:, :-1], np.arange(len(Q))
        # the Wick table at mean zero: each target shifts its polynomial to its mean
        self.T0 = _wick_moments(np.zeros(2 * len(R)), self.K, self.index, self.index)
        mean, cov0 = _husimi_gaussian_moments(g)
        sel = [k, m + k]
        self.mean = mean[sel]
        white = np.linalg.cholesky(cov0[sel][:, sel])  # y = mean + white u
        self.chol = math.sqrt(PROPOSAL_INFLATION) * white
        # log N(y; mean, chol chol^T) = log_norm - |z|^2 / 2 at y = mean + chol z
        self.log_norm = -math.log(2 * np.pi) - float(np.sum(np.log(np.diag(self.chol))))
        self.log_env = self._envelope(white)

    def _envelope(self, white):
        """log of the coefficient bound on f(u) exp(-beta |u|^2) (see the class
        docstring), f fitted on the nodes of ``_envelope_nodes``."""
        U, V, Vinv, weight, spread = _envelope_nodes(2 * self.state.poly.degree())
        # at y = mean + white u, log proposal = log_norm - |u|^2 / (2 PROPOSAL_INFLATION),
        # so log f = log target - log proposal + beta |u|^2 = log target - log_norm + |u|^2 / 2
        log_f = (self.log_target(_y_to_w(self.mean + U @ white.T)) - self.log_norm
                 + 0.5 * np.sum(U**2, axis=1))
        top = log_f.max()
        F = np.exp(log_f - top).reshape(len(V), len(V))
        coef = Vinv @ F @ Vinv.T  # f(scale x) / e^top = sum_ij coef_ij x_1^i x_2^j
        # f minus the fit is the fit of the residual at the nodes, whose
        # coefficients are at most max |residual| times the row sums of |V^-1|
        resid = np.abs(F - V @ coef @ V.T).max()
        return float(top + math.log(weight @ np.abs(coef) @ weight + resid * spread**2))

    def log_target(self, W):
        """log of the outcome density (up to pi) at conjugated outcomes w,
        batched: W holds one point per row.

        The density is the Bargmann norm^2 of the coherent projection, in
        closed form. With modes R left after measuring mode I (R may be empty),
        B_R(w) = B_R - A_RI w, const(w) = C + B_I w - A_II w^2 / 2 - |w|^2 / 2,
        p(w) the coefficients of P(w, .) over the rest monomials,
        L = (conj B_R(w), B_R(w)) and mu = K L (``states.inner_product`` with
        s1 = s2 = the projection; K and the eigenvalue roots do not depend on w),

            log t = 2 Re const + Re(L mu) / 2 - sum_i log sqrt(1 - lambda_i)
                    + log s(w),  s(w) = sum_{a,b} conj(p_a) p_b E[u^a w^b],

        the moments taken at mean mu and covariance K. Shifted to mean zero,
        E[u^a w^b] = E0[(x + mu_u)^a (y + mu_w)^b], so s(w) = Re c^H T0 c with
        T0 the moments at mean zero, filled once per plan, and c = p(w) shifted
        by mu_w (``states._taylor_shifted``): the pairing of the projection with
        itself makes mu_u = conj(mu_w), so conj(p) shifted by mu_u is conj(c).
        With R empty, c = p(w) = P(w) and T0 = 1.
        """
        w = np.atleast_2d(W)[:, 0]
        BR = self.B_R - w[:, None] * self.A_RI
        const = self.C + self.B_I * w - 0.5 * self.A_II * w**2
        L = np.concatenate([np.conj(BR), BR], axis=1)
        mu = L @ self.K  # K is symmetric
        p = (w[:, None] ** self.powers) @ self.Q
        c = _taylor_shifted(p, mu[:, len(self.B_R):], self.index)  # shifted by mu_w
        s = np.sum((np.conj(c) @ self.T0) * c, axis=1).real
        # -inf where rounding leaves s <= 0 at a zero; NaN stays NaN
        log_s = np.log(s, out=np.full_like(s, -np.inf), where=~(s <= 0))
        return (2.0 * const.real - np.abs(w) ** 2 + 0.5 * np.einsum("ni,ni->n", L, mu).real
                - self.log_root + log_s)

    def target(self, W):
        """``log_target`` exponentiated once, so no intermediate overflows."""
        return np.exp(self.log_target(W))

    def draw(self, rng):
        """The outcome alpha = conj(y_0 + i y_1) of an accepted proposal point y,
        its target density and the points tried. Raises RuntimeError when a
        target is NaN or exceeds the envelope, since the sample would then be
        biased, or when MAX_TRIES points bring no acceptance."""
        tries = 0
        while tries < MAX_TRIES:
            batch = 32
            Z = rng.standard_normal((batch, 2))
            Y = self.mean + Z @ self.chol.T
            U = rng.random(batch)
            t = self.target(_y_to_w(Y))
            thresh = np.exp(self.log_env + self.log_norm - 0.5 * np.sum(Z**2, axis=1))
            bad = ~(t <= thresh)
            if bad.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    worst = np.max(t[bad] / thresh[bad])
                raise RuntimeError(
                    f"rejection envelope violated: target/envelope ratio {worst:.3g} "
                    "at a proposal point"
                )
            ok = np.nonzero(U * thresh <= t)[0]
            tries += batch
            if ok.size:
                i = int(ok[0])
                return np.conj(complex(Y[i, 0], Y[i, 1])), float(t[i]), tries - batch + i + 1
        raise RuntimeError("rejection sampler failed to accept; envelope too loose")

    def project(self, alpha, mass):
        """The normalized rest-mode state after outcome ``alpha``, or its amplitude."""
        return _normalized_by(project_coherent(self.state, [self.mode], [alpha]), mass)


def _y_to_w(Y):
    """Conjugated outcomes w = y_0 + i y_1, one per row."""
    return Y[:, :1] + 1j * Y[:, 1:]


def sample_continuous(state, modes, cfg, stats=None):
    """Heterodyne outcomes on the given modes, drawn by the shot engine one
    mode at a time, each by exact rejection sampling (``_RejectionPlan``).

    The proposal is the Gaussian-part Husimi with inflated covariance, the
    target the closed-form marginal density of ``_RejectionPlan.target``. The
    envelope is a proven bound on their ratio, so accepted outcomes follow the
    Husimi density exactly. Acceptance is 2/3 at rank 0 and falls with the
    stellar rank; nothing but the MIN_ACCEPT_RATE check bounds it from below.
    Raises RuntimeError if a proposal point's target is NaN or exceeds the
    envelope, or if the acceptance rate falls below MIN_ACCEPT_RATE (1e-3).
    ``stats``, when given, receives the acceptance rate and the points drawn.
    """
    engine, values = _engine_run(state, "continuous", modes, cfg)
    if stats is not None:
        stats["acceptance_rate"] = engine.accepted / engine.tried if engine.tried else 1.0
        stats["draws"] = engine.tried
    return [ContinuousOutcome(alphas) for alphas in values]


def sample_homodyne(state, mode, cfg, r_hom=3.0, stats=None):
    """Approximate q-quadrature homodyne on one mode.

    Realized as single-mode squeezing by r_hom followed by heterodyne; the
    finite-squeezing excess variance exp(-2 r_hom)/2 is reported in ``stats``.
    """
    squeezed = apply_gate(state, Squeeze(mode, r_hom))
    outcomes = sample_continuous(squeezed, [mode], cfg, stats=stats)
    if stats is not None:
        stats["variance_excess"] = 0.5 * math.exp(-2.0 * r_hom)
    qs = [math.sqrt(2.0) * out.alphas[0].real * math.exp(-r_hom) for out in outcomes]
    return qs


# ---------------------------------------------------------------------------
# permanents and transition probabilities
# ---------------------------------------------------------------------------

def permanent(M):
    """Permanent by Ryser's formula with Gray-code subset updates (n <= 20)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("permanent requires a square matrix")
    n = M.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n > RYSER_LIMIT:
        raise ValueError(f"matrix order {n} exceeds the Ryser limit {RYSER_LIMIT}")
    row_sum = np.zeros(n, dtype=complex)
    total = 0j
    gray = 0
    sign = 1.0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = int(new_gray ^ gray).bit_length() - 1
        if new_gray & (1 << j):
            row_sum += M[:, j]
        else:
            row_sum -= M[:, j]
        gray = new_gray
        bits = bin(gray).count("1")
        term = np.prod(row_sum)
        total += (-1.0) ** (n - bits) * term
    return complex(total)


def boson_sampling_prob(U, input_pattern, output_pattern):
    """Single-photon transition probability through a passive interferometer.

    Probability of detecting ``output_pattern`` given the 0/1 pattern
    ``input_pattern``: |perm(U_sub)|^2 / prod(t_k!), with the submatrix built
    from input rows and output-repeated columns.
    """
    if isinstance(U, Passive):
        U = U.U
    U = np.asarray(U, dtype=complex)
    s = [int(v) for v in input_pattern]
    t = [int(v) for v in output_pattern]
    if any(v not in (0, 1) for v in s):
        raise ValueError("input must be a 0/1 single-photon pattern")
    if any(v < 0 for v in t):
        raise ValueError("output pattern must be non-negative")
    if sum(s) != sum(t):
        raise ValueError(f"photon number mismatch: {sum(s)} in, {sum(t)} out")
    rows = [j for j, v in enumerate(s) if v == 1]
    cols = [k for k, v in enumerate(t) for _ in range(v)]
    sub = U[np.ix_(rows, cols)]
    denom = 1.0
    for v in t:
        denom *= math.factorial(v)
    return float(abs(permanent(sub)) ** 2 / denom)
