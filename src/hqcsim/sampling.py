"""Measurement rules: heterodyne (continuous) and Fock (discrete) sampling,
post-measurement projections, permanents, and transition probabilities.

Outcome convention: continuous outcomes follow physical heterodyne detection,
i.e. the outcome alpha is distributed by the Husimi density
exp(-|alpha|^2) |F(alpha*)|^2 / pi^m and the post-measurement state fixes the
measured variables at the conjugated outcomes. Sampling is by rejection from
an inflated Gaussian fitted to the Gaussian part of the state, with per-shot
counter-based substreams so results are reproducible under any parallel
schedule. The target density of a partial measurement is the Bargmann norm of
the coherent projection, evaluated in closed form for a whole batch of
outcomes at once; every target is computed in the log domain and
exponentiated once. A target that is NaN or exceeds the envelope raises
RuntimeError instead of biasing the sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import (
    NORM_TOL,
    GaussPart,
    PolyPart,
    StellarState,
    _bargmann_kernel,
    _moment_index,
    _wick_moments,
    norm_squared,
    sqrt_factorial,
    to_fock_array,
)

RYSER_LIMIT = 20
PROPOSAL_INFLATION = 1.5
MIN_ACCEPT_RATE = 1e-3


@dataclass(frozen=True)
class ContinuousOutcome:
    alphas: tuple
    density_value: float


@dataclass(frozen=True)
class DiscreteOutcome:
    ns: tuple


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    shots: int = 1
    rejection_safety: float = 1.5
    cutoff: int = 30


def shot_rng(seed, shot):
    """Counter-based generator for one shot; independent of thread schedule."""
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
    A_rest = g.A[np.ix_(rest, rest)]
    poly = PolyPart.make(new_coeffs, modes=len(rest)).pruned()
    return StellarState.make(
        len(rest), poly, GaussPart.make(A_rest, B_rest, const, check=False)
    )


def project_fock(state, mode, n):
    """Project one mode onto the Fock state |n>.

    Computes (1/sqrt(n!)) d^n/dz^n F at z_mode = 0 symbolically on the P x G
    form; the remaining-mode polynomial degree grows by at most n. Projecting
    the last mode returns the complex amplitude.
    """
    mode = int(mode)
    n = int(n)
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    g = state.gauss
    m = state.modes
    # linear form d/dz_mode log G = B_mode - (A z)_mode
    ell = PolyPart.make(
        {tuple(1 if j == i else 0 for j in range(m)): -g.A[mode, i] for i in range(m)}
        | {(0,) * m: g.B[mode]}
    )
    poly = state.poly
    for _ in range(n):
        poly = poly.derivative(mode).added(poly.multiplied(ell))
    # evaluate the section z_mode = 0
    rest = [k for k in range(m) if k != mode]
    new_coeffs = {}
    for idx, c in poly.coeffs.items():
        if idx[mode] == 0:
            new_coeffs[tuple(idx[k] for k in rest)] = c
    scale = 1.0 / sqrt_factorial((n,))
    if not rest:
        total = sum(new_coeffs.values()) if new_coeffs else 0j
        return complex(total * scale * np.exp(g.C))
    B_rest = g.B[rest]
    A_rest = g.A[np.ix_(rest, rest)]
    poly = PolyPart.make(new_coeffs, modes=len(rest)).scaled(scale).pruned()
    return StellarState.make(
        len(rest), poly, GaussPart.make(A_rest, B_rest, g.C, check=False)
    )


# ---------------------------------------------------------------------------
# discrete (Fock) measurement
# ---------------------------------------------------------------------------

def fock_probabilities(state, cutoff, loss_tol=1e-8):
    """Outcome probabilities {n: |psi_n|^2} up to the total-degree cutoff.

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


class _ChainSampler:
    """Mode-by-mode exact sampling from grouped joint Fock probabilities."""

    def __init__(self, state, modes, cutoff):
        self.modes = [int(k) for k in modes]
        probs = fock_probabilities(state, cutoff)
        self.joint = [
            (tuple(idx[k] for k in self.modes), p) for idx, p in probs.items()
        ]
        self.total = sum(p for _, p in self.joint)
        self._cond_cache = {}

    def conditional(self, prefix):
        """Distribution of the next mode's count given a measured prefix."""
        if prefix not in self._cond_cache:
            level = len(prefix)
            masses = {}
            for key, p in self.joint:
                if key[:level] == prefix:
                    masses[key[level]] = masses.get(key[level], 0.0) + p
            total = sum(masses.values())
            vals = sorted(masses)
            cdf = np.cumsum([masses[v] / total for v in vals])
            self._cond_cache[prefix] = (vals, cdf)
        return self._cond_cache[prefix]

    def draw(self, rng):
        prefix = ()
        for _ in self.modes:
            vals, cdf = self.conditional(prefix)
            u = rng.random()
            prefix = prefix + (vals[int(np.searchsorted(cdf, u))],)
        return prefix


def sample_discrete(state, modes, cfg):
    """Photon-number outcomes on the given modes, chain-sampled per shot.

    Deterministic given the seed: shot i uses the substream keyed (seed, i).
    """
    sampler = _ChainSampler(require_normalized(state), modes, cfg.cutoff)
    if sampler.total < 1.0 - 1e-6:
        warnings.warn(
            f"discrete sampling cutoff {cfg.cutoff} captures only "
            f"{sampler.total:.9f} of the distribution",
            stacklevel=2,
        )
    out = []
    for shot in range(cfg.shots):
        rng = shot_rng(cfg.seed, shot)
        out.append(DiscreteOutcome(sampler.draw(rng)))
    return out


# ---------------------------------------------------------------------------
# continuous (heterodyne) measurement
# ---------------------------------------------------------------------------

def _husimi_gaussian_moments(gauss):
    """Mean and covariance over (Re w, Im w) of the Gaussian-part Husimi.

    w = alpha* are the conjugated outcomes; the density is proportional to
    exp(-|w|^2 + 2 Re(-w^T A w / 2 + B^T w)), a real Gaussian in 2m variables.
    """
    m = gauss.modes
    AR, AI = gauss.A.real, gauss.A.imag
    M = np.block([[np.eye(m) + AR, -AI], [-AI, np.eye(m) - AR]])
    ell = np.concatenate([2.0 * gauss.B.real, -2.0 * gauss.B.imag])
    cov0 = np.linalg.inv(2.0 * M)
    mean = cov0 @ ell
    return mean, cov0


class _RejectionPlan:
    """Envelope data for rejection sampling of measured modes of a state."""

    def __init__(self, state, modes, safety):
        self.state = state
        self.modes = [int(k) for k in modes]
        self.k = len(self.modes)
        self.full = self.k == state.modes
        if not self.full:
            self._build_marginal()
        mean, cov0 = _husimi_gaussian_moments(state.gauss)
        sel = self.modes + [state.modes + k for k in self.modes]
        self.mean = mean[sel]
        cov = PROPOSAL_INFLATION * cov0[np.ix_(sel, sel)]
        self.chol = np.linalg.cholesky(cov)
        self.prec = np.linalg.inv(cov)
        self.log_norm = -0.5 * (
            np.linalg.slogdet(2 * np.pi * cov)[1]
        )
        self.log_env = self._estimate_envelope(safety)

    def _build_marginal(self):
        """The w-independent data of the closed-form marginal (see ``target``)."""
        g = self.state.gauss
        I = self.modes
        R = [k for k in range(self.state.modes) if k not in I]
        A_R = g.A[np.ix_(R, R)]
        self.A_RI = g.A[np.ix_(R, I)]
        self.A_II = g.A[np.ix_(I, I)]
        self.B_R, self.B_I, self.C = g.B[R], g.B[I], g.C
        self.K, roots = _bargmann_kernel(A_R, A_R)
        self.log_root = float(np.sum(np.log(roots)).real)
        # P(w, z_R) = sum_t c_t w^(e_t) z_R^(f_t): the exponents e_t of the
        # measured variables, and c_t scattered onto the moment index of f_t
        terms = self.state.poly.coeffs
        self.index = _moment_index(len(R), max(sum(n[k] for k in R) for n in terms))
        self.exps = np.array([[n[k] for k in I] for n in terms])
        self.coef = np.zeros((len(terms), self.index.size), dtype=complex)
        for t, (n, c) in enumerate(terms.items()):
            self.coef[t, self.index.pos[tuple(n[k] for k in R)]] = c

    def target(self, W):
        """Joint outcome density (up to pi^k) at conjugated outcomes w, batched.

        Computed in the log domain and exponentiated once, so no intermediate
        overflows. A full measurement gives exp(2 log|P(w)| + 2 Re E(w) - |w|^2)
        with E the Gaussian exponent. A partial one (modes I measured, R left)
        is the Bargmann norm^2 of the coherent projection in closed form: with
        B_R(w) = B_R - A_RI w, const(w) = C + B_I w - w^T A_II w / 2 - |w|^2 / 2,
        p(w) the coefficients of P(w, .) over the rest monomials,
        L = (conj B_R(w), B_R(w)) and mu = K L (``states.inner_product`` with
        s1 = s2 = the projection; K and the eigenvalue roots do not depend on w),

            log t = 2 Re const + Re(L mu) / 2 - sum_i log sqrt(1 - lambda_i)
                    + log sum_{a,b} conj(p_a) p_b T[a, b](mu).
        """
        W = np.atleast_2d(W)
        if self.full:
            col = {mode: pos for pos, mode in enumerate(self.modes)}
            zgrids = [W[:, col[j]] for j in range(self.state.modes)]
            with np.errstate(divide="ignore"):  # a zero of P has log -inf
                log_p = np.log(np.abs(self.state.poly.evaluate_grid(zgrids)))
            return np.exp(
                2.0 * log_p + 2.0 * self.state.gauss.exponent_grid(zgrids).real
                - np.sum(np.abs(W) ** 2, axis=1)
            )
        BR = self.B_R - W @ self.A_RI.T
        const = (
            self.C + W @ self.B_I
            - 0.5 * np.einsum("ni,ij,nj->n", W, self.A_II, W)
            - 0.5 * np.sum(np.abs(W) ** 2, axis=1)
        )
        L = np.concatenate([np.conj(BR), BR], axis=1)
        mu = L @ self.K  # K is symmetric
        p = np.prod(W[:, None, :] ** self.exps, axis=2) @ self.coef
        T = _wick_moments(mu, self.K, self.index, self.index)
        s = np.einsum("na,nab,nb->n", np.conj(p), T, p).real
        with np.errstate(divide="ignore"):  # rounding can leave s <= 0 at a zero
            log_s = np.log(np.maximum(s, 0.0))
        return np.exp(
            2.0 * const.real + 0.5 * np.sum(L * mu, axis=1).real - self.log_root + log_s
        )

    def proposal_logpdf(self, Y):
        d = Y - self.mean
        q = np.einsum("ij,jk,ik->i", d, self.prec, d)
        return self.log_norm - 0.5 * q

    def _ratio_max(self, Y):
        t = self.target(_y_to_w(Y, self.k))
        lq = self.proposal_logpdf(Y)
        with np.errstate(divide="ignore"):
            r = np.log(t) - lq
        return float(np.max(r[np.isfinite(r)], initial=-np.inf))

    def _estimate_envelope(self, safety):
        sig = np.sqrt(np.diag(self.chol @ self.chol.T))
        if self.state.poly.degree() == 0:
            # Gaussian target with the same mean as the proposal: the density
            # ratio peaks exactly at the mean.
            return math.log(safety) + self._ratio_max(self.mean[None, :])
        best = -np.inf
        if self.full and self.k <= 2:
            axes = [
                np.linspace(self.mean[i] - 5 * sig[i], self.mean[i] + 5 * sig[i], 41)
                for i in range(2 * self.k)
            ]
            grids = np.meshgrid(*axes, indexing="ij")
            Y = np.stack([g.ravel() for g in grids], axis=1)
            best = max(best, self._ratio_max(Y))
        elif self.k == 1:
            axes = [
                np.linspace(self.mean[i] - 5 * sig[i], self.mean[i] + 5 * sig[i], 21)
                for i in range(2)
            ]
            grids = np.meshgrid(*axes, indexing="ij")
            Y = np.stack([g.ravel() for g in grids], axis=1)
            best = max(best, self._ratio_max(Y))
        else:
            rng = np.random.default_rng(12345)
            Y = self.mean + rng.standard_normal((4000, 2 * self.k)) @ (2.0 * self.chol.T)
            best = max(best, self._ratio_max(Y))
        # polynomial growth check on outer rings
        rng = np.random.default_rng(54321)
        n_ring = 200 if self.full else 40
        for radius in (6.0, 8.0, 12.0):
            D = rng.standard_normal((n_ring, 2 * self.k))
            D /= np.linalg.norm(D, axis=1, keepdims=True)
            Y = self.mean + radius * D * sig
            best = max(best, self._ratio_max(Y))
        return math.log(safety) + best

    def draw(self, rng, max_tries=20000):
        """One accepted proposal point y, its target density and the points
        tried. Raises RuntimeError when a target is NaN or exceeds the
        envelope, since the sample would then be biased."""
        tries = 0
        while tries < max_tries:
            batch = 32
            Z = rng.standard_normal((batch, 2 * self.k))
            Y = self.mean + Z @ self.chol.T
            U = rng.random(batch)
            t = self.target(_y_to_w(Y, self.k))
            thresh = np.exp(self.log_env + self.proposal_logpdf(Y))
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
                return Y[i], float(t[i]), tries - batch + i + 1
        raise RuntimeError("rejection sampler failed to accept; envelope too loose")


def _y_to_w(Y, k):
    return Y[:, :k] + 1j * Y[:, k:]


def sample_continuous(state, modes, cfg, stats=None):
    """Heterodyne outcomes on the given modes by exact rejection sampling.

    The proposal is the Gaussian-part Husimi with inflated covariance; the
    envelope constant is the configured safety factor times the largest
    density ratio found on a grid plus outer probe rings. The target is the
    closed-form marginal density of ``_RejectionPlan.target``, batched and in
    the log domain. Raises RuntimeError if a proposal point's target is NaN or
    exceeds the envelope, or if the acceptance rate falls below 1e-3.
    """
    require_normalized(state)
    plan = _RejectionPlan(state, modes, cfg.rejection_safety)
    out = []
    total_draws = 0
    for shot in range(cfg.shots):
        rng = shot_rng(cfg.seed, shot)
        y, dens, draws = plan.draw(rng)
        total_draws += draws
        w = y[: plan.k] + 1j * y[plan.k:]
        alphas = tuple(np.conj(w))
        out.append(ContinuousOutcome(alphas, dens / np.pi**plan.k))
        if shot >= 99 and (shot + 1) / total_draws < MIN_ACCEPT_RATE:
            raise RuntimeError(
                f"continuous sampler acceptance rate {(shot + 1) / total_draws:.2e} "
                "below 1e-3; envelope too loose"
            )
    if stats is not None:
        stats["acceptance_rate"] = cfg.shots / total_draws if total_draws else 1.0
        stats["draws"] = total_draws
    return out


def sample_homodyne(state, mode, cfg, r_hom=3.0, stats=None):
    """Approximate q-quadrature homodyne on one mode.

    Realized as single-mode squeezing by r_hom followed by heterodyne; the
    finite-squeezing excess variance exp(-2 r_hom)/2 is reported in ``stats``.
    """
    from .multimode import apply_squeeze_mode

    squeezed = apply_squeeze_mode(state, mode, r_hom)
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


def permanent_reference(M):
    """Definition sum over permutations; exponential-factorial cross-check."""
    from itertools import permutations

    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    return complex(
        sum(np.prod([M[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
    )


def boson_sampling_prob(U, input_pattern, output_pattern):
    """Single-photon transition probability through a passive interferometer.

    Probability of detecting ``output_pattern`` given the 0/1 pattern
    ``input_pattern``: |perm(U_sub)|^2 / prod(t_k!), with the submatrix built
    from input rows and output-repeated columns.
    """
    from .gates import Passive

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
