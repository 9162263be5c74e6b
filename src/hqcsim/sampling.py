"""Measurement rules: heterodyne (continuous) and Fock (discrete) sampling,
post-measurement projections, permanents, and transition probabilities.

Outcome convention: continuous outcomes follow physical heterodyne detection,
i.e. the outcome alpha is distributed by the Husimi density
exp(-|alpha|^2) |F(alpha*)|^2 / pi^m and the post-measurement state fixes the
measured variables at the conjugated outcomes. Every sampler runs the shot
engine of ``circuits``: modes are measured one at a time, and shot i draws
from its own counter-based substream, so its outcomes do not depend on how
many shots are made. A heterodyne draw is by rejection from an inflated
Gaussian fitted to the Gaussian part of the state. The target density of a
partial measurement is the Bargmann norm of the coherent projection,
evaluated in closed form for a whole batch of outcomes at once; every target
is computed in the log domain and exponentiated once. A target that is NaN or
exceeds the envelope raises RuntimeError instead of biasing the sample.
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
    _add_linear,
    _bargmann_kernel,
    _section,
    _section_poly,
    _wick_moments,
    norm_squared,
    to_fock_array,
)

RYSER_LIMIT = 20
PROPOSAL_INFLATION = 1.5
REJECTION_SAFETY = 1.5  # envelope factor over the largest probed density ratio
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
    """Project one mode onto the Fock state |n>: (1/sqrt(n!)) d^n/dz^n F at
    z_mode = 0, the last entry of ``_fock_projections`` (which stops at the
    first zero projection, equal to every later one). The remaining-mode
    polynomial degree grows by at most n; projecting the last mode returns the
    complex amplitude.
    """
    return _fock_projections(state, mode, n)[-1]


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
    """``project_fock(state, mode, n)`` for every n = 0..nmax, in one sweep.

    With F = P exp(E) and l = dE/dz_k = B_k - (A z)_k, d^n F = P_n exp(E) with
    P_{n+1} = dP_n/dz_k + l P_n: one derivative step per n on P_n / sqrt(n!),
    held as a section array (``states._section``) with z_k^p rows up to
    p = nmax (higher powers do not reach z_k = 0 within nmax steps), graded
    in the other modes that l couples and fixed in the rest, which no step
    changes. Projection n is its row 0 times the rest-mode Gaussian, built
    once.

    The step is linear, so once P_n is exactly zero every later projection is
    the zero projection: the sweep stops there, and the list ends with it
    (shorter than nmax + 1 entries; each missing n equals the last entry).
    """
    mode, nmax = int(mode), int(nmax)
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if nmax < 0:
        raise ValueError("photon number must be non-negative")
    g, m = state.gauss, state.modes
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
    down = np.arange(1, P.shape[0])[:, None]
    gauss = _rest_gauss(g, rest, g.B[rest], g.C)
    out = []
    for n in range(nmax + 1):
        if n:
            step = g.B[mode] * P
            step[:-1] += down * P[1:]
            _add_linear(step, P, ell, layout)
            P = step / math.sqrt(n)
        out.append(
            StellarState(len(rest), _section_poly(P[0], layout), gauss) if rest
            else complex(P[0, 0] * np.exp(g.C))
        )
        if not P.any():
            break
    return out


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
    AR, AI = gauss.A.real, gauss.A.imag
    M = np.block([[np.eye(m) + AR, -AI], [-AI, np.eye(m) - AR]])
    ell = np.concatenate([2.0 * gauss.B.real, -2.0 * gauss.B.imag])
    cov0 = np.linalg.inv(2.0 * M)
    mean = cov0 @ ell
    return mean, cov0


class _RejectionPlan:
    """Envelope data for rejection sampling of one measured mode of a state."""

    def __init__(self, state, mode):
        self.state = state
        self.mode = int(mode)
        self.full = state.modes == 1
        if not self.full:
            self._build_marginal()
        mean, cov0 = _husimi_gaussian_moments(state.gauss)
        sel = [self.mode, state.modes + self.mode]
        self.mean = mean[sel]
        cov = PROPOSAL_INFLATION * cov0[np.ix_(sel, sel)]
        self.chol = np.linalg.cholesky(cov)
        self.prec = np.linalg.inv(cov)
        self.log_norm = -0.5 * (
            np.linalg.slogdet(2 * np.pi * cov)[1]
        )
        self.log_env = self._estimate_envelope()

    def _build_marginal(self):
        """The w-independent data of the closed-form marginal (see ``target``)."""
        g = self.state.gauss
        I = [self.mode]
        R = [k for k in range(self.state.modes) if k != self.mode]
        A_R = g.A[np.ix_(R, R)]
        self.A_RI = g.A[np.ix_(R, I)]
        self.A_II = g.A[np.ix_(I, I)]
        self.B_R, self.B_I, self.C = g.B[R], g.B[I], g.C
        self.K, roots = _bargmann_kernel(A_R, A_R)
        self.log_root = float(np.sum(np.log(roots)).real)
        # P(w, z_R) = sum_p w^p Q_p(z_R): the section in the measured variable,
        # Q_p over the moment index of all rest modes (pad column dropped)
        terms = self.state.poly.coeffs
        Q, layout = _section(self.state, self.mode, max(n[self.mode] for n in terms), R,
                             max(sum(n) - n[self.mode] for n in terms))
        self.index, self.Q = layout.index, Q[:, :-1]

    def target(self, W):
        """Outcome density (up to pi) at conjugated outcomes w, batched: W
        holds one point per row.

        Computed in the log domain and exponentiated once, so no intermediate
        overflows. With no mode left it is exp(2 log|P(w)| + 2 Re E(w) - |w|^2)
        with E the Gaussian exponent. Otherwise (mode I measured, modes R left)
        it is the Bargmann norm^2 of the coherent projection in closed form:
        with B_R(w) = B_R - A_RI w, const(w) = C + B_I w - A_II w^2 / 2 - |w|^2 / 2,
        p(w) the coefficients of P(w, .) over the rest monomials,
        L = (conj B_R(w), B_R(w)) and mu = K L (``states.inner_product`` with
        s1 = s2 = the projection; K and the eigenvalue roots do not depend on w),

            log t = 2 Re const + Re(L mu) / 2 - sum_i log sqrt(1 - lambda_i)
                    + log sum_{a,b} conj(p_a) p_b T[a, b](mu).
        """
        W = np.atleast_2d(W)
        if self.full:
            zgrids = [W[:, 0]]
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
        p = (W ** np.arange(self.Q.shape[0])) @ self.Q
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
        t = self.target(_y_to_w(Y))
        lq = self.proposal_logpdf(Y)
        with np.errstate(divide="ignore"):
            r = np.log(t) - lq
        return float(np.max(r[np.isfinite(r)], initial=-np.inf))

    def _estimate_envelope(self):
        """REJECTION_SAFETY times the largest target/proposal ratio found on a
        +-5 sigma grid (41 points per axis with no mode left, else 21) and on
        outer probe rings (200 or 40 points) that catch polynomial growth."""
        if self.state.poly.degree() == 0:
            # Gaussian target with the same mean as the proposal: the density
            # ratio peaks exactly at the mean.
            return math.log(REJECTION_SAFETY) + self._ratio_max(self.mean[None, :])
        sig = np.sqrt(np.diag(self.chol @ self.chol.T))
        n_axis, n_ring = (41, 200) if self.full else (21, 40)
        axes = [
            np.linspace(self.mean[i] - 5 * sig[i], self.mean[i] + 5 * sig[i], n_axis)
            for i in range(2)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        best = self._ratio_max(np.stack([g.ravel() for g in grids], axis=1))
        rng = np.random.default_rng(54321)
        for radius in (6.0, 8.0, 12.0):
            D = rng.standard_normal((n_ring, 2))
            D /= np.linalg.norm(D, axis=1, keepdims=True)
            best = max(best, self._ratio_max(self.mean + radius * D * sig))
        return math.log(REJECTION_SAFETY) + best

    def draw(self, rng):
        """One accepted proposal point y, its target density and the points
        tried. Raises RuntimeError when a target is NaN or exceeds the
        envelope, since the sample would then be biased, or when MAX_TRIES
        points bring no acceptance."""
        tries = 0
        while tries < MAX_TRIES:
            batch = 32
            Z = rng.standard_normal((batch, 2))
            Y = self.mean + Z @ self.chol.T
            U = rng.random(batch)
            t = self.target(_y_to_w(Y))
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


def _y_to_w(Y):
    """Conjugated outcomes w = y_0 + i y_1, one per row."""
    return Y[:, :1] + 1j * Y[:, 1:]


def sample_continuous(state, modes, cfg, stats=None):
    """Heterodyne outcomes on the given modes, drawn by the shot engine one
    mode at a time, each by exact rejection sampling (``_RejectionPlan``).

    The proposal is the Gaussian-part Husimi with inflated covariance; the
    envelope constant is REJECTION_SAFETY times the largest density ratio
    found on a grid plus outer probe rings. The target is the closed-form
    marginal density of ``_RejectionPlan.target``, batched and in the log
    domain. Raises RuntimeError if a proposal point's target is NaN or exceeds
    the envelope, or if the acceptance rate falls below 1e-3. ``stats``, when
    given, receives the acceptance rate and the proposal points drawn.
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
    from .gates import Squeeze
    from .multimode import apply_gate

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
