"""Single-mode Gaussian dynamics of finite-rank stellar states.

Every single-mode Gaussian Hamiltonian (alpha, xi, phi) has one closed form
(``closed_form_trajectory``, ``evolve``): (a, b, c) follow the 2x2 propagator
exp(tK) = fc I + fs K, K = [[i phi, -xi], [-conj(xi), -i phi]], through a
Moebius map (``multimode._mode_exponents``) plus the displacement integrals,
and the zeros move as Calogero-Moser particles under a constant force
(``calogero.cm_solve_path``). Two independent routes check it:

* the section engine ``multimode.apply_gate`` on mode 0, which transports the
  polynomial through the gate; ``evolve`` falls back to it when squeezing
  meets a repeated zero, whose Calogero-Moser labels are undefined,
* fixed-step RK4 integration of the coupled dynamical system
  (``ode_evolve``), the cross-check oracle.

Gate/drive convention: evolving for time t under the drive alpha, xi or phi
alone gives the gate D(alpha t), S(xi t) or R(phi t). Both routes drop the
identity part of the Hamiltonian; the shear Hamiltonian s q^2 has the
identity term s/2, so the flow of ``GaussianHamiltonian1M.shearing(s)`` is
exp(-i s t/2) P(s t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import calogero as cm
from . import multimode as mm
from .states import from_zeros, poly_coeffs_1m


@dataclass(frozen=True)
class GaussianHamiltonian1M:
    """Generic single-mode Gaussian Hamiltonian drives (identity part dropped).

    The generator is alpha a^dag - conj(alpha) a + (xi a^dag^2 - conj(xi) a^2)/2
    + i phi a^dag a: alpha is the displacement drive, xi the squeezing drive,
    phi the phase-shift drive. The zeros of the stellar function move as
    Calogero-Moser particles with coupling g = -i conj(xi) (g^2 = -conj(xi)^2),
    frequency omega^2 = phi^2 - |xi|^2 and the constant force
    conj(xi) alpha - i phi conj(alpha); without squeezing they do not interact.
    The classification is the sign of omega^2: elliptic (positive),
    hyperbolic (negative), parabolic (zero).
    """

    alpha: complex = 0j
    xi: complex = 0j
    phi: float = 0.0

    def classification(self):
        if abs(self.phi) > abs(self.xi):
            return "elliptic"
        if abs(self.phi) < abs(self.xi):
            return "hyperbolic"
        return "parabolic"

    @staticmethod
    def displacement(alpha):
        return GaussianHamiltonian1M(alpha=complex(alpha))

    @staticmethod
    def squeezing(xi):
        return GaussianHamiltonian1M(xi=complex(xi))

    @staticmethod
    def phase_shift(phi):
        return GaussianHamiltonian1M(phi=float(phi))

    @staticmethod
    def shearing(s):
        # s q^2 less its identity term s/2: the gate P(st) is exp(i s t/2)
        # times this evolution
        return GaussianHamiltonian1M(xi=1j * s, phi=float(s))


@dataclass(frozen=True)
class ZeroTrajectory:
    """Zero positions and Gaussian exponents sampled along an evolution."""

    times: np.ndarray
    zeros: np.ndarray       # shape (n_zeros, n_times)
    gauss_path: np.ndarray  # shape (n_times, 3) columns a, b, c

    @property
    def n_zeros(self):
        return self.zeros.shape[0]

    def state_at(self, i):
        a, b, c = self.gauss_path[i]
        return from_zeros(self.zeros[:, i], a, b, c)


def _factor_poly(state):
    """Leading coefficient and zeros of the polynomial part (single mode)."""
    if state.modes != 1:
        raise ValueError("single-mode states only")
    coeffs = poly_coeffs_1m(state)
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("polynomial part has vanishing leading coefficient")
    if coeffs.size == 1:
        return lead, np.zeros(0, dtype=complex)
    return lead, np.roots(coeffs[::-1] / lead)


def _monic_form(state):
    """Zeros, a, b and c_eff = c + log(lead) of a single-mode state."""
    lead, zeros = _factor_poly(state)
    g = state.gauss
    return zeros, complex(g.A[0, 0]), complex(g.B[0]), complex(g.C) + np.log(lead)


def initial_velocities(zeros, a, b, hamiltonian):
    """d(lambda_k)/dt at t=0 for the coupled dynamical system."""
    zeros = np.asarray(zeros, dtype=complex)
    al, xi, phi = hamiltonian.alpha, hamiltonian.xi, hamiltonian.phi
    xis = np.conj(xi)
    out = -(xis * a + 1j * phi) * zeros + xis * b + np.conj(al)
    if xi:  # the pair interaction scales with conj(xi)
        cm._require_distinct(zeros, "initial velocities require simple zeros")
        for k in range(zeros.size):
            out[k] += xis * sum(1.0 / (zeros[k] - zeros[j]) for j in range(zeros.size) if j != k)
    return out


# ---------------------------------------------------------------------------
# closed-form evolution under any single-mode Gaussian Hamiltonian
# ---------------------------------------------------------------------------

# Taylor coefficients in -omega^2 t^2 of fk / t^2 and fi / t^3 (columns), used
# where |omega t| < 1: the closed forms cancel there, and 12 terms reach double
# precision
_SERIES = np.array(
    [[1.0 / math.factorial(2 * k + 2), 2.0 * 4.0**k / math.factorial(2 * k + 3)]
     for k in range(12)]
)


def _drift_integrals(w2, times, fc, fs):
    """fk = int_0^t fs = (1 - fc)/omega^2 and fi = int_0^t fs^2 = (t - fs fc)/(2 omega^2)."""
    x = w2 * times * times
    near = np.abs(x) < 1.0
    powers = np.where(near, -x, 0.0)[:, None] ** np.arange(12)
    fk, fi = np.einsum("tk,kj->jt", powers, _SERIES) * (times**2, times**3)
    if not near.all():
        fk = np.where(near, fk, (1.0 - fc) / w2)
        fi = np.where(near, fi, (times - fs * fc) / (2.0 * w2))
    return fk, fi


def closed_form_trajectory(state, hamiltonian, times):
    """Zero/Gaussian paths of a single-mode state under ``hamiltonian`` on a
    grid of times, in closed form (the identity-free convention of ``ode_evolve``).

    (a, b, c) follow the 2x2 propagator exp(tK) of ``multimode._mode_exponents``;
    the displacement drive alpha adds to b the integral of y (alpha + conj(alpha) a)
    and to c the matching quadratures. The zeros are Calogero-Moser particles
    (coupling -i conj(xi), frequency omega) translated by f fk for the constant
    force f = conj(xi) alpha - i phi conj(alpha), and keep their labels, so the
    grid must resolve close encounters (see ``calogero.cm_solve_path``). Without
    squeezing they do not interact; with it a repeated zero has no labels and
    raises calogero.CollisionError.
    """
    times = np.asarray(times, dtype=float)
    zeros, a, b, c = _monic_form(state)
    al, xi, phi = complex(hamiltonian.alpha), complex(hamiltonian.xi), float(hamiltonian.phi)
    n, w2 = zeros.size, mm._omega2(xi, phi)
    fc, fs = cm._propagator(w2, times)
    fk, fi = _drift_integrals(w2, times, fc, fs)
    a_t, b_scale, kappa, c_const, _, _ = mm._mode_exponents(a, xi, phi, times)
    alc, k = np.conj(al), np.conj(xi) * a + 1j * phi
    f = np.conj(xi) * al - 1j * phi * alc
    v1, v2 = al + alc * a, -al * k + alc * (1j * phi * a - xi)
    beta = b + v1 * fs + v2 * fk  # y b(t); d(beta)/dt = v1 fc + v2 fs
    g = f * fk - alc * fs
    # int_0^t g d(beta), from int fk fc = fs fk - fi, int fk fs = fk^2/2, int fs fc = fs^2/2
    rest = (f * v1 * (fs * fk - fi) + 0.5 * f * v2 * fk**2 - 0.5 * alc * v1 * fs**2
            - alc * v2 * fi)
    gauss = np.column_stack((
        a_t,
        b_scale * beta,
        c + (2 * n + 1) * c_const + 1j * n * phi * times + kappa * beta**2 + g * beta - rest,
    ))
    v0 = initial_velocities(zeros, a, b, hamiltonian)
    if n and xi:
        system = cm.CMSystem.make(zeros, v0, -1j * np.conj(xi), np.sqrt(complex(w2)))
        zeros_path = cm.cm_solve_path(system, times)
    else:
        zeros_path = zeros[:, None] * fc + v0[:, None] * fs
    return ZeroTrajectory(times, zeros_path + f * fk, gauss)


def evolve(state, hamiltonian, t):
    """State after evolving for time t under the single-mode Hamiltonian.

    A repeated zero under squeezing has no Calogero-Moser labels; without a
    displacement drive the polynomial is then transported by the section
    engine ``multimode._section_gate`` instead (with a warning), and with one
    calogero.CollisionError is raised.
    """
    if t == 0:
        return state
    try:
        return closed_form_trajectory(state, hamiltonian, [t]).state_at(0)
    except cm.CollisionError:
        if hamiltonian.alpha:
            raise
        warnings.warn("zero collision in closed-form evolution; using the section engine",
                      stacklevel=2)
    a = complex(state.gauss.A[0, 0])
    a_new, b_scale, kappa, c_const, _, nu = mm._mode_exponents(
        a, complex(hamiltonian.xi), float(hamiltonian.phi), t
    )
    return mm._section_gate(state, 0, a_new, b_scale, kappa, c_const, nu)


# ---------------------------------------------------------------------------
# brute-force dynamical system (the cross-check oracle)
# ---------------------------------------------------------------------------

def _system_derivative(n, hamiltonian):
    """d(a, b, c, lambda, lambda')/dt for n zeros as a function of the list y
    of these values (Python complex scalars, see ``calogero._rk4_path``)."""
    al, xi, phi = complex(hamiltonian.alpha), complex(hamiltonian.xi), float(hamiltonian.phi)
    xis, alc = xi.conjugate(), al.conjugate()
    hxis, iphi, i2phi, w2 = 0.5 * xis, 1j * phi, 2j * phi, abs(xi) ** 2 - phi**2
    force, g2, free = xis * al - iphi * alc, -(xis**2), [0j] * n
    pair_forces = cm._pair_forces if n > 1 and xi else lambda lam, g2: free

    def deriv(y):
        a, b = y[0], y[1]
        xa, lam = xis * a, y[3 : 3 + n]
        return [xa * a + i2phi * a - xi, (iphi + xa) * b + al + alc * a,
                hxis * a - hxis * b * b - alc * b + n * (xa + iphi), *y[3 + n :],
                *[w2 * x + force + f for x, f in zip(lam, pair_forces(lam, g2))]]

    return deriv


def ode_evolve(state, hamiltonian, t, dt=None, steps=None):
    """Fixed-step RK4 integration of the coupled (a, b, c, lambda) system.

    Returns the trajectory on the grid linspace(0, t, steps + 1): ``steps``
    equal steps, by default the fewest of size at most ``dt`` (1e-4 |t| by
    default; none at t = 0). The c-equation uses the generic Hamiltonian with
    the identity part dropped (see the module docstring for the shear phase
    offset). Aborts if squeezed zeros collide or the step goes unstable.
    """
    zeros0, a, b, c = _monic_form(state)
    if steps is None:
        dt = 1e-4 * abs(t) if dt is None else dt
        if t and dt <= 0:
            raise ValueError("dt must be positive")
        steps = max(1, int(round(abs(t) / dt))) if t else 0
    n = zeros0.size
    y0 = np.concatenate(([a, b, c], zeros0, initial_velocities(zeros0, a, b, hamiltonian)))
    zeros = slice(3, 3 + n if hamiltonian.xi else 3)  # free zeros may coincide
    ys = cm._rk4_path(_system_derivative(n, hamiltonian), y0, t / max(steps, 1), steps, zeros,
                      admissible=lambda y: abs(y[0]) < 1.0)
    return ZeroTrajectory(np.linspace(0.0, t, steps + 1), ys[:, 3 : 3 + n].T, ys[:, :3])
