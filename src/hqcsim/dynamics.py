"""Single-mode Gaussian dynamics of finite-rank stellar states.

The flow of a single-mode Gaussian Hamiltonian (alpha, xi, phi) is one
``multimode.ModeRun`` (``gaussian_flow``): the 2x2 propagator exp(tK) = fc I +
fs K, K = [[i phi, -xi], [-conj(xi), -i phi]], then the drive's displacement
D(beta) and phase. ``evolve`` runs it through the gate kernel
``multimode._section_gate`` for every state, repeated zeros included: there is
no fallback. ``closed_form_trajectory`` samples the same flow on a grid of
times for (a, b, c) and moves the zeros as Calogero-Moser particles under a
constant force (``calogero.cm_solve_path``). Fixed-step RK4 integration of the
coupled dynamical system (``ode_evolve``) is the independent oracle.

Gate/drive convention: evolving for time t under the drive alpha, xi or phi
alone gives the gate D(alpha t), S(xi t) or R(phi t). Both routes drop the
identity part of the Hamiltonian; the shear Hamiltonian s q^2 has the
identity term s/2, so the flow of ``GaussianHamiltonian1M.shearing(s)`` is
exp(-i s t/2) P(s t).
"""

from __future__ import annotations

import math
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
    Calogero-Moser particles with the properties ``coupling`` g = -i conj(xi)
    (g^2 = -conj(xi)^2), ``omega2`` = phi^2 - |xi|^2 and ``force``, the constant
    force conj(xi) alpha - i phi conj(alpha) on every zero; without squeezing
    they do not interact. The classification is the sign of omega^2: elliptic
    (positive), hyperbolic (negative), parabolic (zero).
    """

    alpha: complex = 0j
    xi: complex = 0j
    phi: float = 0.0

    @property
    def omega2(self):  # exactly 0 on the parabolic line |phi| = |xi|
        return mm._omega2(complex(self.xi), float(self.phi))

    @property
    def coupling(self):
        return -1j * complex(self.xi).conjugate()

    @property
    def force(self):
        al = complex(self.alpha)
        return complex(self.xi).conjugate() * al - 1j * float(self.phi) * al.conjugate()

    def classification(self):
        w2 = self.omega2
        return "elliptic" if w2 > 0 else "hyperbolic" if w2 < 0 else "parabolic"

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


def _monic_form(state):
    """Zeros, a, b and c + log(leading coefficient of P) of a single-mode state."""
    if state.modes != 1:
        raise ValueError("single-mode states only")
    coeffs = poly_coeffs_1m(state)
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("polynomial part has vanishing leading coefficient")
    zeros = np.roots(coeffs[::-1] / lead) if coeffs.size > 1 else np.zeros(0, dtype=complex)
    g = state.gauss
    return zeros, complex(g.A[0, 0]), complex(g.B[0]), complex(g.C) + np.log(lead)


def initial_velocities(zeros, a, b, hamiltonian):
    """d(lambda_k)/dt at t=0 for the coupled dynamical system."""
    zeros = np.asarray(zeros, dtype=complex)
    xis = complex(hamiltonian.xi).conjugate()
    out = -(xis * a + 1j * hamiltonian.phi) * zeros + xis * b + np.conj(hamiltonian.alpha)
    if xis:  # the pair interaction scales with conj(xi)
        cm._require_distinct(zeros, "initial velocities require simple zeros")
        # sum_{j != k} 1/(lambda_k - lambda_j), in loop order; scalar products keep its bits
        out += [-xis * s for s in cm._cauchy(zeros).sum(axis=0).tolist()]
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


def _drift(hamiltonian, t):
    """(beta, phase, shift) that the displacement drive alpha adds to the flow
    of (xi, phi) over the time(s) t, from fk = int_0^t fs = (1 - fc)/omega^2
    and fi = int_0^t fs^2 = (t - fs fc)/(2 omega^2).

    Each increment alpha ds, carried through the rest of the flow, becomes
    D(mu alpha ds - conj(nu) conj(alpha) ds) (``multimode.ModeRun``), so
    beta = alpha fs + (i phi alpha + xi conj(alpha)) fk; merging the increments
    gives the phase -i int_0^t Im(conj(alpha) beta) = -i (phi |alpha|^2 +
    Im(xi conj(alpha)^2)) (2 fi - fs fk). Every zero moves by shift = force fk.
    """
    al = complex(hamiltonian.alpha)
    if not al:
        return 0j, 0j, 0j
    xi, phi, w2 = complex(hamiltonian.xi), float(hamiltonian.phi), hamiltonian.omega2
    fc, fs = cm._propagator(w2, t)
    x = w2 * t * t
    near = np.abs(x) < 1.0
    powers = np.where(near, -x, 0.0)[..., None] ** np.arange(12)
    fk, fi = np.einsum("...k,kj->j...", powers, _SERIES) * (t**2, t**3)
    if not near.all():
        fk = np.where(near, fk, (1.0 - fc) / w2)
        fi = np.where(near, fi, (t - fs * fc) / (2.0 * w2))
    beta = al * fs + (1j * phi * al + xi * al.conjugate()) * fk
    phase = -1j * (phi * abs(al) ** 2 + (xi * al.conjugate() ** 2).imag) * (2.0 * fi - fs * fk)
    return beta, phase, hamiltonian.force * fk


def gaussian_flow(hamiltonian, t):
    """The evolution for time t under ``hamiltonian``, whatever the state, as one
    ``multimode.ModeRun`` on mode 0: (mu, nu) the first column of exp(tK), c the
    continued -log(y)/2 - i phi t/2 at a = 0 (``multimode._mode_exponents``)
    plus the drive's phase, and beta its displacement (``_drift``). An array t
    gives a run of arrays over t."""
    _, _, _, c, mu, nu = mm._mode_exponents(0j, complex(hamiltonian.xi), hamiltonian.phi, t)
    beta, phase, _ = _drift(hamiltonian, t)
    return mm.ModeRun(0, mu, nu, beta, c + phase)


def closed_form_trajectory(state, hamiltonian, times):
    """Zero/Gaussian paths of a single-mode state under ``hamiltonian`` on a
    grid of times, in closed form (the identity-free convention of ``ode_evolve``).

    (a, b, c) follow the flow of ``gaussian_flow`` as ``multimode._section_gate``
    moves a Gaussian: the Moebius map at the state's a, then D(beta); the monic
    polynomial's leading coefficient scales by b_scale^n. The zeros are
    Calogero-Moser particles translated by the drive's shift (``_drift``) that
    keep their labels, so the grid must resolve close encounters
    (``calogero.cm_solve_path``); under squeezing a repeated zero has no labels
    and raises calogero.CollisionError.
    """
    times = np.asarray(times, dtype=float)
    zeros, a, b, c = _monic_form(state)
    xi, phi, n, w2 = complex(hamiltonian.xi), float(hamiltonian.phi), zeros.size, hamiltonian.omega2
    a_t, b_scale, kappa, c_const, _, _ = mm._mode_exponents(a, xi, phi, times)
    beta, phase, shift = _drift(hamiltonian, times)
    b0 = np.full(times.shape, b)  # array products throughout: numpy's scalar ones may round apart
    b1, bc = b_scale * b0, np.conj(beta)
    # b_scale^n = exp(n (2 c_const + i phi t)), with the continued log of c_const
    gauss = np.column_stack((a_t, b1 + beta + a_t * bc, c + (2 * n + 1) * c_const
                             + 1j * n * phi * times + kappa * b0**2 + phase - b1 * bc
                             - 0.5 * a_t * bc**2 - 0.5 * abs(beta) ** 2))
    v0 = initial_velocities(zeros, a, b, hamiltonian)  # which checks the zeros apart
    if n and xi:
        system = cm.CMSystem(zeros, v0, hamiltonian.coupling, complex(np.sqrt(complex(w2))))
        zeros_path = cm.cm_solve_path(system, times)
    else:
        fc, fs = cm._propagator(w2, times)
        zeros_path = zeros[:, None] * fc + v0[:, None] * fs
    return ZeroTrajectory(times, zeros_path + shift, gauss)


def evolve(state, hamiltonian, t):
    """State after evolving for time t under the single-mode Hamiltonian: its
    flow (``gaussian_flow``) applied by the gate kernel, whatever the zeros."""
    if state.modes != 1:
        raise ValueError("single-mode states only")
    return mm._apply_run(state, gaussian_flow(hamiltonian, float(t)))


# ---------------------------------------------------------------------------
# brute-force dynamical system (the cross-check oracle)
# ---------------------------------------------------------------------------

def _system_derivative(n, hamiltonian):
    """d(a, b, c, lambda, lambda')/dt for n zeros as a function of the list y
    of these values (Python complex scalars, see ``calogero._rk4_path``)."""
    al, xi, phi = complex(hamiltonian.alpha), complex(hamiltonian.xi), float(hamiltonian.phi)
    xis, alc = xi.conjugate(), al.conjugate()
    hxis, iphi, i2phi, w2 = 0.5 * xis, 1j * phi, 2j * phi, hamiltonian.omega2
    force, g2, free = hamiltonian.force, hamiltonian.coupling**2, [0j] * n
    pair_forces = cm._pair_forces if n > 1 and xi else lambda lam, g2: free

    def deriv(y):
        a, b = y[0], y[1]
        xa, lam = xis * a, y[3 : 3 + n]
        return [xa * a + i2phi * a - xi, (iphi + xa) * b + al + alc * a,
                hxis * a - hxis * b * b - alc * b + n * (xa + iphi), *y[3 + n :],
                *[force + f - w2 * x for x, f in zip(lam, pair_forces(lam, g2))]]

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
