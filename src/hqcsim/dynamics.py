"""Single-mode Gaussian dynamics of finite-rank stellar states.

Three independent routes are provided for every primitive gate:

* the closed form (``evolve_*``, ``closed_form_trajectory``): the Gaussian
  exponents follow the gate's exponent formulas in ``multimode``, and the
  zeros translate (D), rotate (R) or move as Calogero-Moser particles solved
  by ``calogero.cm_solve_path`` (S, P),
* the section engine ``multimode.apply_gate`` on mode 0, which conjugates the
  polynomial through the gate; the closed forms of S and P fall back to it
  when zeros collide,
* fixed-step RK4 integration of the coupled dynamical system
  (``ode_evolve``), which serves as the cross-check oracle for the other two.

Gate/drive convention: the Hamiltonian drives (alpha, xi, phi, s) acting for
time t induce the gates D(alpha*t), S(xi*t), R(phi*t), P(s*t). The shear
Hamiltonian contains a -s/2 identity term, so evolving the generic
(identity-free) system reproduces P(st) only up to the global phase
exp(-i*s*t/2); the closed forms below give the gate itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import calogero as cm
from . import multimode as mm
from .gates import Shear, Squeeze
from .states import GaussPart, PolyPart, StellarState, poly_coeffs_1m


@dataclass(frozen=True)
class GaussianHamiltonian1M:
    """Generic single-mode Gaussian Hamiltonian drives (identity part dropped).

    alpha is the displacement drive, xi the squeezing drive, phi the
    phase-shift drive. The zeros of the stellar function move as
    Calogero-Moser particles with coupling g = -i conj(xi) (g^2 = -conj(xi)^2),
    frequency omega^2 = phi^2 - |xi|^2 and the constant force
    conj(xi) alpha - i phi conj(alpha). The classification is the sign of
    omega^2: elliptic (positive), hyperbolic (negative), parabolic (zero).
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
        # H_s^P plus the (s/2) identity; the gate P(st) is exp(is t/2) times
        # the generic evolution.
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
        return _state_from_monic(self.zeros[:, i], a, b, c)


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


def _state_from_monic(zeros, a, b, c_eff):
    """State with monic polynomial over the zeros and exp(c_eff) absorbed."""
    poly = np.array([1.0 + 0j])
    for z0 in zeros:
        poly = np.convolve(poly, np.array([-complex(z0), 1.0]))
    coeffs = {(k,): poly[k] for k in range(poly.size)}
    return StellarState.make(
        1, PolyPart.make(coeffs), GaussPart.make([[a]], [b], c_eff, check=False)
    )


def initial_velocities(zeros, a, b, hamiltonian):
    """d(lambda_k)/dt at t=0 for the coupled dynamical system."""
    zeros = np.asarray(zeros, dtype=complex)
    cm._require_distinct(zeros, "initial velocities require simple zeros")
    al, xi, phi = hamiltonian.alpha, hamiltonian.xi, hamiltonian.phi
    xis = np.conj(xi)
    out = np.empty(zeros.shape, dtype=complex)
    for k in range(zeros.size):
        inter = sum(
            1.0 / (zeros[k] - zeros[j]) for j in range(zeros.size) if j != k
        )
        out[k] = -(xis * a + 1j * phi) * zeros[k] + xis * b + np.conj(al) + xis * inter
    return out


# ---------------------------------------------------------------------------
# closed-form gate evolution (Gaussian exponents + labelled zero motion)
# ---------------------------------------------------------------------------
#
# Each flow maps the monic form (zeros, a, b, c_eff), a drive and a grid of
# times to the zero paths, shape (n, len(times)), and the (a, b, c) rows,
# shape (len(times), 3).

def _displacement_flow(zeros, a, b, c, alpha, times):
    beta = complex(alpha) * times
    bc = np.conj(beta)
    gauss = np.column_stack((
        np.full(times.shape, a),
        b + beta + a * bc,
        c - b * bc - 0.5 * a * bc**2 - 0.5 * np.abs(beta) ** 2,
    ))
    return zeros[:, None] + bc, gauss


def _rotation_flow(zeros, a, b, c, phi, times):
    th = float(phi) * times
    gauss = np.column_stack((
        np.exp(2j * th) * a, np.exp(1j * th) * b, c + 1j * zeros.size * th
    ))
    return np.exp(-1j * th) * zeros[:, None], gauss


def _cm_flow(zeros, a, b, c, hamiltonian, exponents, gate_params, times):
    """Zeros as Calogero-Moser particles; (a, b, c) from ``exponents``.

    The coupling is g = -i conj(xi) and the frequency omega = sqrt(phi^2 - |xi|^2);
    the constant force vanishes without a displacement drive. ``exponents``
    is a multimode exponent formula and ``gate_params`` its gate parameter at
    each time. Raises calogero.CollisionError on coincident zeros.
    """
    if zeros.size:
        xi, phi = hamiltonian.xi, hamiltonian.phi
        system = cm.CMSystem.make(
            zeros,
            initial_velocities(zeros, a, b, hamiltonian),
            -1j * np.conj(xi),
            np.sqrt(complex(phi**2 - abs(xi) ** 2)),
        )
        zeros_path = cm.cm_solve_path(system, times)
    else:
        zeros_path = np.zeros((0, times.size), dtype=complex)
    gauss = np.empty((times.size, 3), dtype=complex)
    for i, param in enumerate(gate_params):
        a_new, b_scale, kappa, c_const = exponents(a, param)
        gauss[i] = a_new, b_scale * b, c + (2 * zeros.size + 1) * c_const + kappa * b**2
    return zeros_path, gauss


def _squeeze_flow(zeros, a, b, c, xi, times):
    xi = complex(xi)
    ham = GaussianHamiltonian1M.squeezing(xi)
    return _cm_flow(zeros, a, b, c, ham, mm._squeeze_exponents, xi * times, times)


def _shear_flow(zeros, a, b, c, s, times):
    s = float(s)
    ham = GaussianHamiltonian1M.shearing(s)
    return _cm_flow(zeros, a, b, c, ham, mm._shear_exponents, s * times, times)


_FLOWS = {"D": _displacement_flow, "R": _rotation_flow, "S": _squeeze_flow, "P": _shear_flow}


def _evolve(state, flow, drive, t):
    zeros, gauss = flow(*_monic_form(state), drive, np.array([float(t)]))
    return _state_from_monic(zeros[:, 0], *gauss[0])


def evolve_displacement(state, alpha, t):
    """Evolution under the displacement drive alpha for time t: gate D(alpha*t)."""
    return _evolve(state, _displacement_flow, alpha, t)


def evolve_phaseshift(state, phi, t):
    """Evolution under the phase-shift drive phi for time t: gate R(phi*t)."""
    return _evolve(state, _rotation_flow, phi, t)


def evolve_squeezing(state, xi, t):
    """Evolution under the squeezing drive xi for time t: gate S(xi*t)."""
    xi = complex(xi)
    if xi == 0 or t == 0:
        return state
    try:
        return _evolve(state, _squeeze_flow, xi, t)
    except cm.CollisionError:
        warnings.warn(
            "zero collision in closed-form squeezing; using the section engine",
            stacklevel=2,
        )
        return mm.apply_gate(state, Squeeze(0, xi * t))


def evolve_shearing(state, s, t):
    """Evolution under the shearing drive s for time t: gate P(s*t)."""
    sigma = float(s) * t
    if sigma == 0:
        return state
    try:
        return _evolve(state, _shear_flow, s, t)
    except cm.CollisionError:
        warnings.warn(
            "zero collision in closed-form shearing; using the section engine",
            stacklevel=2,
        )
        return mm.apply_gate(state, Shear(0, sigma))


def closed_form_trajectory(state, kind, drive, times):
    """Zero/Gaussian paths from the closed forms on a grid of times.

    ``kind`` is one of 'D', 'R', 'S', 'P'. Zeros keep their labels: D and R
    carry each zero along its translation or rotation, S and P along its
    Calogero-Moser trajectory. S and P raise calogero.CollisionError when the
    state has a repeated zero, where the labels are undefined.
    """
    times = np.asarray(times, dtype=float)
    zeros, gauss = _FLOWS[kind](*_monic_form(state), drive, times)
    return ZeroTrajectory(times, zeros, gauss)


# ---------------------------------------------------------------------------
# brute-force dynamical system (the cross-check oracle)
# ---------------------------------------------------------------------------

def _system_derivative(y, n, hamiltonian):
    al, xi, phi = hamiltonian.alpha, hamiltonian.xi, hamiltonian.phi
    xis = np.conj(xi)
    a, b = y[0], y[1]
    lam = y[3 : 3 + n]
    vel = y[3 + n :]
    da = xis * a * a + 2j * phi * a - xi
    db = (1j * phi + xis * a) * b + al + np.conj(al) * a
    dc = 0.5 * xis * a - 0.5 * xis * b * b - np.conj(al) * b + n * (xis * a + 1j * phi)
    dlam = vel
    dvel = (abs(xi) ** 2 - phi**2) * lam + (xis * al - 1j * phi * np.conj(al))
    if n > 1:
        diff = lam[:, None] - lam[None, :]
        np.fill_diagonal(diff, 1.0)
        inv3 = diff**-3
        np.fill_diagonal(inv3, 0.0)
        dvel = dvel - 2.0 * xis**2 * np.sum(inv3, axis=1)
    return np.concatenate(([da, db, dc], dlam, dvel))


def ode_evolve(state, hamiltonian, t, dt=None):
    """Fixed-step RK4 integration of the coupled (a, b, c, lambda) system.

    Returns the full trajectory; the c-equation uses the generic Hamiltonian
    with the identity part dropped (see the module docstring for the shear
    phase offset). Aborts if zeros collide or the step goes unstable.
    """
    zeros0, a, b, c = _monic_form(state)
    if t == 0:
        g = np.array([[a, b, c]])
        return ZeroTrajectory(np.array([0.0]), zeros0.reshape(-1, 1), g)
    if dt is None:
        dt = 1e-4 * abs(t)
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = zeros0.size
    y0 = np.concatenate(([a, b, c], zeros0, initial_velocities(zeros0, a, b, hamiltonian)))
    steps = max(1, int(round(abs(t) / dt)))
    h = t / steps
    ys = cm._rk4_path(
        lambda y: _system_derivative(y, n, hamiltonian),
        y0,
        h,
        steps,
        slice(3, 3 + n),
        admissible=lambda y: abs(y[0]) < 1.0,
    )
    return ZeroTrajectory(np.arange(steps + 1) * h, ys[:, 3 : 3 + n].T, ys[:, :3])
