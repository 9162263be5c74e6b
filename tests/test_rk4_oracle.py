"""The scalar RK4 oracle against the numpy route it replaced.

``calogero._rk4_path`` steps lists of Python complex scalars, and
``calogero._pair_forces`` sums each pair once. The functions below are the
former numpy route, kept as the reference: the same RK4 loop on arrays, the
pair sums of the full difference matrix, and the derivatives of the
Calogero-Moser and (a, b, c, lambda) systems built per call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hqcsim import calogero as cm
from hqcsim import dynamics as dy
from hqcsim import states as st

H = dy.GaussianHamiltonian1M


def _inverse_cubes(q):
    """sum_{j != k} (q_k - q_j)^-3 for each k."""
    n = q.size
    diff = np.subtract.outer(q, q)
    diff.ravel()[:: n + 1] = 1.0
    inv3 = diff**-3
    inv3.ravel()[:: n + 1] = 0.0
    return inv3.sum(axis=1)


def _cm_derivative(system, y):
    n = system.n
    q, p = y[:n], y[n:]
    out = np.empty_like(y)
    out[:n] = p
    out[n:] = -system.omega**2 * q
    if n > 1:
        out[n:] += 2.0 * system.g**2 * _inverse_cubes(q)
    return out


def _system_derivative(y, n, hamiltonian):
    al, xi, phi = complex(hamiltonian.alpha), complex(hamiltonian.xi), hamiltonian.phi
    xis, alc = xi.conjugate(), al.conjugate()
    a, b = complex(y[0]), complex(y[1])
    lam = y[3 : 3 + n]
    out = np.empty_like(y)
    out[0] = xis * a * a + 2j * phi * a - xi
    out[1] = (1j * phi + xis * a) * b + al + alc * a
    out[2] = 0.5 * xis * a - 0.5 * xis * b * b - alc * b + n * (xis * a + 1j * phi)
    out[3 : 3 + n] = y[3 + n :]
    out[3 + n :] = (abs(xi) ** 2 - phi**2) * lam + (xis * al - 1j * phi * alc)
    if n > 1 and xi:
        out[3 + n :] -= 2.0 * xis**2 * _inverse_cubes(lam)
    return out


def _rk4_path(deriv, y0, h, steps, positions, admissible=None):
    ys = np.empty((steps + 1, y0.size), dtype=complex)
    ys[0] = y = y0
    with np.errstate(all="ignore"):  # non-finite states raise below
        for i in range(1, steps + 1):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * h * k1)
            k3 = deriv(y + 0.5 * h * k2)
            k4 = deriv(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(y).all() or (admissible and not admissible(y)):
                raise RuntimeError(f"integration unstable at t={i * h:.6g}; reduce dt")
            sep = cm._min_separation(y[positions])
            if sep < cm.DELTA_COLLIDE:
                raise cm.CollisionError(
                    f"particles collided at t={i * h:.6g} (min separation {sep:.3e})"
                )
            ys[i] = y
    return ys


def ode_evolve_reference(state, hamiltonian, t, dt):
    """(times, zeros path, gauss path) of the numpy route for t != 0."""
    zeros0, a, b, c = dy._monic_form(state)
    n = zeros0.size
    y0 = np.concatenate(([a, b, c], zeros0, dy.initial_velocities(zeros0, a, b, hamiltonian)))
    steps = max(1, int(round(abs(t) / dt)))
    h = t / steps
    ys = _rk4_path(
        lambda y: _system_derivative(y, n, hamiltonian), y0, h, steps,
        slice(3, 3 + n if hamiltonian.xi else 3), admissible=lambda y: abs(y[0]) < 1.0,
    )
    return np.arange(steps + 1) * h, ys[:, 3 : 3 + n].T, ys[:, :3]


def cm_ode_path_reference(system, t, dt):
    steps = max(1, int(round(abs(t) / dt)))
    n = system.n
    y0 = np.concatenate([system.q0, system.p0]).astype(complex)
    ys = _rk4_path(lambda y: _cm_derivative(system, y), y0, t / steps, steps, slice(0, n))
    return np.linspace(0.0, t, steps + 1), ys[:, :n].T, ys[:, n:].T


def _ring(rng, n, radius):
    """n points near a circle, at least about radius / n apart."""
    angles = 2 * np.pi * (np.arange(n) + 0.4 * rng.uniform(size=n)) / n
    return radius * rng.uniform(0.8, 1.2, n) * np.exp(1j * angles)


def _outcome(run):
    """The value of ``run()``, or the type and message of its error."""
    try:
        return run()
    except (RuntimeError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_paths_match(got, ref):
    if isinstance(ref[0], type):  # both raise, alike and at the same step
        assert got == ref
        return
    assert not isinstance(got[0], type), got
    for x, y in zip(got, ref):
        assert x.shape == y.shape
        scale = max(1.0, float(np.max(np.abs(y), initial=0.0)))
        assert np.max(np.abs(x - y), initial=0.0) <= 1e-12 * scale


_seeds = hst.integers(0, 2**32 - 1)
_times = hst.floats(-0.6, 0.6).filter(lambda t: abs(t) > 1e-3)


class TestScalarRk4:
    @settings(max_examples=40)
    @given(seed=_seeds, n=hst.integers(0, 8), t=_times)
    def test_ode_evolve_matches_numpy_route(self, seed, n, t):
        rng = np.random.default_rng(seed)
        a, alpha, xi = (rng.uniform(0, r) * np.exp(2j * np.pi * rng.uniform()) for r in (0.5, 1, 0.8))
        s = st.from_zeros(_ring(rng, n, 1.5), a, 0.4 * (rng.normal() + 1j * rng.normal()), 0.1j)
        ham = H(alpha=alpha, xi=xi if rng.uniform() < 0.8 else 0j, phi=rng.uniform(-1.0, 1.0))
        dt = abs(t) / 40

        def run():
            traj = dy.ode_evolve(s, ham, t, dt=dt)
            return traj.times, traj.zeros, traj.gauss_path

        _assert_paths_match(_outcome(run), _outcome(lambda: ode_evolve_reference(s, ham, t, dt)))

    @settings(max_examples=40)
    @given(seed=_seeds, n=hst.integers(1, 8), t=_times)
    def test_cm_ode_path_matches_numpy_route(self, seed, n, t):
        rng = np.random.default_rng(seed)
        p0 = 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        g, omega = (r * np.exp(2j * np.pi * rng.uniform()) for r in (0.7, rng.uniform(0, 0.8)))
        system = cm.CMSystem.make(_ring(rng, n, 1.0 + 0.3 * n), p0, g, omega)
        dt = abs(t) / 40
        got = _outcome(lambda: cm.cm_ode_path(system, t, dt))
        _assert_paths_match(got, _outcome(lambda: cm_ode_path_reference(system, t, dt)))

    @pytest.mark.parametrize("t", [1.5, -1.5])
    def test_head_on_collision(self, t):
        # a free pair sent at each other meets at |t| = 1: the separation check fires
        system = cm.CMSystem.make([-1.0, 1.0], [np.sign(t), -np.sign(t)], 0.0)
        ref = _outcome(lambda: cm_ode_path_reference(system, t, 0.01))
        assert ref[0] is cm.CollisionError and f"at t={np.sign(t):g} " in ref[1]
        assert _outcome(lambda: cm.cm_ode_path(system, t, 0.01)) == ref

    def test_blow_up_of_a(self):
        # |a| -> 1 under a strong squeeze at a coarse step: RK4 leaves the unit disc
        s = st.from_zeros([0.3, -0.2], 0.99, 0.0, 0.0)
        ham = H.squeezing(5.0)
        ref = _outcome(lambda: ode_evolve_reference(s, ham, 2.0, 0.5))
        assert ref == (RuntimeError, "integration unstable at t=1.5; reduce dt")
        got = _outcome(lambda: dy.ode_evolve(s, ham, 2.0, dt=0.5))
        assert got == ref
