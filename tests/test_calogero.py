"""Calogero-Moser solver: eigenvalue route, RK4 reference, Lax diagnostics."""

import math

import numpy as np
import pytest

from hqcsim import calogero as cm
from conftest import multiset_distance


def cm_energy(system, q, p):
    """Calogero-Moser Hamiltonian value at a phase-space point."""
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    h = 0.5 * np.sum(p**2 + system.omega**2 * q**2)
    n = q.size
    for k in range(n):
        for j in range(n):
            if j != k:
                h += 0.5 * system.g**2 / (q[k] - q[j]) ** 2
    return complex(h)


def cm_solve_path_reference(system, times):
    """Per-step route: one eigvals and one linear_sum_assignment per time. A
    grid of two or more times that starts away from t = 0 is entered by
    walking from 0 to times[0] in ceil(|times[0]| / first spacing) equal steps."""
    from scipy.optimize import linear_sum_assignment

    times = np.asarray(times, dtype=float)
    lead = np.empty(0)
    if times.size > 1 and times[0] != 0 and times[1] != times[0]:
        steps = math.ceil(abs(times[0] / (times[1] - times[0])))
        lead = times[0] * np.arange(1, steps) / steps
    L0 = cm.lax_matrices(system.q0, system.p0, system.g).L
    Q0 = np.diag(system.q0)
    out = np.empty((system.n, lead.size + times.size), dtype=complex)
    prev = system.q0
    fcs, fss = cm._propagator(system.omega**2, np.concatenate((lead, times)))
    for i, (fc, fs) in enumerate(zip(fcs, fss)):
        vals = np.linalg.eigvals(Q0 * fc + L0 * fs)
        _, cols = linear_sum_assignment(np.abs(prev[:, None] - vals[None, :]) ** 2)
        prev = vals[cols]
        out[:, i] = prev
    return out[:, lead.size:]


def random_system(rng, n, omega, spread=1.5):
    while True:
        q0 = spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
        if n == 1 or cm._min_separation(q0) > 0.3:
            break
    p0 = 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    g = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return cm.CMSystem.make(q0, p0, g, omega)


class TestCmSolve:
    def test_single_free_particle(self):
        s = cm.CMSystem.make([1 + 1j], [0.5 - 0.2j], 0.9, 0.0)
        assert cm.cm_solve(s, 2.0)[0] == pytest.approx(1 + 1j + 2 * (0.5 - 0.2j))

    def test_single_harmonic(self):
        s = cm.CMSystem.make([1.0], [0.5], 0.4, 2.0)
        expect = np.cos(2 * 1.3) + 0.5 * np.sin(2 * 1.3) / 2.0
        assert cm.cm_solve(s, 1.3)[0] == pytest.approx(expect)

    @pytest.mark.parametrize("omega", [0.0, 1.1, 0.9j])
    def test_matches_ode(self, rng, omega):
        s = random_system(rng, 4, omega)
        t = 1.6
        assert multiset_distance(cm.cm_solve(s, t), cm.cm_ode(s, t, 2e-4)) < 1e-6

    def test_symmetric_pair(self, rng):
        s = cm.CMSystem.make([1.0, -1.0], [-0.4, 0.4], 0.8, 0.0)
        assert multiset_distance(cm.cm_solve(s, 1.0), cm.cm_ode(s, 1.0, 1e-4)) < 1e-6

    def test_collision_rejected_on_construction(self):
        with pytest.raises(cm.CollisionError):
            cm.CMSystem.make([0.0, 1e-9], [0, 0], 1.0)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the steps of cm_solve_path that use the assignment fallback."""
    calls = []
    match = cm._match_order

    def counted(cost):
        calls.append(len(cost))
        return match(cost)

    monkeypatch.setattr(cm, "_match_order", counted)
    return calls


# omega^2 > 0, < 0, = 0 and complex
OMEGAS = [1.1, 0.9j, 0.0, 0.8 * np.exp(0.6j)]


class TestSolvePath:
    @pytest.mark.parametrize("omega", OMEGAS)
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_resolved_grid_matches_reference(self, rng, fallbacks, omega, n, direction):
        s = random_system(rng, n, omega)
        # labels start from q0, so the grid starts at t = 0; more times than
        # one eigen-solve block, so labels cross block edges
        times = direction * np.linspace(0.0, 2.0, 2 * cm._PATH_BLOCK + 37)
        np.testing.assert_array_equal(
            cm.cm_solve_path(s, times), cm_solve_path_reference(s, times)
        )
        assert fallbacks == []

    @pytest.mark.parametrize("omega", [0.0, 1.1])
    def test_coarse_grid_falls_back(self, rng, fallbacks, omega):
        s = random_system(rng, 4, omega)
        times = np.linspace(0.0, 3.0, 4)
        np.testing.assert_array_equal(
            cm.cm_solve_path(s, times), cm_solve_path_reference(s, times)
        )
        assert fallbacks

    # cosh(800) overflows the matrix; at t = 700 it is finite but the squared
    # distances overflow, as they do for one particle moving by 1e200
    @pytest.mark.parametrize(
        "q0, p0, omega, times",
        [
            ([1.0, -1.0, 0.5j], [0.2, 0.1, -0.3], 1j, [0.0, 800.0]),
            ([1.0, -1.0, 0.5j], [0.2, 0.1, -0.3], 1j, [0.0, 350.0, 700.0]),
            ([0.0], [1e200], 0.0, [0.0, 1.0]),
        ],
        ids=["hyperbolic-matrix", "hyperbolic-cost", "one-particle-cost"],
    )
    def test_overflow_raises(self, q0, p0, omega, times):
        s = cm.CMSystem.make(q0, p0, 0.5, omega)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as ref:
                cm_solve_path_reference(s, times)
            with pytest.raises(type(ref.value), match=str(ref.value)):
                cm.cm_solve_path(s, times)

    def test_grid_away_from_zero_continues_q0(self, rng, fallbacks):
        # the rows equal those times taken from a walk resolved from t = 0;
        # labelling the first time by a minimal-cost match to q0 instead
        # permutes the rows of about half of these systems
        times = np.linspace(-0.5, 2.0, 549)
        walk = np.concatenate((np.linspace(0.0, -0.5, 400)[:-1], times))
        for _ in range(10):
            s = random_system(rng, 6, 1.1)
            np.testing.assert_allclose(
                cm.cm_solve_path(s, times), cm.cm_solve_path(s, walk)[:, -times.size:],
                rtol=0, atol=1e-12,
            )
        assert fallbacks == []

    def test_empty_grid(self):
        s = cm.CMSystem.make([1.0, -1.0], [0.2, 0.1], 0.5)
        assert cm.cm_solve_path(s, []).shape == (2, 0)


class TestCmOde:
    def test_free_straight_lines(self, rng):
        s = cm.CMSystem.make([0.0, 2.0], [1.0, -0.5], 0.0, 0.0)
        q = cm.cm_ode(s, 1.5, 1e-3)
        assert q == pytest.approx([1.5, 1.25])

    def test_uncoupled_oscillators(self):
        s = cm.CMSystem.make([1.0, -2.0], [0.0, 1.0], 0.0, 1.5)
        q = cm.cm_ode(s, 0.9, 1e-4)
        w = 1.5
        expect = [np.cos(w * 0.9), -2 * np.cos(w * 0.9) + np.sin(w * 0.9) / w]
        assert q == pytest.approx(expect, abs=1e-9)

    def test_energy_conserved(self, rng):
        s = random_system(rng, 4, 0.8)
        _, qs, ps = cm.cm_ode_path(s, 2.0, 5e-4)
        e0 = cm_energy(s, qs[:, 0], ps[:, 0])
        e1 = cm_energy(s, qs[:, -1], ps[:, -1])
        assert abs(e1 - e0) / abs(e0) < 1e-8

    def test_head_on_collision_detected(self):
        s = cm.CMSystem.make([-1.0, 1.0], [2.0, -2.0], 0.0, 0.0)
        with pytest.raises(cm.CollisionError):
            cm.cm_ode(s, 1.0, 1e-3)

    def test_time_reversal(self, rng):
        s = random_system(rng, 3, 0.9)
        _, qs, ps = cm.cm_ode_path(s, 1.5, 5e-4)
        back = cm.CMSystem.make(qs[:, -1], -ps[:, -1], s.g, s.omega)
        q_home = cm.cm_ode(back, 1.5, 5e-4)
        assert multiset_distance(q_home, s.q0) < 1e-6


class TestLax:
    def test_single_particle(self):
        pair = cm.lax_matrices([2.0], [0.7], 1.3)
        np.testing.assert_allclose(pair.L, [[0.7]])
        np.testing.assert_allclose(pair.M, [[0.0]])

    def test_two_particle_entries(self):
        pair = cm.lax_matrices([1.0, -1.0], [0.0, 0.0], 1.0)
        assert pair.L[0, 1] == pytest.approx(0.5j)
        assert pair.L[1, 0] == pytest.approx(-0.5j)

    def test_coincident_rejected(self):
        with pytest.raises(cm.CollisionError):
            cm.lax_matrices([1.0, 1.0], [0, 0], 1.0)

    @pytest.mark.parametrize("omega", [0.0, 1.1, 0.9j])
    def test_conserved_spectrum_along_trajectory(self, rng, omega):
        s = random_system(rng, 4, omega)
        _, qs, ps = cm.cm_ode_path(s, 1.8, 5e-4)
        s0 = cm.conserved_spectrum(qs[:, 0], ps[:, 0], s.g, s.omega)
        scale = max(np.max(np.abs(s0)), 1.0)
        for i in (900, 1800, 3600):
            si = cm.conserved_spectrum(qs[:, i], ps[:, i], s.g, s.omega)
            assert multiset_distance(si, s0) / scale < 1e-6


class TestScattering:
    def test_single_particle_identity(self):
        s = cm.CMSystem.make([0.5], [1.0], 0.8, 0.0)
        res = cm.scattering_permutation(s, 10.0)
        assert res.permutation == (0,)

    def test_head_on_transposition(self):
        s = cm.CMSystem.make([-3.0, 3.0], [1.0, -1.0], 0.9, 0.0)
        res = cm.scattering_permutation(s, 30.0)
        assert res.permutation == (1, 0)
        # exchanged momenta: outgoing multisets equal incoming, offsets to the
        # fit tolerance scale
        assert multiset_distance(res.p_in, res.p_out) < 1e-6
        tol = 1e-4 * np.max(np.abs(res.p_in)) * res.horizon
        assert multiset_distance(res.q_in, res.q_out) < tol

    def test_asymptotic_multisets(self, rng):
        s = random_system(rng, 3, 0.0)
        res = cm.scattering_permutation(s, 20.0)
        pscale = max(np.max(np.abs(res.p_in)), 1.0)
        assert multiset_distance(res.p_in, res.p_out) / pscale < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_route(self, rng, monkeypatch, n):
        s = random_system(rng, n, 0.0)
        got = cm.scattering_permutation(s, 20.0)
        monkeypatch.setattr(cm, "cm_solve_path", cm_solve_path_reference)
        ref = cm.scattering_permutation(s, 20.0)
        assert got.permutation == ref.permutation
        assert (got.residual, got.horizon) == (ref.residual, ref.horizon)
        for name in ("p_in", "q_in", "p_out", "q_out"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_requires_isolated(self, rng):
        s = random_system(rng, 2, 1.0)
        with pytest.raises(ValueError, match="isolated"):
            cm.scattering_permutation(s, 10.0)


class TestTrajectoryCsv:
    def test_columns(self, rng):
        from hqcsim import io as hio

        s = random_system(rng, 2, 0.0)
        times = np.linspace(0, 1, 11)
        path = cm.cm_solve_path(s, times)
        text = hio.cm_trajectory_csv(times, path)
        assert text.splitlines()[0] == "t,re_q1,im_q1,re_q2,im_q2"
        assert len(text.splitlines()) == 12
