"""Single-mode Gaussian evolution: closed forms, section engine, ODE oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from hqcsim import calogero as cm
from hqcsim import dynamics as dy
from hqcsim import multimode as mm
from hqcsim import states as st
from hqcsim.gates import Displace, Phase, Shear, Squeeze
from conftest import fock_vector, multiset_distance, random_single_mode_state, vectors_overlap

ROUTE_TOL = 1e-8
H = dy.GaussianHamiltonian1M


def gauss_abc(state):
    g = state.gauss
    return complex(g.A[0, 0]), complex(g.B[0]), complex(g.C)


class TestDisplacement:
    def test_vacuum_becomes_coherent(self):
        out = dy.evolve(st.StellarState.vacuum(1), H.displacement(1.0), 1.0)
        a, b, c = gauss_abc(out)
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(1.0)
        assert c == pytest.approx(-0.5)

    def test_time_zero_identity(self, rng):
        s = random_single_mode_state(rng, 3)
        out = dy.evolve(s, H.displacement(0.7 - 0.2j), 0.0)
        assert gauss_abc(out) == pytest.approx(gauss_abc(s))

    def test_zero_translation(self):
        s = st.from_zeros([0.0], 0, 0, 0)
        out = dy.evolve(s, H.displacement(1j), 2.0)
        # lambda(t) = conj(alpha) t + lambda(0)
        assert st.zeros_of(out)[0] == pytest.approx(-2j)

    def test_direct_matches_evolve(self, rng):
        s = random_single_mode_state(rng, 3)
        e1 = dy.evolve(s, H.displacement(0.4 + 0.3j), 1.0)
        e2 = mm.apply_gate(s, Displace.make([0.4 + 0.3j]))
        assert vectors_overlap(fock_vector(e1, 35), fock_vector(e2, 35)) > 1 - 1e-12

    def test_direct_on_vacuum(self):
        out = mm.apply_gate(st.StellarState.vacuum(1), Displace.make([1.0]))
        a, b, c = gauss_abc(out)
        assert (a, b, c) == pytest.approx((0.0, 1.0, -0.5))

    def test_direct_moves_fock1_zero(self):
        # F = z maps to e^{z - 1/2} (z - 1): the zero sits at +1 = alpha*
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        out = mm.apply_gate(f1, Displace.make([1.0]))
        assert st.zeros_of(out)[0] == pytest.approx(1.0)

    def test_product_formula_phase(self, rng):
        # D(a) D(b) = exp((a b* - a* b)/2) D(a+b), including the phase
        s = random_single_mode_state(rng, 2)
        al, be = 0.5 - 0.2j, -0.1 + 0.7j
        lhs = mm.apply_gate(mm.apply_gate(s, Displace.make([be])), Displace.make([al]))
        rhs = mm.apply_gate(s, Displace.make([al + be])).scaled(
            0.5 * (al * np.conj(be) - np.conj(al) * be)
        )
        u, v = fock_vector(lhs, 35), fock_vector(rhs, 35)
        assert np.max(np.abs(u - v)) < 1e-10


class TestPhaseShift:
    def test_a_rotation(self):
        s = st.StellarState.make(
            1, st.PolyPart.one(1), st.GaussPart.make([[0.5]], [0.0], 0.0)
        )
        out = dy.evolve(s, H.phase_shift(np.pi / 2), 1.0)
        a, _, _ = gauss_abc(out)
        assert a == pytest.approx(-0.5)

    def test_identity(self, rng):
        s = random_single_mode_state(rng, 2)
        out = dy.evolve(s, H.phase_shift(1.3), 0.0)
        assert vectors_overlap(fock_vector(out, 30), fock_vector(s, 30)) > 1 - 1e-12

    def test_zero_rotation(self):
        s = st.from_zeros([1.0], 0, 0, 0)
        out = dy.evolve(s, H.phase_shift(np.pi / 2), 1.0)
        assert st.zeros_of(out)[0] == pytest.approx(-1j)

    def test_direct_square(self):
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        out = mm.apply_gate(s, Phase(0, np.pi / 2))
        # (iz)^2 = -z^2
        assert out.poly.coeffs[(2,)] == pytest.approx(-1.0 / np.sqrt(2))

    def test_direct_matches_evolve(self, rng):
        s = random_single_mode_state(rng, 3)
        e1 = dy.evolve(s, H.phase_shift(0.9), 1.0)
        e2 = mm.apply_gate(s, Phase(0, 0.9))
        u, v = fock_vector(e1, 35), fock_vector(e2, 35)
        assert np.max(np.abs(u - v)) < 1e-10


class TestSqueezing:
    def test_vacuum_sign_convention(self):
        # S(r)|0> carries a = -tanh(r); the Fock-oracle test below fixes the
        # drive sign
        out = dy.evolve(st.StellarState.vacuum(1), H.squeezing(0.5), 1.0)
        a, b, _ = gauss_abc(out)
        assert a == pytest.approx(-np.tanh(0.5))
        assert b == 0

    def test_identity(self, rng):
        s = random_single_mode_state(rng, 2)
        assert dy.evolve(s, H.squeezing(0.4), 0.0) is s
        assert mm.apply_gate(s, Squeeze(0, 0)) is s

    def test_fock_oracle_direction(self):
        # truncated-Fock matrix exponential fixes the drive sign convention
        from hqcsim.fockspace import fock_oracle_apply

        xi = 0.4 * np.exp(0.7j)
        arr = st.to_fock_array(st.StellarState.vacuum(1), 40)
        oracle = fock_oracle_apply(arr, Squeeze(0, xi))
        mine = st.to_fock_array(
            dy.evolve(st.StellarState.vacuum(1), H.squeezing(xi), 1.0), 40, warn_tail=False
        )
        from hqcsim.fockspace import FockBasis

        b = FockBasis(1, 40)
        assert np.max(np.abs(b.vector(oracle) - b.vector(mine))) < 1e-9

    def test_fock1_matches_hermite_form(self):
        # squeezed Fock |1>: sqrt-of-factorial-weighted Hermite coefficients
        r = 0.5
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        out = mm.apply_gate(f1, Squeeze(0, r))
        # He_1(x) = x; closed form: tanh/cosh prefactors on z * e^{-tanh(r) z^2/2}
        coeffs = st.poly_coeffs_1m(out)
        a, _, c = gauss_abc(out)
        assert a == pytest.approx(-np.tanh(r))
        expect_c1 = coeffs[1] * np.exp(c)
        # the full prefactor: 1/cosh(r)^{3/2} on the z coefficient
        assert abs(expect_c1) == pytest.approx(np.cosh(r) ** -1.5, rel=1e-10)

    def test_three_routes_agree(self, rng):
        s = random_single_mode_state(rng, 3)
        xi, t = 0.5 * np.exp(1.1j), 0.9
        e1 = dy.evolve(s, H.squeezing(xi), t)
        e2 = mm.apply_gate(s, Squeeze(0, xi * t))
        e3 = dy.ode_evolve(s, dy.GaussianHamiltonian1M.squeezing(xi), t, dt=5e-4).state_at(-1)
        u1, u2, u3 = (fock_vector(e, 45) for e in (e1, e2, e3))
        assert vectors_overlap(u1, u2) > 1 - ROUTE_TOL
        assert vectors_overlap(u1, u3) > 1 - ROUTE_TOL
        assert np.max(np.abs(u1 - u2)) < 1e-9


class TestShearing:
    def test_identity(self, rng):
        s = random_single_mode_state(rng, 2)
        assert dy.evolve(s, H.shearing(0.8), 0.0) is s

    def test_single_zero_motion(self):
        # one zero at 1, a=b=0, s=1, t=1: Lambda = lambda0 - i s t lambda0
        s = st.from_zeros([1.0], 0, 0, 0)
        out = dy.evolve(s, H.shearing(1.0), 1.0)
        assert st.zeros_of(out)[0] == pytest.approx(1.0 - 1.0j)

    def test_fig4_cyclic_exchange(self):
        # Three zeros at 0, +i/2, -i/2 under unit shearing. The polynomial is
        # odd and the shear generator preserves parity, so the central zero is
        # pinned at the origin for all times; the two moving trajectories
        # exchange their asymptotic lines cyclically between input and output.
        zeros = np.array([0.0, 0.5j, -0.5j])
        ham = dy.GaussianHamiltonian1M.shearing(1.0)
        v0 = dy.initial_velocities(zeros, 0, 0, ham)
        system = cm.CMSystem.make(zeros, v0, 1.0, 0.0)
        res = cm.scattering_permutation(system, 3.0)
        moved = [k for k in range(3) if res.permutation[k] != k]
        assert len(moved) == 2 and tuple(sorted(moved)) == tuple(sorted(res.permutation[k] for k in moved))
        # asymptotic momenta conserved as multisets
        from conftest import multiset_distance

        assert multiset_distance(res.p_in, res.p_out) < 1e-6
        # central zero pinned by parity along the whole closed-form trajectory
        s = st.from_zeros(zeros, 0, 0, 0)
        times = np.linspace(-3.0, 3.0, 241)
        traj = dy.closed_form_trajectory(s, H.shearing(1.0), times)
        central = np.min(np.abs(traj.zeros), axis=0)
        assert np.max(central) < 1e-8

    def test_three_routes_agree(self, rng):
        s = random_single_mode_state(rng, 3)
        sh, t = 0.8, 1.1
        # the flow drops the identity term of the shear Hamiltonian
        e1 = dy.evolve(s, H.shearing(sh), t).scaled(0.5j * sh * t)
        e2 = mm.apply_gate(s, Shear(0, sh * t))
        # generic Hamiltonian evolution misses the -s/2 identity term of the
        # shear Hamiltonian: add the phase back
        e3 = dy.ode_evolve(s, dy.GaussianHamiltonian1M.shearing(sh), t, dt=5e-4)
        e3 = e3.state_at(-1).scaled(0.5j * sh * t)
        u1, u2, u3 = (fock_vector(e, 45) for e in (e1, e2, e3))
        assert vectors_overlap(u1, u2) > 1 - ROUTE_TOL
        assert vectors_overlap(u1, u3) > 1 - ROUTE_TOL
        assert np.max(np.abs(u1 - u2)) < 1e-9

    def test_shear_squeeze_identity(self, rng):
        # P(s) = e^{i phi/2} R(phi) S(xi), phi = arg(1+is), r = asinh(s),
        # theta = pi/2 - phi (orientation fixed against the Fock oracle)
        s = random_single_mode_state(rng, 2)
        sh = 1.3
        phi = np.angle(1 + 1j * sh)
        xi = np.arcsinh(sh) * np.exp(1j * (np.pi / 2 - phi))
        lhs = mm.apply_gate(s, Shear(0, sh))
        rhs = mm.apply_gate(mm.apply_gate(s, Squeeze(0, xi)), Phase(0, phi)).scaled(0.5j * phi)
        u, v = fock_vector(lhs, 45), fock_vector(rhs, 45)
        assert np.max(np.abs(u - v)) < 1e-8

    def test_repeated_zero_matches_gate_and_oracle(self):
        # a double zero has no Calogero-Moser labels; evolve never needs them
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        out = dy.evolve(s, H.shearing(0.5), 1.0)
        ref = mm.apply_gate(s, Shear(0, 0.5))
        assert vectors_overlap(fock_vector(out, 35), fock_vector(ref, 35)) > 1 - 1e-12
        from hqcsim.fockspace import FockBasis, fock_oracle_apply

        arr = st.to_fock_array(s, 35, warn_tail=False)
        oracle = fock_oracle_apply(arr, Shear(0, 0.5), loss_tol=1.0)
        assert vectors_overlap(fock_vector(out, 35), FockBasis(1, 35).vector(oracle)) > 1 - 1e-8


def fock_expm(state, ham, t, cutoff):
    """exp(tX) on the truncated Fock vector of ``state``, X the generator of ``ham``."""
    from scipy.sparse.linalg import expm_multiply

    from hqcsim.fockspace import FockBasis

    basis = FockBasis(1, cutoff)
    ad, an = basis.creation(0), basis.annihilation(0)
    al, xi = ham.alpha, ham.xi
    gen = (al * ad - np.conj(al) * an + 0.5 * (xi * (ad @ ad) - np.conj(xi) * (an @ an))
           + 1j * ham.phi * (ad @ an))
    return expm_multiply(t * gen, fock_vector(state, cutoff))


class TestClosedFormTrajectory:
    def test_repeated_zero_with_displacement_matches_fock_expm(self):
        # squeezing, phase and displacement drives on a double zero: one route
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        ham = H(alpha=0.3, xi=0.5j, phi=0.2)
        out = dy.evolve(s, ham, 1.0)
        assert st.norm_squared(out) == pytest.approx(1.0, abs=1e-12)
        expect = fock_expm(s, ham, 1.0, 70)
        assert np.max(np.abs(fock_vector(out, 70) - expect)) < 1e-8

    @pytest.mark.parametrize("kind, drive", [("S", 0.5j), ("P", 0.5)])
    def test_repeated_zero_raises(self, kind, drive):
        # |2> has a double zero at the origin: eigenvalue labels are undefined
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        ham = {"S": H.squeezing, "P": H.shearing}[kind](drive)
        with pytest.raises(cm.CollisionError):
            dy.closed_form_trajectory(s, ham, np.linspace(0.0, 1.0, 11))

    @settings(max_examples=30)
    @given(
        zeros=hst.lists(
            hst.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
            max_size=5,
        ),
        gauss=hst.tuples(
            hst.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
            hst.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        ),
        xi=hst.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        shear=hst.floats(-1.0, 1.0),
        t=hst.floats(-1.0, 1.0),
    )
    def test_closed_form_matches_section_engine(self, zeros, gauss, xi, shear, t):
        zeros = np.array(zeros, dtype=complex)
        gaps = np.abs(zeros[:, None] - zeros[None, :]) + 9.0 * np.eye(zeros.size)
        assume(zeros.size < 2 or np.min(gaps) >= 0.2)
        s = st.normalized(st.from_zeros(zeros, gauss[0], gauss[1], 0.0))
        times = np.linspace(0.0, t, 41)
        # the P gate is exp(i s t/2) times the identity-free shear flow
        for ham, gate, phase in (
            (H.squeezing(xi), Squeeze(0, xi * t), 0.0),
            (H.shearing(shear), Shear(0, shear * t), 0.5j * shear * t),
        ):
            closed = dy.evolve(s, ham, t).scaled(phase)
            u = fock_vector(closed, 40)
            assert np.max(np.abs(u - fock_vector(mm.apply_gate(s, gate), 40))) < 1e-9
            traj = dy.closed_form_trajectory(s, ham, times)
            assert np.max(np.abs(u - fock_vector(traj.state_at(-1).scaled(phase), 40))) < 1e-9


class TestInitialVelocities:
    def test_displacement_only(self):
        ham = dy.GaussianHamiltonian1M.displacement(0.3 - 0.4j)
        v = dy.initial_velocities([1.0, -2.0], 0.2, 0.1, ham)
        assert v == pytest.approx([0.3 + 0.4j, 0.3 + 0.4j])

    def test_phase_only(self):
        ham = dy.GaussianHamiltonian1M.phase_shift(0.7)
        zeros = np.array([1.0 + 0.5j, -0.3j])
        v = dy.initial_velocities(zeros, 0.0, 0.0, ham)
        assert v == pytest.approx(-1j * 0.7 * zeros)

    def test_interaction_terms(self):
        ham = dy.GaussianHamiltonian1M.squeezing(1j)
        v = dy.initial_velocities([1.0, -1.0], 0.0, 0.0, ham)
        xis = np.conj(1j)
        assert v == pytest.approx([xis / 2.0, -xis / 2.0])

    def test_finite_difference_of_ode(self, rng):
        s = st.from_zeros([1.0, -1.0], 0, 0, 0)
        ham = dy.GaussianHamiltonian1M.squeezing(1j)
        h = 1e-3
        fwd = dy.ode_evolve(s, ham, h, dt=1e-6).zeros[:, -1]
        bwd = dy.ode_evolve(s, ham, -h, dt=1e-6).zeros[:, -1]
        v_fd = (fwd - bwd) / (2 * h)
        v = dy.initial_velocities([1.0, -1.0], 0.0, 0.0, ham)
        assert v_fd == pytest.approx(v, abs=1e-5)

    def test_collision_rejected(self):
        with pytest.raises(cm.CollisionError):
            dy.initial_velocities([0.5, 0.5], 0, 0, dy.GaussianHamiltonian1M.squeezing(1))


class TestOdeEvolve:
    def test_zero_hamiltonian_constant(self, rng):
        s = random_single_mode_state(rng, 2)
        traj = dy.ode_evolve(s, dy.GaussianHamiltonian1M(), 1.0, dt=1e-2)
        assert np.max(np.abs(traj.zeros[:, -1] - traj.zeros[:, 0])) < 1e-12
        assert traj.gauss_path[-1] == pytest.approx(traj.gauss_path[0])

    def test_matches_displacement_closed_form(self):
        s = st.from_zeros([0.3 + 0.2j], 0.1, 0.05, 0.0)
        ham = dy.GaussianHamiltonian1M.displacement(1.0)
        out = dy.ode_evolve(s, ham, 1.0, dt=1e-4).state_at(-1)
        ref = dy.evolve(s, ham, 1.0)
        u, v = fock_vector(out, 30), fock_vector(ref, 30)
        assert np.max(np.abs(u - v)) < 1e-8

    def test_gaussian_path_decoupled_from_zeros(self, rng):
        # perturbing the zeros leaves the (a, b, c) path unchanged
        zeros = np.array([1.0, -0.8 + 0.4j, 0.5j])
        ham = dy.GaussianHamiltonian1M(alpha=0.2, xi=0.5j, phi=0.3)
        s1 = st.from_zeros(zeros, 0.2, 0.1, 0.0)
        s2 = st.from_zeros(zeros + 0.3 * rng.normal(size=3), 0.2, 0.1, 0.0)
        t1 = dy.ode_evolve(s1, ham, 1.0, dt=1e-3)
        t2 = dy.ode_evolve(s2, ham, 1.0, dt=1e-3)
        assert np.max(np.abs(t1.gauss_path - t2.gauss_path)) < 1e-8

    def test_admissibility_along_path(self, rng):
        s = random_single_mode_state(rng, 2)
        ham = dy.GaussianHamiltonian1M(xi=0.9, phi=0.2)
        traj = dy.ode_evolve(s, ham, 2.0, dt=1e-3)
        assert np.max(np.abs(traj.gauss_path[:, 0])) < 1.0

    @pytest.mark.parametrize("ham", [H.displacement(0.5), H.phase_shift(0.7)])
    def test_free_repeated_zeros(self, ham):
        # without squeezing the zeros do not interact, so |2>'s double zero is fine
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        ode = dy.ode_evolve(s, ham, 1.0, dt=1e-3)
        closed = dy.closed_form_trajectory(s, ham, ode.times)
        assert np.max(np.abs(closed.zeros - ode.zeros)) < 1e-10
        assert np.max(np.abs(closed.gauss_path - ode.gauss_path)) < 1e-10

    def test_rejects_bad_input(self, rng):
        s = st.from_fock_superposition({(2,): 1.0}, 1)  # double zero at 0
        with pytest.raises(cm.CollisionError):
            dy.ode_evolve(s, dy.GaussianHamiltonian1M.shearing(1.0), 1.0, dt=1e-3)
        with pytest.raises(ValueError):
            dy.ode_evolve(random_single_mode_state(rng, 1),
                          dy.GaussianHamiltonian1M(), 1.0, dt=-1.0)

    def test_classification(self):
        assert dy.GaussianHamiltonian1M.shearing(1.0).classification() == "parabolic"
        assert dy.GaussianHamiltonian1M(xi=0.2, phi=0.9).classification() == "elliptic"
        assert dy.GaussianHamiltonian1M(xi=0.9, phi=0.2).classification() == "hyperbolic"


class TestNormPreservation:
    @pytest.mark.parametrize("gate", ["D", "R", "S", "P"])
    def test_unitary_preserves_norm(self, rng, gate):
        # the closed-form norm stays exact however strong the evolved squeezing
        s = random_single_mode_state(rng, 3)
        s = s.scaled(-0.5 * np.log(st.norm_squared(s)))
        evolv = {
            "D": H.displacement(0.6 - 0.1j),
            "R": H.phase_shift(0.8),
            "S": H.squeezing(0.5j),
            "P": H.shearing(0.7),
        }[gate]
        assert st.norm_squared(dy.evolve(s, evolv, 1.2)) == pytest.approx(1.0, abs=1e-9)


class TestTrajectoryExport:
    def test_csv_columns(self, rng):
        from hqcsim import io as hio

        s = st.from_zeros([0.4, -0.6j], 0.1, 0.0, 0.0)
        traj = dy.ode_evolve(s, dy.GaussianHamiltonian1M.shearing(0.5), 0.5, dt=0.05)
        text = hio.trajectory_csv(traj)
        header = text.splitlines()[0].split(",")
        assert header == [
            "t", "re_lambda1", "im_lambda1", "re_lambda2", "im_lambda2",
            "re_a", "im_a", "re_b", "im_b", "re_c", "im_c",
        ]
        assert len(text.splitlines()) == len(traj.times) + 1


def _route_distance(x, y):
    """Largest distance between the final zeros (as multisets) and (a, b, c)."""
    zx, zy = x.zeros[:, -1], y.zeros[:, -1]
    dz = multiset_distance(zx, zy) if zx.size else 0.0
    return max(dz, float(np.max(np.abs(x.gauss_path[-1] - y.gauss_path[-1]))))


class TestCombinedClosedForm:
    """The closed form for any (alpha, xi, phi) against RK4 and the Fock oracle."""

    @settings(max_examples=30)
    @given(
        zeros=hst.lists(
            hst.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        a=hst.complex_numbers(max_magnitude=0.89, allow_nan=False, allow_infinity=False),
        b=hst.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        alpha=hst.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        xi=hst.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        # None puts phi on the parabolic line |phi| = |xi|, with the sign of t
        phi=hst.one_of(hst.none(), hst.floats(-1.0, 1.0)),
        t=hst.floats(-1.5, 1.5),
    )
    def test_matches_ode_with_step_doubling(self, zeros, a, b, alpha, xi, phi, t):
        zeros = np.array(zeros, dtype=complex)
        gaps = np.abs(zeros[:, None] - zeros[None, :]) + 9.0 * np.eye(zeros.size)
        assume(zeros.size < 2 or np.min(gaps) >= 0.2)
        assume(abs(t) > 1e-3)
        ham = H(alpha=alpha, xi=xi, phi=abs(xi) * np.sign(t) if phi is None else phi)
        s = st.from_zeros(zeros, a, b, 0.1j)
        dt = abs(t) / 300
        coarse = dy.ode_evolve(s, ham, t, dt=dt)
        fine = dy.ode_evolve(s, ham, t, dt=dt / 2)
        closed = dy.closed_form_trajectory(s, ham, fine.times)
        scale = 1.0 + float(np.max(np.abs(fine.zeros[:, -1]), initial=0.0))
        bound = 1e-9 * scale + 2.0 * _route_distance(coarse, fine)
        assert _route_distance(closed, fine) <= bound

    @pytest.mark.parametrize("ham, t", [
        (H(alpha=0.3 - 0.2j, xi=0.25j, phi=0.6), 1.0),    # elliptic
        (H(alpha=-0.2j, xi=0.4 + 0.2j, phi=0.1), -0.8),   # hyperbolic
        (H(alpha=0.25, xi=0.3j, phi=0.3), 1.2),          # parabolic (shear + alpha)
        (H(alpha=0.4 + 0.1j), 0.9),                      # displacement alone
    ])
    def test_matches_fock_expm(self, ham, t):
        s = st.normalized(st.from_zeros([0.5 + 0.2j, -0.3 + 0.4j], 0.15j, 0.1, 0.0))
        got = fock_vector(dy.evolve(s, ham, t), 70)
        assert np.max(np.abs(got - fock_expm(s, ham, t, 70))) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        # separated zeros: a unit ring of up to 4 points, each moved by at most 0.3
        moves=hst.lists(
            hst.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        a=hst.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False),
        b=hst.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        alpha=hst.one_of(hst.just(0j), hst.complex_numbers(
            min_magnitude=0.1, max_magnitude=0.5, allow_nan=False, allow_infinity=False)),
        xi=hst.one_of(hst.just(0j), hst.complex_numbers(
            min_magnitude=0.1, max_magnitude=0.6, allow_nan=False, allow_infinity=False)),
        phi=hst.one_of(hst.just(0.0), hst.floats(-0.8, 0.8)),
        t=hst.floats(-1.0, 1.0).filter(lambda t: abs(t) > 1e-3),
    )
    def test_three_routes_agree_in_fock_amplitudes(self, moves, a, b, alpha, xi, phi, t):
        n = len(moves)
        zeros = np.exp(2j * np.pi * np.arange(n) / n) + np.array(moves, dtype=complex)
        ham = H(alpha=alpha, xi=xi, phi=phi)
        s = st.normalized(st.from_zeros(zeros, a, b, 0.0))
        traj = dy.closed_form_trajectory(s, ham, np.linspace(0.0, t, 201))
        # RK4 reaches 1e-10 while the zeros stay apart
        assume(min(map(cm._min_separation, traj.zeros.T)) >= 0.4)
        u = fock_vector(dy.evolve(s, ham, t), 40)
        ode = dy.ode_evolve(s, ham, t, steps=2000).state_at(-1)
        assert np.max(np.abs(u - fock_vector(traj.state_at(-1), 40))) < 1e-10
        assert np.max(np.abs(u - fock_vector(ode, 40))) < 1e-10

    @pytest.mark.parametrize("turns", [1, 3])
    @pytest.mark.parametrize("xi, phi", [(0j, 1.0), (0.3, 1.0), (0.6j, 1.0)])
    def test_odd_half_turns_match_fock_expm(self, xi, phi, turns):
        # omega t = pi, 3 pi: y = -1, and sin(omega t) rounds to about 1e-16 on
        # either side of the branch cut; the global phase counts (the oracle
        # needs cutoff 100 under squeezing: 4e-7 of truncation error at 70)
        ham = H(xi=xi, phi=phi)
        t = turns * np.pi / np.sqrt(ham.omega2)
        s = st.normalized(st.from_zeros([0.5 + 0.2j, -0.3 + 0.4j], 0.15j, 0.1, 0.0))
        got = fock_vector(dy.evolve(s, ham, t), 100)
        assert np.max(np.abs(got - fock_expm(s, ham, t, 100))) < 1e-8

    def test_trajectory_through_a_half_turn_is_continuous(self):
        ham = H.phase_shift(1.0)
        times = np.pi * (np.arange(81) / 40)  # holds pi and 2 pi exactly
        assert times[40] == np.pi
        s = st.normalized(st.from_zeros([0.5 + 0.2j, -0.3 + 0.4j], 0.15j, 0.1, 0.0))
        traj = dy.closed_form_trajectory(s, ham, times)
        assert np.max(np.abs(np.diff(traj.gauss_path[:, 2]))) < 1.0  # c moves ~0.2 a step
        got = fock_vector(traj.state_at(40), 70)
        assert np.max(np.abs(got - fock_expm(s, ham, np.pi, 70))) < 1e-9

    @pytest.mark.parametrize("t", [4.0, -4.0])
    def test_log_winding(self, t):
        # omega |t| = 7.7 > 2 pi: y = fc - k fs crosses the negative real axis
        # twice, and c follows the continued log y
        ham = H(alpha=0.2 - 0.1j, xi=0.5 * np.exp(0.4j), phi=-2.0)
        s = st.from_zeros([0.6, -0.4 + 0.5j], 0.3 - 0.2j, 0.2, 0.0)
        ode = dy.ode_evolve(s, ham, t, dt=1e-3)
        closed = dy.closed_form_trajectory(s, ham, ode.times)
        assert abs(ham.phi) * abs(t) > 2 * np.pi
        assert np.max(np.abs(closed.gauss_path - ode.gauss_path)) < 1e-9
        assert _route_distance(closed, ode) < 1e-9
