"""Multimode Gaussian action, decompositions, and entanglement analysis."""

from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hqcsim import fockspace as fs
from hqcsim import multimode as mm
from hqcsim import states as st
from hqcsim.gates import Displace, Passive, Phase, Shear, Squeeze, beamsplitter_matrix
from conftest import (
    assert_states_close,
    fock_vector,
    partly_coupled_gauss,
    poly_added,
    random_admissible_gauss,
    random_poly,
    random_state,
    random_unitary,
    states_overlap_via_fock,
    vectors_agreement,
    vectors_overlap,
)

ORACLE_TOL = 1e-8


def oracle_apply(state, gate, cutoff):
    arr = st.to_fock_array(state, cutoff, warn_tail=False)
    out = fs.fock_oracle_apply(arr, gate, loss_tol=1.0)
    return fs.FockBasis(state.modes, cutoff).vector(out)


def gate_agreement_vs_oracle(state, gate, cutoff=32):
    """Re<oracle|mine> / norms: the global phase counts."""
    mine = mm.apply_gate(state, gate)
    return vectors_agreement(oracle_apply(state, gate, cutoff), fock_vector(mine, cutoff))


class TestPassive:
    def test_identity(self, rng):
        s = random_state(rng, 2, 2)
        out = mm.apply_passive(s, Passive.make(np.eye(2)))
        assert states_overlap_via_fock(out, s, 25) > 1 - 1e-12

    def test_hong_ou_mandel_structure(self):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        out = mm.apply_passive(s, Passive.make(beamsplitter_matrix()))
        assert out.poly.coeffs[(2, 0)] == pytest.approx(0.5)
        assert out.poly.coeffs[(0, 2)] == pytest.approx(-0.5)
        assert (1, 1) not in out.poly.coeffs

    def test_two_mode_squeezed_cross_term(self, rng):
        lam = 0.45
        A = np.array([[0.0, -lam], [-lam, 0.0]])
        s = st.StellarState.make(2, st.PolyPart.one(2), st.GaussPart.make(A, [0, 0], 0))
        U = random_unitary(rng, 2)
        out = mm.apply_passive(s, Passive.make(U))
        np.testing.assert_allclose(out.gauss.A, U.T @ A @ U, atol=1e-12)
        assert gate_agreement_vs_oracle(st.normalized(s), Passive.make(U), 25) > 1 - 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            Passive.make([[1.0, 0.0], [0.1, 1.0]])

    def test_rank_unchanged(self, rng):
        s = random_state(rng, 3, 3)
        out = mm.apply_passive(s, Passive.make(random_unitary(rng, 3)))
        assert st.stellar_rank(out) == 3

    def test_rank_zero_keeps_its_constant(self, rng):
        # P(Uz) = P for a constant P: no substitution is made
        s = st.StellarState.make(3, st.PolyPart.make({(0, 0, 0): 0.7 - 0.2j}),
                                 random_admissible_gauss(rng, 3))
        U = random_unitary(rng, 3)
        with mock.patch.object(mm, "_subst_linear", side_effect=AssertionError) as subst:
            out = mm.apply_passive(s, Passive.make(U))
        assert not subst.called
        ref = mm._subst_linear(s.poly, U)
        assert out.poly.coeffs.keys() == ref.coeffs.keys()
        for n, c in ref.coeffs.items():
            assert abs(out.poly.coeffs[n] - c) <= 1e-15 * abs(c)
        np.testing.assert_allclose(out.gauss.A, U.T @ s.gauss.A @ U, rtol=0, atol=1e-15)


class TestDisplace:
    def test_zero_identity(self, rng):
        s = random_state(rng, 2, 1)
        out = mm.apply_displace(s, [0, 0])
        assert states_overlap_via_fock(out, s, 20) > 1 - 1e-12

    def test_vacuum_to_coherent_product(self):
        out = mm.apply_displace(st.StellarState.vacuum(2), [1.0, 0.0])
        np.testing.assert_allclose(out.gauss.B, [1.0, 0.0])
        assert out.gauss.C == pytest.approx(-0.5)

    def test_zero_translates_in_section(self, rng):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        beta = 0.6 - 0.2j
        out = mm.apply_displace(s, [beta, 0.0])
        assert gate_agreement_vs_oracle(s, Displace.make([beta, 0.0]), 30) > 1 - ORACLE_TOL
        # z1 section zero moved to conj(beta)
        section = [
            (idx[0], c) for idx, c in out.poly.coeffs.items() if idx[1] == 1
        ]
        coeffs = np.zeros(2, dtype=complex)
        for k, c in section:
            coeffs[k] = c
        assert -coeffs[0] / coeffs[1] == pytest.approx(np.conj(beta))


class TestSqueezeMode:
    def test_vacuum_two_modes(self):
        r, th = 0.5, 0.9
        out = mm.apply_gate(st.StellarState.vacuum(2), Squeeze(0, r * np.exp(1j * th)))
        assert out.gauss.A[0, 0] == pytest.approx(-np.exp(1j * th) * np.tanh(r))
        assert out.gauss.A[1, 1] == 0
        assert out.gauss.A[0, 1] == 0

    def test_zero_drive_identity(self, rng):
        s = random_state(rng, 2, 2)
        assert mm.apply_gate(s, Squeeze(1, 0)) is s

    def test_rank2_state_vs_oracle(self, rng):
        s = st.normalized(
            st.from_fock_superposition({(1, 1): 1.0}, 2)
        )
        xi = 0.5 * np.exp(1j * 2.1)
        assert gate_agreement_vs_oracle(s, Squeeze(1, xi), 40) > 1 - ORACLE_TOL
        out = mm.apply_gate(s, Squeeze(1, xi))
        assert st.stellar_rank(out) == 2

    def test_random_states_vs_oracle(self, rng):
        for _ in range(5):
            s = st.normalized(random_state(rng, 2, 2, amax=0.35))
            xi = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            mode = int(rng.integers(2))
            assert gate_agreement_vs_oracle(s, Squeeze(mode, xi), 46) > 1 - ORACLE_TOL


def _log_continued_along(values):
    """log of the last entry, continued along a finely sampled path (axis 1)."""
    return np.log(np.abs(values[:, -1])) + 1j * np.unwrap(np.angle(values), axis=1)[:, -1]


def _gate_c_const(a, gate):
    """c_const of a single-mode gate from the one propagator helper."""
    xi, phi, phase = mm._mode_drive(gate)
    return mm._mode_exponents(a, xi, phi)[3] + phase


class TestGateLogConstant:
    """c_const = -log(...)/2 of S and P is the log continued along the gate path."""

    N, POINTS = 1000, 2001

    def _disk(self, rng, radius):
        r = radius * np.sqrt(rng.uniform(size=self.N))
        return r * np.exp(2j * np.pi * rng.uniform(size=self.N))

    def test_squeeze(self, rng):
        a = self._disk(rng, 0.999)
        xi = rng.uniform(0, 4, self.N) * np.exp(2j * np.pi * rng.uniform(size=self.N))
        Abar = np.arctanh(-np.exp(-1j * np.angle(xi)) * a)
        tau = np.linspace(0.0, 1.0, self.POINTS)
        path = np.cosh(np.abs(xi)[:, None] * tau + Abar[:, None]) / np.cosh(Abar)[:, None]
        expect = -0.5 * _log_continued_along(path)
        got = np.array([_gate_c_const(ai, Squeeze(0, xii)) for ai, xii in zip(a, xi)])
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_shear(self, rng):
        a = self._disk(rng, 0.999)
        s = rng.uniform(-100, 100, self.N)
        tau = np.linspace(0.0, 1.0, self.POINTS)
        path = 1.0 - 1j * (s * (1.0 - a))[:, None] * tau
        expect = -0.5 * _log_continued_along(path)
        got = np.array([_gate_c_const(ai, Shear(0, si)) for ai, si in zip(a, s)])
        assert np.max(np.abs(got - expect)) < 1e-12


def _previous_mode_exponents(a, gate):
    """(a_new, b_scale, kappa, c_const, mu, nu) of S, P and R as each gate had
    them before they came from one propagator: the pinned reference."""
    if isinstance(gate, Squeeze):
        r, th = abs(gate.xi), np.angle(gate.xi)
        Abar = np.arctanh(-np.exp(-1j * th) * a)
        kappa = -0.5 * np.exp(-1j * th) * np.cosh(Abar) ** 2 * (
            np.tanh(r + Abar) - np.tanh(Abar))
        return (-np.exp(1j * th) * np.tanh(r + Abar), np.cosh(Abar) / np.cosh(r + Abar),
                kappa, -0.5 * (np.log(np.cosh(r + Abar)) - np.log(np.cosh(Abar))),
                np.cosh(r), -np.exp(-1j * th) * np.sinh(r))
    if isinstance(gate, Shear):
        s = gate.s
        D = 1.0 - 1j * s * (1.0 - a)
        return ((a - 1j * s * (1.0 - a)) / D, 1.0 / D, 1j * s / (2.0 * D),
                -0.5 * np.log(D), 1.0 + 1j * s, 1j * s)
    rot = np.exp(1j * gate.phi)
    return rot**2 * a, rot, 0j, 0j, rot, 0j


class TestGatesPinned:
    """Each single-mode gate's exponents and output (C and P) equal the
    previous formulas': S with |xi| <= 4, P with |s| <= 100, R with
    pi < |phi| < 3 pi (past the first branch crossing of log y)."""

    @pytest.mark.parametrize("kind", ["S", "P", "R"])
    def test_matches_previous_formulas(self, rng, kind):
        for _ in range(40):
            s = random_state(rng, int(rng.integers(1, 3)), int(rng.integers(0, 4)))
            mode = int(rng.integers(s.modes))
            if kind == "S":
                gate = Squeeze(mode, rng.uniform(0, 4) * np.exp(2j * np.pi * rng.uniform()))
            elif kind == "P":
                gate = Shear(mode, float(rng.uniform(-100, 100)))
            else:
                gate = Phase(mode, float(rng.choice([-1, 1]) * rng.uniform(np.pi, 3 * np.pi)))
            a = complex(s.gauss.A[mode, mode])
            prev = _previous_mode_exponents(a, gate)
            xi, phi, phase = mm._mode_drive(gate)
            new = list(mm._mode_exponents(a, xi, phi))
            new[3] += phase
            for x, y in zip(new, prev):
                assert abs(x - y) <= 1e-14 * max(1.0, abs(y))
            got = mm.apply_gate(s, gate)
            a_new, b_scale, kappa, c_const, _, nu = prev
            ref = mm._section_gate(s, mode, a_new, b_scale, kappa, c_const, nu)
            assert_states_close(got, ref, rel=1e-12)
            # the transport uses b_scale, not mu - nu a_new, so one ulp of
            # a_new does not move P (it moved P by up to 5e-12 at |s| ~ 100)
            nudged = a_new * (1.0 + 2.0**-52)
            assert_states_close(
                mm._section_gate(s, mode, nudged, b_scale, kappa, c_const, nu), ref, rel=1e-12
            )


class TestShearPhaseMode:
    def test_shear_vs_oracle(self, rng):
        s = st.normalized(random_state(rng, 2, 2, amax=0.3))
        assert gate_agreement_vs_oracle(s, Shear(0, 0.5), 36) > 1 - ORACLE_TOL

    def test_phase_vs_oracle(self, rng):
        s = st.normalized(random_state(rng, 2, 2))
        assert gate_agreement_vs_oracle(s, Phase(1, 1.2), 30) > 1 - ORACLE_TOL

    @pytest.mark.parametrize("phi", [np.pi, 3 * np.pi, -np.pi])
    def test_phase_at_odd_pi_keeps_the_sign(self, phi):
        # sin(phi) rounds to about +-1e-16 here, on either side of the branch cut
        s = st.from_fock_superposition({(1,): 0.6, (2,): 0.8}, 1)
        out = mm.apply_gate(s, Phase(0, phi))
        assert st.inner_product(s, out) == pytest.approx(0.36 * np.exp(1j * phi)
                                                         + 0.64 * np.exp(2j * phi), abs=1e-12)
        np.testing.assert_allclose(fock_vector(out, 8), oracle_apply(s, Phase(0, phi), 8),
                                   rtol=0, atol=1e-12)

    def test_phase_rotates_section(self):
        s = st.from_fock_superposition({(2, 0): 1.0}, 2)
        out = mm.apply_gate(s, Phase(0, np.pi / 2))
        assert out.poly.coeffs[(2, 0)] == pytest.approx(-1 / np.sqrt(2))


def _shift_variable(poly, mode, shift):
    """P with z_mode replaced by z_mode + shift, monomial by monomial: the dict
    displacement that the kernel's delta term replaced."""
    if shift == 0:
        return poly
    out = {}
    for idx, c in poly.coeffs.items():
        p = idx[mode]
        pw = 1.0 + 0j
        for j in range(p, -1, -1):
            new = list(idx)
            new[mode] = j
            out[tuple(new)] = out.get(tuple(new), 0) + c * comb(p, j) * pw
            pw *= shift
    return st.PolyPart.make(out).pruned()


def _section_gate_reference(state, mode, a_new, b_scale, kappa, c_const, nu, beta=0j):
    """The dict-polynomial section engine: (mu z_k + nu (d/dz_k + l))^d built
    by repeated ``PolyPart.multiplied`` calls, entry by entry exponent loops,
    with mu = b_scale + nu a_new (det exp(tK) = 1), then D(beta) on mode k as
    the exponent update of the whole vector and ``_shift_variable``. The
    reference for the dense transport kernel of ``multimode._section_gate``."""
    mu = b_scale + nu * a_new
    m = state.modes
    k = mode
    g = state.gauss
    A = np.array(g.A)
    B = np.array(g.B)
    b0 = B[k]
    mvec = -np.array([A[k, j] if j != k else 0j for j in range(m)])
    A2 = A.copy()
    B2 = B.copy()
    A2[k, k] = a_new
    for j in range(m):
        if j != k:
            A2[k, j] = b_scale * A[k, j]
            A2[j, k] = A2[k, j]
    B2[k] = b_scale * b0
    C2 = g.C + c_const + kappa * b0**2
    for i in range(m):
        if i != k and mvec[i] != 0:
            B2[i] = B2[i] + 2.0 * kappa * b0 * mvec[i]
    for i in range(m):
        for j in range(m):
            if i != k and j != k and mvec[i] != 0 and mvec[j] != 0:
                A2[i, j] = A2[i, j] - 2.0 * kappa * mvec[i] * mvec[j]
    gauss2 = st.GaussPart.make(A2, B2, C2, check=False)
    by_power = {}
    for idx, c in state.poly.coeffs.items():
        rest = list(idx)
        rest[k] = 0
        by_power.setdefault(idx[k], {})[tuple(rest)] = c
    ell = st.PolyPart.make(
        {tuple(1 if j == i else 0 for j in range(m)): -A2[k, i] for i in range(m)}
        | {(0,) * m: B2[k]}
    )
    powers = [st.PolyPart.one(m)]
    for _ in range(max(by_power, default=0)):
        t = powers[-1]
        stepped = poly_added(t.mul_var(k).scaled(mu), t.derivative(k).scaled(nu))
        powers.append(poly_added(stepped, t.multiplied(ell).scaled(nu)))
    out_poly = st.PolyPart.make({})
    for d, rest in by_power.items():
        out_poly = poly_added(out_poly, st.PolyPart.make(rest).multiplied(powers[d]))
    bvec = np.zeros(m, dtype=complex)
    bvec[k] = beta
    bc = np.conj(bvec)
    A2 = gauss2.A
    B3 = gauss2.B + bvec + A2 @ bc
    C3 = gauss2.C - gauss2.B @ bc - 0.5 * bc @ A2 @ bc - 0.5 * np.sum(np.abs(bvec) ** 2)
    out_poly = _shift_variable(out_poly.pruned(), k, -bc[k])
    return st.StellarState.make(m, out_poly, st.GaussPart.make(A2, B3, C3, check=False))


def _section_gates(rng, modes, strength=1.0):
    """S, P, R and D on every mode, with random parameters."""
    gates = []
    for k in range(modes):
        gates += [
            Squeeze(k, 0.5 * strength * np.exp(1j * rng.uniform(0, 2 * np.pi))),
            Shear(k, strength * float(rng.uniform(-0.6, 0.6))),
            Phase(k, float(rng.uniform(0, 2 * np.pi))),
            Displace.single(k, 0.4 * strength * np.exp(1j * rng.uniform(0, 2 * np.pi)), modes),
        ]
    return gates


class TestSectionKernel:
    """The dense transport kernel against the dict reference and the oracle."""

    @settings(max_examples=30)
    @given(hst.integers(1, 4), hst.integers(0, 5), hst.integers(0, 2**32 - 1))
    def test_matches_dict_reference(self, modes, rank, seed):
        rng = np.random.default_rng(seed)
        # A = W^T diag(t) W with a random unitary W: cross terms for m > 1
        s = st.StellarState.make(
            modes, random_poly(rng, modes, rank), random_admissible_gauss(rng, modes, 0.6)
        )
        for gate in _section_gates(rng, modes):
            got = mm.apply_gate(s, gate)
            with mock.patch.object(mm, "_section_gate", _section_gate_reference):
                ref = mm.apply_gate(s, gate)
            assert_states_close(got, ref)
            assert np.array_equal(got.gauss.A, got.gauss.A.T)
            s = ref

    @pytest.mark.parametrize("modes", [3, 4])
    def test_partly_coupled_matches_dict_reference(self, rng, modes):
        # modes 2 and 3 are coupled to no other mode: they keep their monomials
        for rank in (2, 4):
            s = st.StellarState.make(
                modes, random_poly(rng, modes, rank), partly_coupled_gauss(rng, modes, 0.6)
            )
            for gate in _section_gates(rng, modes):
                got = mm.apply_gate(s, gate)
                with mock.patch.object(mm, "_section_gate", _section_gate_reference):
                    ref = mm.apply_gate(s, gate)
                assert_states_close(got, ref)
                s = ref

    @pytest.mark.parametrize("modes, rank, cutoff", [(1, 4, 60), (2, 2, 44), (3, 2, 30)])
    def test_matches_fock_oracle(self, rng, modes, rank, cutoff):
        s = st.normalized(random_state(rng, modes, rank, amax=0.25))
        for gate in _section_gates(rng, modes, strength=0.5):
            assert gate_agreement_vs_oracle(s, gate, cutoff) > 1 - ORACLE_TOL


def _group_gate(rng, kind, modes):
    k = int(rng.integers(modes))
    if kind == "D":
        return Displace.single(k, 0.3 * np.exp(2j * np.pi * rng.uniform()), modes)
    if kind == "X":  # one displacement on every mode
        return Displace.make(0.3 * np.exp(2j * np.pi * rng.uniform(size=modes)))
    if kind == "S":
        return Squeeze(k, 0.12 * np.exp(2j * np.pi * rng.uniform()))
    if kind == "P":
        return Shear(k, float(rng.uniform(-0.15, 0.15)))
    return Phase(k, float(rng.uniform(-12.0, 12.0)))  # past +-3 pi


class TestModeRuns:
    """A stretch of D, S, P and R gates is fused into one kernel call per mode
    (``multimode._fused``); it equals the gates applied one at a time."""

    @staticmethod
    def _fused_and_sequential(modes, rank, kinds, amax, seed):
        """A random state and gates, and the state from the fused group (which
        must make at most one kernel call per mode), checked against the
        gates applied one at a time."""
        rng = np.random.default_rng(seed)
        s = st.normalized(st.StellarState.make(
            modes, random_poly(rng, modes, rank),
            random_admissible_gauss(rng, modes, amax, bscale=0.25)))
        gates = [_group_gate(rng, kind, modes) for kind in kinds]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return kernel(*args, **kwargs)

        kernel = mm._section_gate
        with mock.patch.object(mm, "_section_gate", counting):
            got = mm.apply_gaussian(s, mm.GaussianUnitarySpec.make(modes, gates))
        assert len(calls) == len(set(calls)) <= modes
        one_by_one = s
        for gate in gates:
            one_by_one = mm.apply_gate(one_by_one, gate)
        assert_states_close(got, one_by_one, rel=1e-12)
        return s, gates, got

    @settings(max_examples=30)
    @given(hst.integers(1, 3), hst.integers(0, 4),
           hst.lists(hst.sampled_from("DXSPR"), min_size=1, max_size=6),
           hst.integers(0, 2**32 - 1))
    def test_group_matches_sequential_and_oracle(self, modes, rank, kinds, seed):
        s, gates, got = self._fused_and_sequential(modes, rank, kinds, 0.25, seed)
        # the truncated oracle is wrong near its cutoff: compare a window below
        cutoff, window = ((80, 60), (40, 30), (24, 16))[modes - 1]
        arr = st.to_fock_array(s, cutoff, warn_tail=False)
        for gate in gates:
            arr = fs.fock_oracle_apply(arr, gate, loss_tol=1.0)
        oracle = fs.FockBasis(modes, window).vector(arr)
        assert vectors_agreement(oracle, fock_vector(got, window)) > 1 - ORACLE_TOL

    @settings(max_examples=30)
    @given(hst.integers(1, 3), hst.integers(0, 4),
           hst.lists(hst.sampled_from("DXSPR"), min_size=1, max_size=12),
           hst.sampled_from([0.25, 0.95]), hst.integers(0, 2**32 - 1))
    def test_long_group_matches_sequential(self, modes, rank, kinds, amax, seed):
        # up to 12 gates and |a| up to 0.95: too much squeezing for the
        # truncated oracle, so only the one-by-one route is compared
        self._fused_and_sequential(modes, rank, kinds, amax, seed)

    def test_run_phase_matches_sequential(self, rng):
        # large R angles and merged displacements: C (the global phase) included
        s = random_state(rng, 2, 3)
        gates = [Displace.single(0, 0.4 - 0.3j, 2), Phase(0, 8.7), Squeeze(0, 0.5j),
                 Displace.single(0, -0.2 + 0.5j, 2), Shear(0, -0.7), Phase(0, -7.9),
                 Displace.make([0.3j, 0.1])]
        run = mm._fused(gates)
        assert [type(g).__name__ for g in run] == ["ModeRun", "ModeRun"]
        got = s
        for r in run:
            got = mm.apply_gate(got, r)
        ref = s
        for gate in gates:
            ref = mm.apply_gate(ref, gate)
        assert_states_close(got, ref, rel=1e-12)

    def test_cancelled_displacements_keep_area_phase(self):
        # D(-1 - i) D(i) D(1) = exp(i) I: the run is the identity times its phase
        s = st.from_fock_superposition({(1,): 1.0}, 1)
        gates = [Displace.make([1.0]), Displace.make([1j]), Displace.make([-1 - 1j])]
        got = mm.apply_gaussian(s, mm.GaussianUnitarySpec.make(1, gates))
        assert_states_close(got, _applied(s, gates), rel=1e-12)
        assert got.gauss.C == pytest.approx(1j)

    def test_passive_splits_runs(self):
        bs = Passive.make(beamsplitter_matrix())
        gates = [Squeeze(0, 0.2), Phase(1, 0.3), bs, Shear(0, 0.1), Squeeze(0, 0.2)]
        kinds = [(type(g).__name__, getattr(g, "mode", None)) for g in mm._fused(gates)]
        assert kinds == [("ModeRun", 0), ("ModeRun", 1), ("Passive", None), ("ModeRun", 0)]

    def test_gate_deep_layer_is_two_kernel_calls(self, rng):
        # a beamsplitter, then S, P, R and D on each of two modes
        s = st.normalized(random_state(rng, 2, 3, amax=0.3))
        gates = [Passive.make(beamsplitter_matrix())]
        for k in (0, 1):
            gates += [Squeeze(k, 0.05j), Shear(k, 0.03), Phase(k, 1.1),
                      Displace.single(k, 0.1 - 0.05j, 2)]
        with mock.patch.object(mm, "_section_gate", wraps=mm._section_gate) as kernel:
            mm.apply_gaussian(s, mm.GaussianUnitarySpec.make(2, gates))
        assert kernel.call_count == 2

    def test_displacement_is_one_kernel_call_per_nonzero_entry(self, rng):
        s = random_state(rng, 3, 2)
        with mock.patch.object(mm, "_section_gate", wraps=mm._section_gate) as kernel:
            out = mm.apply_displace(s, [0.3, 0.0, -0.2j])
        assert kernel.call_count == 2
        with mock.patch.object(mm, "_section_gate", _section_gate_reference):
            ref = mm.apply_displace(s, [0.3, 0.0, -0.2j])
        assert_states_close(out, ref)


def _applied(state, gates):
    for gate in gates:
        state = mm.apply_gate(state, gate)
    return state


def _passives(gates):
    return sum(isinstance(g, Passive) for g in gates)


class TestCompact:
    """A stretch whose fused gates hold two or more passive gates is compiled
    to its Bloch-Messiah form (``multimode._compact``): the same state up to a
    global phase (A, B, P and Re C agree; Im C is not compared), with at most
    two passive gates and m + 2 kernel calls."""

    @settings(max_examples=40)
    @given(hst.integers(1, 3), hst.integers(0, 3),
           hst.lists(hst.lists(hst.sampled_from("DXSPR"), max_size=3), min_size=1, max_size=8),
           hst.integers(0, 2**32 - 1))
    def test_matches_fused_and_oracle(self, modes, rank, layers, seed):
        rng = np.random.default_rng(seed)
        s = st.normalized(st.StellarState.make(
            modes, random_poly(rng, modes, rank),
            random_admissible_gauss(rng, modes, 0.25, bscale=0.25)))
        gates = []
        for kinds in layers:
            gates.append(Passive.make(random_unitary(rng, modes)))
            gates += [_group_gate(rng, kind, modes) for kind in kinds]
        fused = mm._fused(gates)
        compact = mm._compact(gates, modes)
        if [type(g) for g in compact] != [type(g) for g in fused]:
            assert _passives(fused) >= 2 and _passives(compact) <= 2
            assert len(compact) <= modes + 2 and mm._cost(compact) < mm._cost(fused)
        got, ref = _applied(s, compact), _applied(s, fused)
        assert_states_close(got, ref, rel=1e-12, up_to_phase=True)
        cutoff, window = ((80, 60), (40, 30), (24, 16))[modes - 1]
        arr = st.to_fock_array(s, cutoff, warn_tail=False)
        for gate in gates:
            arr = fs.fock_oracle_apply(arr, gate, loss_tol=1.0)
        oracle = fs.FockBasis(modes, window).vector(arr)
        assert vectors_overlap(oracle, fock_vector(got, window)) > 1 - ORACLE_TOL

    @pytest.mark.parametrize("fault", ["wrong program", "failed factorization"])
    def test_unverified_form_keeps_fused(self, rng, monkeypatch, fault):
        gates = []
        for _ in range(3):
            gates += [Passive.make(random_unitary(rng, 2)), Squeeze(0, 0.2j),
                      Displace.make([0.1, 0.2])]
        form = mm._bloch_messiah_gates

        def faulty(*args):
            if fault == "failed factorization":
                raise RuntimeError("takagi factorization failed")
            return form(*args)[:-1]  # U left out

        monkeypatch.setattr(mm, "_bloch_messiah_gates", faulty)
        compact = mm._compact(gates, 2)
        assert [type(g) for g in compact] == [type(g) for g in mm._fused(gates)]

    def test_one_passive_stretch_stays_fused(self):
        # a layer, a lone passive gate, and runs on both sides of one passive
        # gate ([R0, R1, P, R0, R1]): the form [V, runs, U] would add a passive
        bs = Passive.make(beamsplitter_matrix())
        layer = [bs, Squeeze(0, 0.1), Phase(1, 0.4), Displace.make([0.1, 0.2j])]
        sandwich = [Squeeze(0, 0.3), Squeeze(1, 0.2j), bs, Displace.make([0.1, 0.2j]),
                    Phase(0, 0.4), Phase(1, -0.3)]
        for gates in (layer, [bs], sandwich):
            compact = mm._compact(gates, 2)
            assert [type(g) for g in compact] == [type(g) for g in mm._fused(gates)]
            assert bs in compact

    def test_unsqueezed_stretch_is_one_passive(self, rng):
        # F = 0: no identity passive V, just the displacement runs and U
        m = 3
        gates = []
        for _ in range(3):
            gates += [Passive.make(random_unitary(rng, m)),
                      Displace.make(rng.normal(size=m) + 1j * rng.normal(size=m)),
                      Phase(1, 0.7)]
        compact = mm._compact(gates, m)
        assert [type(g) for g in compact] == [mm.ModeRun] * m + [Passive]
        s = st.normalized(st.StellarState.make(
            m, random_poly(rng, m, 2), random_admissible_gauss(rng, m, 0.25, bscale=0.25)))
        got, ref = _applied(s, compact), _applied(s, mm._fused(gates))
        assert_states_close(got, ref, rel=1e-12, up_to_phase=True)

    def test_cancelled_displacements_compile_to_identity(self, rng):
        # D(-1 - i) swap D(i) swap D(1) = exp(i) I: the identity action with an
        # area phase compiles to one identity passive gate, and the phase,
        # which no output reads, is dropped
        swap = Passive.make(np.array([[0, 1], [1, 0]]))
        gates = [Displace.make([1, 0]), swap, Displace.make([0, 1j]), swap,
                 Displace.make([-1 - 1j, 0])]
        compact = mm._compact(gates, 2)
        assert [type(g) for g in compact] == [Passive]
        assert mm._cost(compact) < mm._cost(mm._fused(gates))
        np.testing.assert_allclose(compact[0].U, np.eye(2), atol=1e-15)
        s = random_state(rng, 2, 2)
        got, ref = _applied(s, compact), _applied(s, mm._fused(gates))
        assert_states_close(got, ref, rel=1e-12, up_to_phase=True)
        assert abs(ref.gauss.C - s.gauss.C - 1j) < 1e-12

    def test_accepted_form_applies_no_gate(self, monkeypatch):
        # compiling folds the raw gates' action on scalars: no kernel, no
        # passive update and no per-gate exponents
        def banned(*args, **kwargs):
            raise AssertionError("compiling applied a gate")

        for name in ("_apply_run", "_section_gate", "_passive_gauss", "_mode_exponents"):
            monkeypatch.setattr(mm, name, banned)
        bs = Passive.make(beamsplitter_matrix())
        gates = []
        for layer in range(10):
            gates.append(bs)
            for mode in (0, 1):
                gates += [Squeeze(mode, 0.05j * (layer + 1)), Shear(mode, 0.03),
                          Phase(mode, 0.7 * layer + mode), Displace.single(mode, 0.1, 2)]
        compact = mm._compact(gates, 2)
        assert [type(g) for g in compact] == [Passive, mm.ModeRun, mm.ModeRun, Passive]


class TestApplyGaussian:
    def test_empty_spec_identity(self, rng):
        s = random_state(rng, 2, 2)
        out = mm.apply_gaussian(s, mm.GaussianUnitarySpec.make(2, []))
        assert out is s

    def test_squeeze_then_passive_entangles(self):
        spec = mm.GaussianUnitarySpec.make(
            2, [Squeeze(0, 0.6), Passive.make(beamsplitter_matrix())]
        )
        out = mm.apply_gaussian(st.StellarState.vacuum(2), spec)
        assert abs(out.gauss.A[0, 1]) > 0.1

    def test_passive_without_squeezing_never_entangles(self, rng):
        # zero quadratic part stays zero under any passive network
        s = mm.apply_displace(st.StellarState.vacuum(3), [0.5, -0.2j, 0.1])
        out = mm.apply_passive(s, Passive.make(random_unitary(rng, 3)))
        assert np.max(np.abs(out.gauss.A)) < 1e-14

    def test_displace_passive_braiding(self, rng):
        # U D(beta) = D(U^T beta) U in the stellar convention
        s = st.normalized(random_state(rng, 2, 2))
        U = random_unitary(rng, 2)
        beta = np.array([0.4 - 0.1j, -0.3j])
        route1 = mm.apply_passive(mm.apply_displace(s, beta), Passive.make(U))
        route2 = mm.apply_displace(mm.apply_passive(s, Passive.make(U)), U.T @ beta)
        assert states_overlap_via_fock(route1, route2, 30) > 1 - 1e-10
        u, v = fock_vector(route1, 30), fock_vector(route2, 30)
        assert np.max(np.abs(u - v)) < 1e-9

    def test_rank_invariance_sweep(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            rank = int(rng.integers(0, 5))
            s = random_state(rng, m, rank, amax=0.4)
            gate = _random_gate(rng, m)
            out = mm.apply_gate(s, gate)
            assert st.stellar_rank(out) == rank

    def test_inverse_program_roundtrip(self, rng):
        s = st.normalized(random_state(rng, 2, 2, amax=0.35))
        spec = mm.GaussianUnitarySpec.make(
            2,
            [
                Squeeze(0, 0.4 * np.exp(0.7j)),
                Passive.make(random_unitary(rng, 2)),
                Displace.make([0.3, -0.2j]),
                Shear(1, 0.6),
            ],
        )
        out = mm.apply_gaussian(mm.apply_gaussian(s, spec), spec.inverse())
        assert states_overlap_via_fock(out, s, 32) > 1 - 1e-9


def _random_gate(rng, m):
    kind = rng.integers(5)
    if kind == 0:
        return Passive.make(random_unitary(rng, m))
    if kind == 1:
        return Displace.make(0.5 * (rng.normal(size=m) + 1j * rng.normal(size=m)))
    if kind == 2:
        return Squeeze(int(rng.integers(m)), 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    if kind == 3:
        return Shear(int(rng.integers(m)), float(rng.uniform(-0.8, 0.8)))
    return Phase(int(rng.integers(m)), float(rng.uniform(0, 2 * np.pi)))


class TestTakagi:
    def test_factorization_random(self, rng):
        for m in (2, 3, 4):
            X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            A = 0.3 * (X + X.T)
            s, W = mm.takagi(A)
            np.testing.assert_allclose(W @ np.diag(s) @ W.T, A, atol=1e-10)
            np.testing.assert_allclose(W.conj().T @ W, np.eye(m), atol=1e-10)

    def test_zero_matrix(self):
        s, W = mm.takagi(np.zeros((3, 3)))
        assert np.all(s == 0)
        np.testing.assert_allclose(W, np.eye(3))

    def test_degenerate_diagonal(self):
        A = np.diag([0.5, 0.5])
        s, W = mm.takagi(A)
        np.testing.assert_allclose(W @ np.diag(s) @ W.T, A, atol=1e-10)

    def test_tiny_matrix_keeps_relative_precision(self, rng):
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = 1e-9 * (X + X.T)
        s, W = mm.takagi(A)
        assert np.abs(W @ np.diag(s) @ W.T - A).max() <= 1e-12 * np.abs(A).max()
        state = st.StellarState.make(3, st.PolyPart.one(3), st.GaussPart.make(A, np.zeros(3), 0))
        _, spec = mm.decompose_normal(state)
        assert sum(isinstance(g, Squeeze) for g in spec.gate_list) == 3

    def test_small_asymmetric_matrix_rejected(self, rng):
        # asymmetry 1e-4 relative to max|A|, far below 1e-12 absolute
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError, match="symmetric"):
            mm.takagi(1e-9 * (X + X.T) + 1e-13 * (Y - Y.T))

    def test_failed_factorization_names_residual(self, rng, monkeypatch):
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # a wrong square root of each block makes W diag(s) W^T miss A
        monkeypatch.setattr(mm, "_sqrt_unitary", lambda M: 2.0 * np.eye(M.shape[0]))
        with pytest.raises(RuntimeError, match=r"residual max\|W diag\(s\) W\^T - A\| = "):
            mm.takagi(0.3 * (X + X.T))


def reconstruct_normal(poly, spec):
    """State P(a^dag) G|0> from a normal form (up to the global prefactor)."""
    gstate = mm.apply_gaussian(st.StellarState.vacuum(spec.modes), spec)
    return gstate.with_poly(poly.multiplied(gstate.poly))


class TestDecompositions:
    def test_gaussian_state_trivial_poly(self, rng):
        s = st.normalized(random_state(rng, 2, 0))
        poly, spec = mm.decompose_normal(s)
        assert poly.degree() == 0
        rec = reconstruct_normal(poly, spec)
        assert states_overlap_via_fock(rec, s, 25) > 1 - 1e-10

    def test_reconstruction_random(self, rng):
        for _ in range(4):
            s = st.normalized(random_state(rng, 2, 2, amax=0.4))
            poly, spec = mm.decompose_normal(s)
            rec = reconstruct_normal(poly, spec)
            assert states_overlap_via_fock(rec, s, 32) > 1 - 1e-10

    def test_single_mode_inversion(self, rng):
        # z^2 G(a, b): the program parameters invert the Gaussian exponents
        s = st.from_zeros([0.4, -0.4], 0.3, 0.2, 0.0)
        poly, spec = mm.decompose_normal(s)
        rec = reconstruct_normal(poly, spec)
        assert states_overlap_via_fock(rec, s, 30) > 1 - 1e-10

    def test_core_state_gaussian_input(self, rng):
        s = st.normalized(random_state(rng, 2, 0))
        core = mm.core_state_of(s)
        assert st.stellar_rank(core) == 0
        assert np.max(np.abs(core.gauss.A)) == 0
        assert np.max(np.abs(core.gauss.B)) == 0

    def test_core_state_already_core(self):
        s = st.from_fock_superposition({(1, 1): 1.0, (0, 0): 0.5}, 2)
        core = mm.core_state_of(s)
        assert states_overlap_via_fock(core, s, 20) > 1 - 1e-10

    def test_squeezed_photon(self, rng):
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        s = mm.apply_gate(f1, Squeeze(0, 0.5))
        core = mm.core_state_of(s)
        assert st.stellar_rank(core) == 1
        rebuilt = mm.apply_gaussian(core, mm.decompose_normal(s)[1])
        assert states_overlap_via_fock(rebuilt, s, 35) > 1 - 1e-10

    def test_roundtrip_random(self, rng):
        for _ in range(4):
            s = st.normalized(random_state(rng, 2, 2, amax=0.4))
            core = mm.core_state_of(s)
            assert st.stellar_rank(core) == st.stellar_rank(s)
            rebuilt = mm.apply_gaussian(core, mm.decompose_normal(s)[1])
            assert states_overlap_via_fock(rebuilt, s, 32) > 1 - 1e-9


class TestSchmidt:
    def test_product_state(self, rng):
        s1 = st.from_fock_superposition({(1,): 1.0, (0,): 0.4}, 1)
        s2 = st.from_fock_superposition({(2,): 1.0}, 1)
        form = mm.schmidt_form(st.tensor(s1, s2), ([0], [1]))
        assert form.rank == 1
        assert form.separable

    def test_two_mode_squeezed_gaussian_entangled(self):
        lam = 0.5
        s = st.StellarState.make(
            2, st.PolyPart.one(2), st.GaussPart.make([[0, -lam], [-lam, 0]], [0, 0], 0)
        )
        form = mm.schmidt_form(s, ([0], [1]))
        assert form.rank == 1
        assert form.cross_terms[(0, 1)] == pytest.approx(lam)
        assert not form.separable

    def test_polynomial_entanglement(self):
        s = st.from_fock_superposition({(1, 1): 1.0, (0, 0): 1.0}, 2)
        form = mm.schmidt_form(s, ([0], [1]))
        assert form.rank == 2
        assert not form.separable

    def test_reconstruction_from_factors(self, rng):
        s = st.normalized(random_state(rng, 2, 2))
        form = mm.schmidt_form(s, ([0], [1]))
        # P = sum_k sigma_k P_I^k(z_I) P_J^k(z_J) in the joint variables
        rebuilt = {}
        for sv, pl, pr in zip(form.coefficients, form.left_factors, form.right_factors):
            for il, cl in pl.coeffs.items():
                for ir, cr in pr.coeffs.items():
                    key = (il[0], ir[0])
                    rebuilt[key] = rebuilt.get(key, 0) + sv * cl * cr
        for idx, c in s.poly.coeffs.items():
            assert rebuilt.get(idx, 0) == pytest.approx(c, abs=1e-10)

    def test_verdict_matches_purity_oracle(self, rng):
        agree = 0
        for i in range(20):
            if i % 2 == 0:
                a = random_state(rng, 1, int(rng.integers(0, 2)), amax=0.4)
                b = random_state(rng, 1, int(rng.integers(0, 2)), amax=0.4)
                s = st.normalized(st.tensor(a, b))
            else:
                s = st.normalized(random_state(rng, 2, 2, amax=0.4))
            verdict = mm.is_separable(s, ([0], [1]))
            arr = st.to_fock_array(s, 25, warn_tail=False)
            purity = fs.reduced_purity(arr, [0])
            assert verdict == (purity >= 1 - 1e-8)
            agree += 1
        assert agree == 20


def _bogoliubov_reference(spec):
    """(E, F, d) folded gate by gate with dense per-gate actions: the
    reference for ``multimode.bogoliubov``, which folds each stretch at once."""
    m = spec.modes

    def identity():
        return (np.eye(m, dtype=complex), np.zeros((m, m), dtype=complex),
                np.zeros(m, dtype=complex))

    E, F, d = identity()
    for gate in spec.gate_list:
        e, f, dl = identity()
        if isinstance(gate, Passive):
            e = np.array(gate.U)
        elif isinstance(gate, Displace):
            dl = -np.conj(gate.beta)
        else:
            xi, phi, _ = mm._mode_drive(gate)
            *_, e[gate.mode, gate.mode], f[gate.mode, gate.mode] = mm._mode_exponents(0j, xi, phi)
        E, F, d = E @ e + F @ np.conj(f), E @ f + F @ np.conj(e), E @ dl + F @ np.conj(dl) + d
    return E, F, d


def _action_error(got, ref):
    return max(float(np.abs(g - r).max()) for g, r in zip(got, ref))


class TestBlochMessiah:
    def test_bogoliubov_matches_gate_by_gate_fold(self, rng):
        for m in (1, 2, 3):
            for _ in range(5):
                spec = mm.GaussianUnitarySpec.make(m, [_random_gate(rng, m) for _ in range(12)])
                ref = _bogoliubov_reference(spec)
                assert _action_error(mm.bogoliubov(spec), ref) <= 1e-13 * np.abs(ref[0]).max()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("r", [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_action_at_small_squeezing(self, rng, m, r, degenerate):
        # sinh r is read from the SVD of F, so a small r keeps its precision
        for _ in range(3):
            strengths = np.full(m, r) if degenerate else r * rng.uniform(0.3, 1.0, m)
            spec = mm.GaussianUnitarySpec.make(m, [
                Passive.make(random_unitary(rng, m)),
                *(Squeeze(j, complex(strengths[j] * np.exp(2j * np.pi * rng.uniform())))
                  for j in range(m)),
                Displace.make(rng.normal(size=m) + 1j * rng.normal(size=m)),
                Passive.make(random_unitary(rng, m)),
            ])
            ref = _bogoliubov_reference(spec)
            got = mm.bogoliubov(mm.bloch_messiah(spec))
            assert _action_error(got, ref) <= 1e-13 * max(1.0, np.abs(ref[0]).max())

    def test_random_program(self, rng):
        spec = mm.GaussianUnitarySpec.make(
            2,
            [
                Squeeze(0, 0.5 * np.exp(0.3j)),
                Passive.make(random_unitary(rng, 2)),
                Displace.make([0.2, -0.1j]),
                Shear(1, 0.7),
                Phase(0, 0.4),
            ],
        )
        canon = mm.bloch_messiah(spec)
        kinds = [type(g).__name__ for g in canon.gate_list]
        assert kinds[0] == "Passive" and kinds[-1] == "Passive"
        s = st.normalized(random_state(rng, 2, 2, amax=0.35))
        o1 = mm.apply_gaussian(s, spec)
        o2 = mm.apply_gaussian(s, canon)
        assert states_overlap_via_fock(o1, o2, 30) > 1 - 1e-9

    def test_degenerate_squeezers(self, rng):
        spec = mm.GaussianUnitarySpec.make(
            2, [Squeeze(0, 0.5), Squeeze(1, 0.5), Passive.make(beamsplitter_matrix())]
        )
        canon = mm.bloch_messiah(spec)
        s = st.normalized(random_state(rng, 2, 1, amax=0.3))
        assert states_overlap_via_fock(
            mm.apply_gaussian(s, spec), mm.apply_gaussian(s, canon), 28
        ) > 1 - 1e-9
