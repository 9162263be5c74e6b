"""Measurement rules, projections, permanents, boson-sampling probabilities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats as sps

from hqcsim import fockspace as fs
from hqcsim import multimode as mm
from hqcsim import sampling as sp
from hqcsim import states as st
from hqcsim.gates import Displace, Passive, beamsplitter_matrix
from conftest import (
    assert_states_close,
    coherent_state,
    partly_coupled_gauss,
    poly_added,
    random_poly,
    random_state,
    random_unitary,
)


def permanent_reference(M):
    """Definition sum over permutations; exponential-factorial cross-check."""
    from itertools import permutations

    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    return complex(
        sum(np.prod([M[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
    )


class TestPermanent:
    def test_identity(self):
        assert sp.permanent(np.eye(5)) == pytest.approx(1.0)

    def test_hong_ou_mandel_zero(self):
        assert abs(sp.permanent(beamsplitter_matrix())) < 1e-15

    def test_against_definition(self, rng):
        for n in (2, 3, 4):
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert sp.permanent(M) == pytest.approx(permanent_reference(M), abs=1e-12)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError, match="Ryser"):
            sp.permanent(np.eye(21))

    def test_empty(self):
        assert sp.permanent(np.zeros((0, 0))) == 1.0


class TestBosonSamplingProb:
    def test_identity_network(self):
        assert sp.boson_sampling_prob(np.eye(3), (1, 1, 0), (1, 1, 0)) == pytest.approx(1.0)

    def test_hom_null(self):
        H = beamsplitter_matrix()
        assert sp.boson_sampling_prob(H, (1, 1), (1, 1)) <= 1e-12

    def test_hom_bunching(self):
        H = beamsplitter_matrix()
        assert sp.boson_sampling_prob(H, (1, 1), (2, 0)) == pytest.approx(0.5)
        assert sp.boson_sampling_prob(H, (1, 1), (0, 2)) == pytest.approx(0.5)

    def test_photon_number_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sp.boson_sampling_prob(np.eye(2), (1, 0), (1, 1))

    def test_three_routes_agree(self, rng):
        # permanent route vs stellar coefficients vs Fock oracle
        m, photons = 4, 3
        U = random_unitary(rng, m)
        pattern = (1, 1, 1, 0)
        state = st.from_fock_superposition({pattern: 1.0}, m)
        evolved = mm.apply_passive(state, Passive.make(U))
        arr_st = st.to_fock_array(evolved, photons, warn_tail=False)
        arr0 = st.to_fock_array(state, photons, warn_tail=False)
        arr_or = fs.fock_oracle_apply(arr0, Passive.make(U), loss_tol=1.0)
        for out in st._shell_indices(m, photons)[::-1]:
            p_perm = sp.boson_sampling_prob(U, pattern, out)
            p_stellar = abs(arr_st.amplitude(out)) ** 2
            p_oracle = abs(arr_or.amplitude(out)) ** 2
            assert p_perm == pytest.approx(p_stellar, abs=1e-10)
            assert p_perm == pytest.approx(p_oracle, abs=1e-10)


class TestFockProbabilities:
    def test_vacuum(self):
        probs = sp.fock_probabilities(st.StellarState.vacuum(2), 6)
        assert probs[(0, 0)] == pytest.approx(1.0)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_coherent_poisson(self):
        probs = sp.fock_probabilities(coherent_state(1.0), 25)
        for n in range(8):
            assert probs[(n,)] == pytest.approx(np.exp(-1.0) / math.factorial(n), abs=1e-12)

    def test_squeezed_odd_vanish(self):
        s = st.normalized(
            st.StellarState.make(
                1, st.PolyPart.one(1), st.GaussPart.make([[np.tanh(0.5)]], [0], 0)
            )
        )
        probs = sp.fock_probabilities(s, 20, loss_tol=1e-4)
        for n in range(1, 20, 2):
            assert probs.get((n,), 0.0) == 0.0

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            sp.fock_probabilities(st.StellarState.vacuum(1).scaled(0.2), 10)

    def test_truncation_loss_reported(self):
        # D(2)|0> has mean photon number 4: |n| <= 4 holds only 0.629 of it
        s = st.normalized(mm.apply_gate(st.StellarState.vacuum(1), Displace.make([2.0])))
        with pytest.warns(UserWarning, match="truncation loss 3.71"):
            probs = sp.fock_probabilities(s, 4)
        assert sum(probs.values()) == pytest.approx(0.6288, abs=1e-4)


class TestFockAmplitude:
    """Exact <n|psi> by one-mode projections, mode after mode."""

    @settings(max_examples=25)
    @given(hst.integers(1, 3), hst.integers(0, 3), hst.integers(0, 2**32 - 1))
    def test_matches_fock_probabilities(self, modes, rank, seed):
        rng = np.random.default_rng(seed)
        s = st.normalized(random_state(rng, modes, rank))
        assert np.any(s.gauss.A != 0)
        probs = sp.fock_probabilities(s, {1: 12, 2: 8, 3: 5}[modes], loss_tol=1.0)
        for n, p in probs.items():
            assert abs(sp.fock_amplitude(s, n)) ** 2 == pytest.approx(p, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("pattern", [(1, 1, 1, 0), (1, 1, 1, 1, 1, 1, 0, 0)])
    def test_haar_interferometer_matches_permanent(self, rng, pattern):
        m = len(pattern)
        U = random_unitary(rng, m)
        s = mm.apply_passive(st.from_fock_superposition({pattern: 1.0}, m), Passive.make(U))
        outs = st._shell_indices(m, sum(pattern))[::-1]
        if m > 4:  # 1716 outcomes: take a few
            outs = [outs[i] for i in rng.choice(len(outs), 6, replace=False)] + [pattern]
        for out in outs:
            got = abs(sp.fock_amplitude(s, out)) ** 2
            assert got == pytest.approx(sp.boson_sampling_prob(U, pattern, out), abs=1e-12)

    def test_eight_mode_amplitude_memory(self, rng):
        # 6 photons over 8 modes: memory must follow the 1716 monomials of
        # degree 6, not the 7^8 products of the per-mode degrees
        pattern, out = (1, 1, 1, 1, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0, 1, 2)
        U = random_unitary(rng, 8)
        s = mm.apply_passive(st.from_fock_superposition({pattern: 1.0}, 8), Passive.make(U))
        tracemalloc.start()
        try:
            amp = sp.fock_amplitude(s, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(amp) ** 2 == pytest.approx(sp.boson_sampling_prob(U, pattern, out), rel=1e-12)
        assert peak < 20e6

    def test_rejects_bad_pattern(self):
        s = st.StellarState.vacuum(2)
        with pytest.raises(ValueError, match="1 photon counts for 2 modes"):
            sp.fock_amplitude(s, (0,))
        with pytest.raises(ValueError, match="non-negative"):
            sp.fock_amplitude(s, (1, -1))


class TestProjections:
    def test_project_coherent_all_modes_scalar(self):
        s = st.normalized(st.from_fock_superposition({(1, 1): 1.0}, 2))
        amp = sp.project_coherent(s, [0, 1], [0.3, 0.4j])
        assert isinstance(amp, complex)
        # amplitude = <alpha|psi> = conj(a1 a2) e^{-|alpha|^2/2}
        expect = np.conj(0.3 * 0.4j) * np.exp(-0.5 * (0.09 + 0.16))
        assert amp == pytest.approx(expect)

    def test_project_mode_of_monomial(self):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        alpha = 0.7 + 0.2j
        out = sp.project_coherent(s, [0], [alpha])
        assert out.modes == 1
        assert st.stellar_rank(out) == 1
        assert out.poly.coeffs[(1,)] == pytest.approx(np.conj(alpha))

    def test_project_gaussian_stays_gaussian(self, rng):
        s = st.normalized(random_state(rng, 2, 0))
        out = sp.project_coherent(s, [1], [0.5 - 0.3j])
        assert st.stellar_rank(out) == 0

    def test_rank_never_increases(self, rng):
        for _ in range(10):
            s = random_state(rng, 2, int(rng.integers(0, 4)))
            alpha = rng.normal() + 1j * rng.normal()
            out = sp.project_coherent(s, [0], [alpha])
            if isinstance(out, complex):
                continue
            assert st.stellar_rank(out) <= st.stellar_rank(s)

    def test_project_coherent_vs_oracle(self, rng):
        s = st.normalized(random_state(rng, 2, 2))
        alpha = 0.4 - 0.6j
        out = sp.project_coherent(s, [0], [alpha])
        arr = st.to_fock_array(s, 32, warn_tail=False)
        # oracle contraction: sum_n conj(<n|alpha>) psi_{n, k}
        amps = {}
        for idx, a in arr.amplitudes.items():
            w = np.exp(-abs(alpha) ** 2 / 2) * np.conj(alpha) ** idx[0] / math.sqrt(
                math.factorial(idx[0])
            )
            amps[(idx[1],)] = amps.get((idx[1],), 0) + w * a
        mine = st.to_fock_array(out, 12, warn_tail=False)
        for idx in sorted(mine.amplitudes):
            if sum(idx) <= 12:
                assert mine.amplitude(idx) == pytest.approx(amps.get(idx, 0j), abs=1e-9)

    def test_project_fock_extracts_coefficient(self):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        out = sp.project_fock(s, 1, 1)
        assert out.poly.coeffs == {(1,): 1.0 + 0j}
        out0 = sp.project_fock(s, 1, 0)
        assert out0.poly.is_zero()

    def test_project_fock_can_raise_rank(self):
        lam = 0.5
        tms = st.normalized(
            st.StellarState.make(
                2, st.PolyPart.one(2), st.GaussPart.make([[0, -lam], [-lam, 0]], [0, 0], 0)
            )
        )
        out = sp.project_fock(tms, 1, 2)
        assert st.stellar_rank(out) == 2
        # proportional to z1^2 section: amplitudes match the oracle contraction
        arr = st.to_fock_array(tms, 24, warn_tail=False)
        expect = {(): 0}
        mine = st.to_fock_array(out, 12, warn_tail=False)
        for idx, a in arr.amplitudes.items():
            if idx[1] == 2 and abs(a) > 1e-13:
                assert mine.amplitude((idx[0],)) == pytest.approx(a, abs=1e-10)

    def test_project_fock_degree_bound(self, rng):
        s = random_state(rng, 2, 2)
        out = sp.project_fock(s, 0, 3)
        assert st.stellar_rank(out) <= 2 + 3


def _project_fock_reference(state, mode, n):
    """(1/sqrt(n!)) d^n F / dz_mode^n at z_mode = 0, from scratch: n derivative
    steps P -> dP/dz_mode + l P on dict polynomials. The reference for the
    one-pass sweep ``sampling._fock_projections``."""
    g = state.gauss
    m = state.modes
    ell = st.PolyPart.make(
        {tuple(1 if j == i else 0 for j in range(m)): -g.A[mode, i] for i in range(m)}
        | {(0,) * m: g.B[mode]}
    )
    poly = state.poly
    for _ in range(n):
        poly = poly_added(poly.derivative(mode), poly.multiplied(ell))
    rest = [k for k in range(m) if k != mode]
    section = {
        tuple(idx[k] for k in rest): c for idx, c in poly.coeffs.items() if idx[mode] == 0
    }
    scale = 1.0 / st.sqrt_factorial((n,))
    if not rest:
        return complex(sum(section.values()) * scale * np.exp(g.C))
    return st.StellarState.make(
        len(rest),
        st.PolyPart.make(section).scaled(scale),
        st.GaussPart.make(g.A[np.ix_(rest, rest)], g.B[rest], g.C, check=False),
    )


def _two_mode_squeezed(lam, poly=None):
    return st.normalized(
        st.StellarState.make(
            2, poly or st.PolyPart.one(2),
            st.GaussPart.make([[0, -lam], [-lam, 0]], [0, 0], 0),
        )
    )


class TestFockSweep:
    """One derivative sweep gives every projection n = 0..N."""

    N = 14

    @pytest.mark.parametrize("case", ["three_modes", "four_modes", "partly_coupled", "last_mode",
                                      "two_mode_squeezed", "photon_added_squeezed"])
    def test_matches_from_scratch(self, rng, case):
        if case == "three_modes":
            s = random_state(rng, 3, 3)
        elif case == "four_modes":
            s = random_state(rng, 4, 3)
        elif case == "partly_coupled":  # modes 2 and 3 keep their monomials
            s = st.StellarState.make(4, random_poly(rng, 4, 3), partly_coupled_gauss(rng, 4))
        elif case == "last_mode":  # projections are complex amplitudes
            s = random_state(rng, 1, 4)
        elif case == "two_mode_squeezed":  # projection n has rank n
            s = _two_mode_squeezed(0.5)
        else:
            s = _two_mode_squeezed(0.4, st.PolyPart.make({(1, 0): 1.0, (0, 2): 0.5j}))
        for mode in range(s.modes):
            sweep = sp._fock_projections(s, mode, self.N)
            assert len(sweep) == self.N + 1
            for n, got in enumerate(sweep):
                ref = _project_fock_reference(s, mode, n)
                if isinstance(ref, complex):
                    assert isinstance(got, complex)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)
                else:
                    assert_states_close(got, ref)
                last = sp.project_fock(s, mode, n)  # the last entry of a shorter sweep
                assert last == got if isinstance(got, complex) else last.poly == got.poly

    def test_stops_at_first_zero_projection(self, rng):
        # a Fock input through a passive gate has A = B = 0, so P_n vanishes
        # once n passes the photons in the mode
        s = mm.apply_passive(st.from_fock_superposition({(2, 1, 0): 1.0, (0, 1, 1): 0.5}, 3),
                             Passive.make(random_unitary(rng, 3)))
        for mode in range(3):
            sweep = sp._fock_projections(s, mode, self.N)
            assert len(sweep) == 5 and sweep[-1].poly.is_zero()  # total degree 3
            assert not any(p.poly.is_zero() for p in sweep[:-1])
            for n in range(self.N + 1):
                got = sweep[min(n, len(sweep) - 1)]
                assert_states_close(got, _project_fock_reference(s, mode, n))
                assert sp.project_fock(s, mode, n).poly == got.poly

    def test_engine_skips_zero_projections(self, rng, monkeypatch):
        from hqcsim import circuits as circ

        s = mm.apply_passive(st.from_fock_superposition({(1, 1, 1): 1.0}, 3),
                             Passive.make(random_unitary(rng, 3)))
        cfg = sp.SamplerConfig(seed=6, shots=150, cutoff=9)
        # the full sweep, one from-scratch projection per n
        monkeypatch.setattr(circ, "_fock_projections", lambda state, mode, nmax: [
            _project_fock_reference(state, mode, n) for n in range(nmax + 1)])
        reference = sp.sample_discrete(s, [0, 1, 2], cfg)
        monkeypatch.undo()
        norm = circ.norm_squared
        zero_calls = []
        monkeypatch.setattr(circ, "norm_squared", lambda state: zero_calls.append(
            state.poly.is_zero()) or norm(state))
        got = sp.sample_discrete(s, [0, 1, 2], cfg)
        assert [o.ns for o in got] == [o.ns for o in reference]
        assert zero_calls and not any(zero_calls)

    def test_uncoupled_modes_keep_their_monomials(self):
        # a squeezed pair on modes 0 and 1, one photon on each other mode: at
        # cutoff 30 only z_0 and z_1 grow, so memory must follow their 31
        # degrees, not every monomial of degree 34 in the five other modes
        m, nmax = 6, 30
        A = np.zeros((m, m), dtype=complex)
        A[0, 1] = A[1, 0] = -0.5
        photons = (1,) * (m - 2)
        poly = st.PolyPart.make({(0, 0) + photons: 1.0, (1, 0) + photons: 0.3j})
        s = st.StellarState.make(m, poly, st.GaussPart.make(A, np.zeros(m), 0))
        tracemalloc.start()
        try:
            sweep = sp._fock_projections(s, 0, nmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep) == nmax + 1 and peak < 5e6
        for n in (0, 1, 2, nmax):
            assert_states_close(sweep[n], _project_fock_reference(s, 0, n))

    def test_two_mode_squeezed_ranks(self):
        sweep = sp._fock_projections(_two_mode_squeezed(0.5), 0, self.N)
        assert [st.stellar_rank(p) for p in sweep] == list(range(self.N + 1))

    def test_rejects_bad_input(self):
        s = st.StellarState.vacuum(2)
        with pytest.raises(ValueError, match="mode index"):
            sp._fock_projections(s, 2, 3)
        with pytest.raises(ValueError, match="non-negative"):
            sp.project_fock(s, 0, -1)


def _projected_mass(state, modes, alphas):
    """Norm^2 of the coherent projection (the joint heterodyne density x pi^k),
    point by point: the reference for the closed-form marginal."""
    proj = sp.project_coherent(state, modes, alphas)
    if isinstance(proj, complex):
        return abs(proj) ** 2
    return st.norm_squared(proj)


class TestRejectionPlan:
    @settings(max_examples=30)
    @given(hst.integers(1, 4), hst.integers(0, 3), hst.data(), hst.integers(0, 2**32 - 1))
    def test_marginal_matches_projection(self, modes, rank, data, seed):
        # modes = 1 measures the last mode: the full-measurement target
        mode = data.draw(hst.integers(0, modes - 1))
        rng = np.random.default_rng(seed)
        s = st.normalized(random_state(rng, modes, rank))
        plan = sp._RejectionPlan(s, mode)
        # points out to twice the proposal's spread
        Y = plan.mean + rng.standard_normal((16, 2)) @ (2.0 * plan.chol.T)
        W = Y[:, :1] + 1j * Y[:, 1:]
        expect = np.array([_projected_mass(s, [mode], np.conj(w)) for w in W])
        np.testing.assert_allclose(plan.target(W), expect, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("modes", [[0], [1]])
    def test_envelope_violation_raises(self, rng, modes):
        # [0] of a two-mode state: closed-form marginal; [1] of the one-mode
        # state left after measuring mode 0: the full-measurement target
        s = st.normalized(random_state(rng, 2, 2))
        if modes == [1]:
            s = st.normalized(sp.project_coherent(s, [0], [0.3 - 0.2j]))
            modes = [0]
        plan = sp._RejectionPlan(s, modes[0])
        plan.draw(sp.shot_rng(0, 0))
        plan.log_env -= 5.0
        with pytest.raises(RuntimeError, match="envelope violated"):
            plan.draw(sp.shot_rng(0, 0))


class TestDiscreteSampler:
    def test_vacuum_all_zero(self):
        outs = sp.sample_discrete(
            st.StellarState.vacuum(2), [0, 1], sp.SamplerConfig(seed=1, shots=50, cutoff=8)
        )
        assert all(o.ns == (0, 0) for o in outs)

    def test_deterministic(self):
        cfg = sp.SamplerConfig(seed=42, shots=200, cutoff=20)
        a = sp.sample_discrete(coherent_state(1.0), [0], cfg)
        b = sp.sample_discrete(coherent_state(1.0), [0], cfg)
        assert a == b

    def test_poisson_mean(self):
        cfg = sp.SamplerConfig(seed=5, shots=20000, cutoff=22)
        outs = sp.sample_discrete(coherent_state(1.0), [0], cfg)
        mean = np.mean([o.ns[0] for o in outs])
        assert mean == pytest.approx(1.0, abs=0.02)

    def test_chain_matches_joint(self, rng):
        # sequential per-mode sampling reproduces the joint distribution
        s = st.normalized(random_state(rng, 2, 2, amax=0.3))
        cfg = sp.SamplerConfig(seed=9, shots=20000, cutoff=18)
        outs = sp.sample_discrete(s, [0, 1], cfg)
        emp = {}
        for o in outs:
            emp[o.ns] = emp.get(o.ns, 0) + 1.0 / cfg.shots
        joint = sp.fock_probabilities(s, 18)
        top = sorted(joint, key=joint.get, reverse=True)[:20]
        tv = 0.5 * sum(abs(emp.get(k, 0.0) - joint[k]) for k in top)
        assert tv <= 4 * math.sqrt(20 / cfg.shots)

    def test_cutoff_loss_raises(self):
        # the cutoff caps photons per mode; a coherent state with mean 9
        # photons keeps far more than 1e-6 of its mass above 5
        with pytest.raises(RuntimeError, match="captures only"):
            sp.sample_discrete(coherent_state(3.0), [0], sp.SamplerConfig(shots=1, cutoff=5))

    @pytest.mark.parametrize("modes, match", [([2], "mode index 2 out of range"),
                                              ([0, 0], "mode 0 measured twice")])
    def test_bad_modes_rejected(self, modes, match):
        with pytest.raises(ValueError, match=match):
            sp.sample_discrete(st.StellarState.vacuum(2), modes, sp.SamplerConfig())


class TestContinuousSampler:
    def test_deterministic(self):
        cfg = sp.SamplerConfig(seed=3, shots=64)
        a = sp.sample_continuous(st.StellarState.vacuum(1), [0], cfg)
        b = sp.sample_continuous(st.StellarState.vacuum(1), [0], cfg)
        assert a == b

    def test_vacuum_moments(self):
        cfg = sp.SamplerConfig(seed=12, shots=20000)
        outs = sp.sample_continuous(st.StellarState.vacuum(1), [0], cfg)
        al = np.array([o.alphas[0] for o in outs])
        assert abs(np.mean(al)) < 0.02
        assert np.mean(np.abs(al) ** 2) == pytest.approx(1.0, abs=0.03)

    def test_coherent_shift(self):
        beta = 0.8 - 0.5j
        cfg = sp.SamplerConfig(seed=4, shots=15000)
        outs = sp.sample_continuous(coherent_state(beta), [0], cfg)
        al = np.array([o.alphas[0] for o in outs])
        assert np.mean(al) == pytest.approx(beta, abs=0.03)

    def test_fock1_radial_ks(self):
        s = st.from_fock_superposition({(1,): 1.0}, 1)
        cfg = sp.SamplerConfig(seed=8, shots=15000)
        outs = sp.sample_continuous(s, [0], cfg)
        r = np.abs([o.alphas[0] for o in outs])
        ks = sps.kstest(r, lambda x: 1 - np.exp(-(x**2)) * (1 + x**2))
        assert ks.pvalue > 0.01

    def test_acceptance_rate_reported(self):
        stats = {}
        cfg = sp.SamplerConfig(seed=2, shots=500)
        sp.sample_continuous(st.StellarState.vacuum(1), [0], cfg, stats=stats)
        assert 0.05 < stats["acceptance_rate"] <= 1.0

    def test_subset_measurement_marginal(self):
        # measuring one mode of an entangled pair follows the reduced law
        lam = 0.4
        s = st.normalized(
            st.StellarState.make(
                2, st.PolyPart.one(2), st.GaussPart.make([[0, -lam], [-lam, 0]], [0, 0], 0)
            )
        )
        cfg = sp.SamplerConfig(seed=6, shots=4000)
        outs = sp.sample_continuous(s, [0], cfg)
        al = np.array([o.alphas[0] for o in outs])
        # thermal marginal: E[|alpha|^2] = 1 + sinh^2(r) with lam = tanh(r)
        nbar = lam**2 / (1 - lam**2)
        assert np.mean(np.abs(al) ** 2) == pytest.approx(1 + nbar, abs=0.05)

    def test_two_mode_squeezed_vacuum(self):
        # F = exp(lam z0 z1): E|alpha_k|^2 = 1/(1 - lam^2) and
        # E[alpha0 alpha1] = lam/(1 - lam^2), drawn one mode after the other
        import json

        from hqcsim import circuits as circ
        from hqcsim import io as hio

        lam = 0.4
        s = _two_mode_squeezed(lam)
        cfg = sp.SamplerConfig(seed=11, shots=2000)
        outs = sp.sample_continuous(s, [0, 1], cfg)
        doc = {"schema": circ.SCHEMA, "modes": 2,
               "prep": {"kind": "state", "state": hio.state_to_dict(s)},
               "circuit": [{"measure": "continuous", "modes": [0, 1], "name": "a"}]}
        rows = circ.run_circuit(circ.parse_circuit(json.dumps(doc)), cfg).rows
        ran = [records[0][3] for _, records in rows]
        for al in (np.array([o.alphas for o in outs]), np.array(ran)):
            for x, expect in ((np.abs(al[:, 0]) ** 2, 1 / (1 - lam**2)),
                              (np.abs(al[:, 1]) ** 2, 1 / (1 - lam**2)),
                              (al[:, 0] * al[:, 1], lam / (1 - lam**2))):
                err = np.std(x) / math.sqrt(cfg.shots)
                assert abs(np.mean(x) - expect) < 6 * err

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            sp.sample_continuous(
                st.StellarState.vacuum(1).scaled(0.5), [0], sp.SamplerConfig(shots=1)
            )


class TestHomodyne:
    def test_vacuum_quadrature_variance(self):
        stats = {}
        cfg = sp.SamplerConfig(seed=7, shots=8000)
        qs = sp.sample_homodyne(st.StellarState.vacuum(1), 0, cfg, stats=stats)
        assert np.mean(qs) == pytest.approx(0.0, abs=0.03)
        assert np.var(qs) == pytest.approx(0.5, abs=0.03)
        assert stats["variance_excess"] == pytest.approx(0.5 * np.exp(-6.0))


class TestOracleGate:
    def test_creation_operator(self):
        from hqcsim.gates import Create

        arr = st.to_fock_array(st.StellarState.vacuum(1), 6)
        out = fs.fock_oracle_apply(arr, Create(0))
        assert out.amplitude((1,)) == pytest.approx(1.0)
        two = fs.fock_oracle_apply(out, Create(0))
        assert two.amplitude((2,)) == pytest.approx(np.sqrt(2.0))

    def test_displacement_poisson(self):
        from hqcsim.gates import Displace

        arr = st.to_fock_array(st.StellarState.vacuum(1), 30)
        out = fs.fock_oracle_apply(arr, Displace.make([1.0]))
        for n in range(5):
            assert abs(out.amplitude((n,))) == pytest.approx(
                np.exp(-0.5) / math.sqrt(math.factorial(n)), abs=1e-10
            )

    def test_identity_gate(self):
        from hqcsim.gates import Phase

        arr = st.to_fock_array(coherent_state(0.5), 20)
        out = fs.fock_oracle_apply(arr, Phase(0, 0.0))
        for idx, a in arr.amplitudes.items():
            assert out.amplitude(idx) == pytest.approx(a, abs=1e-12)
