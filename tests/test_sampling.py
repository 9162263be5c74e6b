"""Measurement rules, projections, permanents, boson-sampling probabilities."""

import math

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
from conftest import coherent_state, random_state, random_unitary


class TestPermanent:
    def test_identity(self):
        assert sp.permanent(np.eye(5)) == pytest.approx(1.0)

    def test_hong_ou_mandel_zero(self):
        assert abs(sp.permanent(beamsplitter_matrix())) < 1e-15

    def test_against_definition(self, rng):
        for n in (2, 3, 4):
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert sp.permanent(M) == pytest.approx(sp.permanent_reference(M), abs=1e-12)

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
        from hqcsim.circuits import _photon_patterns

        m, photons = 4, 3
        U = random_unitary(rng, m)
        pattern = (1, 1, 1, 0)
        state = st.from_fock_superposition({pattern: 1.0}, m)
        evolved = mm.apply_passive(state, Passive.make(U))
        arr_st = st.to_fock_array(evolved, photons, warn_tail=False)
        arr0 = st.to_fock_array(state, photons, warn_tail=False)
        arr_or = fs.fock_oracle_apply(arr0, Passive.make(U), loss_tol=1.0)
        for out in _photon_patterns(m, photons):
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


def _projected_mass(state, modes, alphas):
    """Norm^2 of the coherent projection (the joint heterodyne density x pi^k),
    point by point: the reference for the closed-form marginal."""
    proj = sp.project_coherent(state, modes, alphas)
    if isinstance(proj, complex):
        return abs(proj) ** 2
    return st.norm_squared(proj)


class TestRejectionPlan:
    @settings(max_examples=30)
    @given(hst.integers(2, 3), hst.integers(0, 3), hst.data(), hst.integers(0, 2**32 - 1))
    def test_marginal_matches_projection(self, modes, rank, data, seed):
        measured = data.draw(hst.lists(hst.integers(0, modes - 1), min_size=1,
                                       max_size=modes - 1, unique=True))
        rng = np.random.default_rng(seed)
        s = st.normalized(random_state(rng, modes, rank))
        plan = sp._RejectionPlan(s, measured, 1.5)
        k = len(measured)
        # points out to twice the proposal's spread
        Y = plan.mean + rng.standard_normal((16, 2 * k)) @ (2.0 * plan.chol.T)
        W = Y[:, :k] + 1j * Y[:, k:]
        expect = np.array([_projected_mass(s, measured, np.conj(w)) for w in W])
        np.testing.assert_allclose(plan.target(W), expect, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("modes", [[0], [1]])
    def test_envelope_violation_raises(self, rng, modes):
        # [0] of a two-mode state: closed-form marginal; [1] of the one-mode
        # state left after measuring mode 0: the full-measurement target
        s = st.normalized(random_state(rng, 2, 2))
        if modes == [1]:
            s = st.normalized(sp.project_coherent(s, [0], [0.3 - 0.2j]))
            modes = [0]
        plan = sp._RejectionPlan(s, modes, 1.5)
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
