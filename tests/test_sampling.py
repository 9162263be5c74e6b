"""Measurement rules, projections, permanents, boson-sampling probabilities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy import stats as sps

from hqcsim import fockspace as fs
from hqcsim import multimode as mm
from hqcsim import sampling as sp
from hqcsim import states as st
from hqcsim.gates import Displace, Passive, Squeeze, beamsplitter_matrix
from conftest import (
    assert_states_close,
    coherent_state,
    partly_coupled_gauss,
    poly_added,
    random_admissible_gauss,
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


def _project_fock_references(state, mode, nmax):
    """(1/sqrt(n!)) d^n F / dz_mode^n at z_mode = 0 for n = 0..nmax, from
    scratch: derivative steps P -> dP/dz_mode + l P on dict polynomials, the
    section of every iterate taken on its own. The reference for the one-pass
    sweep ``sampling._fock_projections``."""
    g = state.gauss
    m = state.modes
    ell = st.PolyPart.make(
        {tuple(1 if j == i else 0 for j in range(m)): -g.A[mode, i] for i in range(m)}
        | {(0,) * m: g.B[mode]}
    )
    rest = [k for k in range(m) if k != mode]
    gauss_rest = st.GaussPart.make(g.A[np.ix_(rest, rest)], g.B[rest], g.C, check=False)
    poly, out = state.poly, []
    for n in range(nmax + 1):
        if n:
            poly = poly_added(poly.derivative(mode), poly.multiplied(ell))
        section = {
            tuple(idx[k] for k in rest): c for idx, c in poly.coeffs.items() if idx[mode] == 0
        }
        scale = 1.0 / st.sqrt_factorial((n,))
        if not rest:
            out.append(complex(sum(section.values()) * scale * np.exp(g.C)))
        else:
            out.append(st.StellarState.make(
                len(rest), st.PolyPart.make(section).scaled(scale), gauss_rest))
    return out


def _fock_masses_reference(projections, nmax):
    """The norm^2 of each n = 0..nmax of a list of projections (0 past its end):
    |amplitude|^2 on the last mode, else one Wick table over the down-closure
    of the nonzero projections' monomials, built from their dict polynomials, or,
    with a zero Gaussian part, the closed form summed exactly over each polynomial.
    The reference for ``sampling._fock_masses`` on the dense rows of a fill."""
    masses = np.zeros(nmax + 1)
    if isinstance(projections[0], complex):
        masses[:len(projections)] = [abs(p) ** 2 for p in projections]
        return masses
    live = [n for n, p in enumerate(projections) if not p.poly.is_zero()]
    polys, gauss = [projections[n].poly for n in live], projections[0].gauss
    if not (gauss.A.any() or gauss.B.any()):  # polynomials: e^{2 Re C} sum |p|^2 n!
        for n, poly in zip(live, polys):
            weight = np.array([math.prod(map(math.factorial, k)) for k in poly.coeffs], dtype=float)
            terms = np.abs(np.array(list(poly.coeffs.values()))) ** 2 * weight
            masses[n] = math.exp(2.0 * gauss.C.real) * math.fsum(terms.tolist())
        return masses
    gauss.check_admissible()
    index = st._MomentIndex(gauss.modes, [n for p in polys for n in p.coeffs])
    core, T = st._wick_table(gauss, gauss, index, index)
    p = np.zeros((len(polys), index.size), dtype=complex)
    for row, poly in zip(p, polys):
        row[[index.pos[n] for n in poly.coeffs]] = list(poly.coeffs.values())
    masses[live] = (core * np.sum((np.conj(p) @ T) * p, axis=1)).real
    return masses


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
            assert len(sweep if s.modes == 1 else sweep.rows) == self.N + 1
            refs = _project_fock_references(s, mode, self.N)
            for n, ref in enumerate(refs):
                got = sweep[n]
                if isinstance(ref, complex):
                    assert isinstance(got, complex)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)
                else:
                    assert_states_close(got, ref)
                last = sp.project_fock(s, mode, n)  # entry n of a shorter sweep
                assert last == got if isinstance(got, complex) else last.poly == got.poly

    def test_stops_at_first_zero_projection(self, rng):
        # a Fock input through a passive gate has A = B = 0, so P_n vanishes
        # once n passes the photons in the mode
        s = mm.apply_passive(st.from_fock_superposition({(2, 1, 0): 1.0, (0, 1, 1): 0.5}, 3),
                             Passive.make(random_unitary(rng, 3)))
        for mode in range(3):
            sweep = sp._fock_projections(s, mode, self.N)
            assert len(sweep.rows) == 5 and sweep[4].poly.is_zero()  # total degree 3
            assert not any(sweep[n].poly.is_zero() for n in range(4))
            for n, ref in enumerate(_project_fock_references(s, mode, self.N)):
                got = sweep[n]  # past the last row: the zero projection
                assert_states_close(got, ref)
                assert sp.project_fock(s, mode, n).poly == got.poly

    def test_engine_skips_zero_projections(self, rng, monkeypatch):
        from hqcsim import circuits as circ

        s = mm.apply_passive(st.from_fock_superposition({(1, 1, 1): 1.0}, 3),
                             Passive.make(random_unitary(rng, 3)))
        cfg = sp.SamplerConfig(seed=6, shots=150, cutoff=9)
        # the full sweep from the dict recurrence, and its masses
        monkeypatch.setattr(sp, "_fock_projections", _project_fock_references)
        monkeypatch.setattr(sp, "_fock_masses", _fock_masses_reference)
        reference = sp.sample_discrete(s, [0, 1, 2], cfg)
        monkeypatch.undo()
        # A = B = 0 throughout: every mass is the Fock-basis closed form, so no
        # fill builds a Wick table or takes a norm of its own
        fills, sweep = [], sp._fock_projections
        monkeypatch.setattr(sp, "_fock_projections",
                            lambda *args: fills.append(sweep(*args)) or fills[-1])
        monkeypatch.setattr(sp, "_wick_table", lambda *args: pytest.fail("Wick table built"))
        monkeypatch.setattr(st, "inner_product", lambda *args: pytest.fail("norm taken"))
        engine = circ._ShotEngine(circ.measurement_circuit(3, "discrete", [0, 1, 2]), cfg, s)
        got = [engine.run_shot(shot)[0][0][3] for shot in range(cfg.shots)]
        assert got == [o.ns for o in reference]
        with_modes_left = [f for f in fills if not isinstance(f, list)]
        assert len(with_modes_left) < len(fills)
        assert any(not row.any() for f in with_modes_left for row in f.rows)
        # each fill ends at its first zero row, and only drawn counts get a state
        assert all(f.rows[:-1].any(axis=1).all() and not f.rows[-1].any() for f in with_modes_left)
        drawn = {o.ns[:k + 1] for o in reference for k in range(2)}  # (history, count)
        built = sum(len(f._states) for f in with_modes_left)
        assert 0 < built <= len(drawn) < sum(len(f.rows) for f in with_modes_left)

    @pytest.mark.parametrize("circuit", ["boson_sampling", "deep_gates"])
    def test_engine_rows_match_the_reference_fills(self, rng, monkeypatch, circuit):
        from hqcsim import circuits as circ

        pair = lambda z: [z.real, z.imag]  # noqa: E731
        if circuit == "boson_sampling":  # 3 photons in 4 modes through an interferometer
            U = random_unitary(rng, 4)
            doc = {"modes": 4, "prep": {"kind": "fock_pattern", "pattern": [1, 1, 1, 0]},
                   "circuit": [{"type": "passive",
                                "matrix": [[pair(u) for u in row] for row in U]}]}
        else:  # a rank-3 photon-added input through layers of constant gates
            gates = []
            for _ in range(3):
                gates.append({"type": "beamsplitter", "modes": [0, 1]})
                for mode in (0, 1):
                    xi, beta = 0.05 * np.exp(1j * rng.uniform(0, 6, 2))
                    gates += [{"type": "squeeze", "mode": mode, "xi": pair(xi)},
                              {"type": "shear", "mode": mode, "s": 0.03},
                              {"type": "displace", "mode": mode, "amount": pair(2 * beta)}]
            doc = {"modes": 2, "prep": {"kind": "photon_added",
                                        "base": {"kind": "gaussian", "gates": [
                                            {"type": "squeeze", "mode": 0, "xi": [0.15, 0.05]}]},
                                        "ops": [{"create": 0}, {"create": 1}, {"create": 0}]},
                   "circuit": gates}
        doc["circuit"].append({"measure": "discrete", "modes": list(range(doc["modes"])),
                               "name": "n"})
        spec = circ.parse_circuit({"schema": circ.SCHEMA, **doc})
        for seed in range(5):
            cfg = sp.SamplerConfig(seed=seed, shots=40, cutoff=30)
            got = circ.run_circuit(spec, cfg).rows
            assert len({row[1][0][3] for row in got}) > 3  # many histories
            with monkeypatch.context() as patch:
                patch.setattr(sp, "_fock_projections", _project_fock_references)
                patch.setattr(sp, "_fock_masses", _fock_masses_reference)
                assert circ.run_circuit(spec, cfg).rows == got

    def test_uncoupled_modes_keep_their_monomials(self):
        # a squeezed pair on modes 0 and 1, one photon on each other mode: at
        # cutoff 30 only z_0 and z_1 grow, so memory must follow their 31
        # degrees, not every monomial of degree 34 in the five other modes
        s, nmax = _squeezed_pair_with_photons(), 30
        tracemalloc.start()
        try:
            sweep = sp._fock_projections(s, 0, nmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep.rows) == nmax + 1 and peak < 5e6
        refs = _project_fock_references(s, 0, nmax)
        for n in (0, 1, 2, nmax):
            assert_states_close(sweep[n], refs[n])

    def test_fill_masses_follow_the_fill_monomials(self):
        # the masses' table is indexed by the fill's own monomials, not by a
        # graded index of degree 4 + n in the five other modes per projection
        s = st.normalized(_squeezed_pair_with_photons())
        tracemalloc.start()
        try:
            sp._fock_masses(sp._fock_projections(s, 0, 5), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        masses = sp._fock_masses(sp._fock_projections(s, 0, 30), 30)
        assert abs(masses.sum() - 1.0) < 1e-10
        cfg = sp.SamplerConfig(seed=2, shots=20, cutoff=30)
        assert len(sp.sample_discrete(s, [0], cfg)) == cfg.shots

    def test_two_mode_squeezed_ranks(self):
        sweep = sp._fock_projections(_two_mode_squeezed(0.5), 0, self.N)
        assert [st.stellar_rank(sweep[n]) for n in range(self.N + 1)] == list(range(self.N + 1))

    def test_last_mode_at_cutoff_150(self, rng):
        # a displaced rank-3 state with about 25 photons: h_j grows like b^j / sqrt(j!)
        # before it decays, and every amplitude stays finite
        s = st.normalized(st.StellarState.make(
            1, random_poly(rng, 1, 3), st.GaussPart.make([[0.3 - 0.2j]], [4.0 + 2.5j], 0)))
        amps = sp._fock_projections(s, 0, 150)
        expect = [st.to_fock_array(s, 150, warn_tail=False).amplitude((n,)) for n in range(151)]
        assert np.isfinite(amps).all()
        np.testing.assert_allclose(amps, expect, rtol=1e-12, atol=1e-12 * max(map(abs, expect)))
        assert abs(sum(abs(a) ** 2 for a in amps) - 1.0) < 1e-12

    def test_rejects_bad_input(self):
        s = st.StellarState.vacuum(2)
        with pytest.raises(ValueError, match="mode index"):
            sp._fock_projections(s, 2, 3)
        with pytest.raises(ValueError, match="non-negative"):
            sp.project_fock(s, 0, -1)


def _squeezed_pair_with_photons(m=6):
    """A squeezed pair on modes 0 and 1 times one photon on each other mode."""
    A = np.zeros((m, m), dtype=complex)
    A[0, 1] = A[1, 0] = -0.5
    photons = (1,) * (m - 2)
    poly = st.PolyPart.make({(0, 0) + photons: 1.0, (1, 0) + photons: 0.3j})
    return st.StellarState.make(m, poly, st.GaussPart.make(A, np.zeros(m), 0))


def _free_mode_gauss(rng, modes, mode):
    """``random_admissible_gauss`` with row ``mode`` of A and B_mode cut to zero
    (a compression of A, so its singular values stay below amax)."""
    g = random_admissible_gauss(rng, modes)
    A, B = g.A.copy(), g.B.copy()
    A[mode] = A[:, mode] = B[mode] = 0
    return st.GaussPart.make(A, B, g.C)


class TestFockMasses:
    @settings(max_examples=150)
    @given(hst.integers(1, 4), hst.integers(0, 3),
           hst.sampled_from(["coupled", "partly_coupled", "free_mode", "zero"]),
           hst.sampled_from([0, 1, 6, 30]), hst.data(), hst.integers(0, 2**32 - 1))
    def test_one_table_matches_per_projection_norms(self, modes, rank, gauss, nmax, data, seed):
        # m = 1 fills are amplitudes; with l = 0 (a free measured mode, or a Fock
        # input with A = B = 0) projection n is sqrt(n!) times the z_k^n section
        # row, and the rows stop after the last nonzero one; with A = B = 0 the
        # masses are the Fock-basis closed form, else one Wick table's.
        # The references: the dict sweep and the masses of its dict polynomials.
        # nmax = 30, the engine's default cutoff, is drawn for the l = 0 kinds:
        # a coupled fill there has masses down to 1e-26, which Wick tables
        # summed in another order match only to about 2e-12 relative.
        assume(nmax < 30 or gauss in ("free_mode", "zero"))
        mode = data.draw(hst.integers(0, modes - 1))
        rng = np.random.default_rng(seed)
        g = {"coupled": random_admissible_gauss, "partly_coupled": partly_coupled_gauss,
             "free_mode": lambda rng, m: _free_mode_gauss(rng, m, mode),
             "zero": lambda rng, m: st.GaussPart.make(np.zeros((m, m)), np.zeros(m), 0.2j)}
        s = st.StellarState.make(modes, random_poly(rng, modes, rank), g[gauss](rng, modes))
        fill = sp._fock_projections(s, mode, nmax)
        refs = _project_fock_references(s, mode, nmax)
        masses = sp._fock_masses(fill, nmax)
        np.testing.assert_allclose(masses, _fock_masses_reference(refs, nmax), rtol=1e-12, atol=0)
        if modes == 1:
            oracle = st.to_fock_array(s, nmax, warn_tail=False)
            expect = [oracle.amplitude((n,)) for n in range(nmax + 1)]
            scale = max(abs(a) for a in expect)
            np.testing.assert_allclose(fill, expect, rtol=1e-12, atol=1e-12 * scale)
            return
        # the arithmetic of the masses of the projections' own polynomials, and
        # each projection against its own closed-form norm
        projections = [fill[n] for n in range(nmax + 1)]
        np.testing.assert_array_equal(masses, _fock_masses_reference(projections, nmax))
        expect = [st.norm_squared(p) for p in projections]
        np.testing.assert_allclose(masses, expect, rtol=1e-12, atol=0)
        for got, ref in zip(projections, refs):
            assert_states_close(got, ref)

    def test_zero_rows_skip_the_contraction(self, rng, monkeypatch):
        # two photons mixed on modes 0 and 1, a squeezed photon on mode 2: mode 0
        # is free (l = 0), so its rows end at a zero row, and the Wick masses of
        # modes 1 and 2 contract only the nonzero rows
        U = np.eye(3, dtype=complex)
        U[:2, :2] = random_unitary(rng, 2)
        s = mm.apply_gate(mm.apply_passive(st.from_fock_superposition({(1, 1, 1): 1.0}, 3),
                                           Passive.make(U)), Squeeze(2, 0.3))
        contracted, tables, table = [], [], sp._wick_table

        class Table(np.ndarray):  # records the rows contracted with the Wick table
            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                if ufunc is np.matmul:
                    contracted.extend(args[0])
                return getattr(ufunc, method)(*map(np.asarray, args), **kwargs)

        def recording(*args):
            tables.append(1)
            core, T = table(*args)
            return core, T.view(Table)

        monkeypatch.setattr(sp, "_wick_table", recording)
        fill = sp._fock_projections(s, 0, 6)
        masses = sp._fock_masses(fill, 6)
        live = fill.rows.any(axis=1)
        assert len(live) == 4 and not live[-1] and live[:-1].all()
        assert len(tables) == 1  # one Wick table for all the fill's masses
        assert len(contracted) == 3 and all(row.any() for row in contracted)
        expect = [st.norm_squared(fill[n]) for n in range(7)]
        np.testing.assert_allclose(masses, expect, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pattern, squeeze", [((21, 0), 0.0), ((11, 11), 0.0),
                                                  ((11, 11), 0.3)])
    def test_many_photons_on_the_measured_mode(self, pattern, squeeze):
        # 21 or more photons on mode 0 at the default cutoff: sqrt(n!) of the
        # rows must not pass through integers (21! exceeds 64 bits); a squeezed
        # mode 1 keeps mode 0 free but sends the masses through a Wick table
        s = st.from_fock_superposition({pattern: 1.0}, 2)
        if pattern[1]:
            s = mm.apply_passive(s, Passive.make(beamsplitter_matrix()))
        if squeeze:
            s = mm.apply_gate(s, Squeeze(1, squeeze))
        fill = sp._fock_projections(s, 0, 30)
        refs = _project_fock_references(s, 0, 30)
        masses = sp._fock_masses(fill, 30)
        np.testing.assert_allclose(masses, _fock_masses_reference(refs, 30), rtol=1e-12, atol=0)
        for n, ref in enumerate(refs):
            assert_states_close(fill[n], ref)
        assert math.fsum(masses) == pytest.approx(1.0, rel=1e-12)  # every photon below 30
        if pattern == (21, 0):
            np.testing.assert_allclose(masses, np.eye(31)[21], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("modes", [2, 3])
    def test_coupled_fills_keep_absolute_accuracy(self, modes):
        # at the default cutoff a coupled fill has masses down to 1e-27 of the
        # largest, where relative precision is not promised (``_fock_masses``);
        # every mass matches, to 1e-15 of the largest, the masses of the fill's
        # projections from their dict polynomials
        faintest = 1.0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for gauss in (random_admissible_gauss, partly_coupled_gauss):
                s = st.StellarState.make(modes, random_poly(rng, modes, 3), gauss(rng, modes))
                for mode in range(modes):
                    fill = sp._fock_projections(s, mode, 30)
                    masses = sp._fock_masses(fill, 30)
                    ref = _fock_masses_reference([fill[n] for n in range(31)], 30)
                    assert np.abs(masses - ref).max() <= 1e-15 * ref.max()
                    faintest = min(faintest, masses.min() / masses.max())
        assert faintest < 1e-25

    def test_faint_projections_keep_their_mass(self):
        # B_0 = 1e-3 makes projection n of order 1e-3^n: a prune relative to the
        # largest entry of all rows, not of each row, would zero the faintest masses
        s = st.StellarState.make(2, st.PolyPart.make({(0, 0): 1.0, (1, 1): 0.5}),
                                 st.GaussPart.make(np.zeros((2, 2)), [1e-3, 0.2], 0))
        masses = sp._fock_masses(sp._fock_projections(s, 0, 8), 8)
        assert (masses > 0).all()
        expect = _fock_masses_reference(_project_fock_references(s, 0, 8), 8)
        np.testing.assert_allclose(masses, expect, rtol=1e-12, atol=0)


def _projected_mass(state, modes, alphas):
    """Norm^2 of the coherent projection (the joint heterodyne density x pi^k),
    point by point: the reference for the closed-form marginal."""
    proj = sp.project_coherent(state, modes, alphas)
    if isinstance(proj, complex):
        return abs(proj) ** 2
    return st.norm_squared(proj)


def _wick_moments_batched(mu, K, rows, cols):
    """T[n, a, b] = E[u^a w^b] for the formal Gaussians over v = (u, w) of means
    ``mu[n]`` and covariance ``K``, a table per mean, shell by shell: the
    reference for a plan's one mean-zero table and shifted polynomials."""
    m, nc = mu.shape[1] // 2, cols.size
    T = np.zeros((mu.shape[0], rows.size + 1, nc + 1), dtype=complex)  # last row/column: pads
    first = T[:, 0]
    first[:, 0] = 1.0
    for S, k, p, n_p, down_p in cols.shells:
        first[:, S] = mu[:, m + k] * first[:, p] + np.sum(K[m + k, m:] * n_p * first[:, down_p], 2)
    b = cols.n.T
    for S, k, p, n_p, down_p in rows.shells:
        prev = T[:, p]
        T[:, S, :nc] = (mu[:, k, None] * prev[:, :, :nc]
                        + ((K[k, :m] * n_p)[:, None, :] @ T[:, down_p, :nc])[:, :, 0]
                        + (K[k, m:][:, None, :] @ (b * prev[:, :, cols.down]))[:, :, 0])
    return T[:, :-1, :-1]


def _log_target_reference(plan, W):
    """``_RejectionPlan.log_target`` with a Wick table filled at each point's
    mean mu(w) and contracted with the unshifted p(w)."""
    w = W[:, 0]
    BR = plan.B_R - w[:, None] * plan.A_RI
    const = plan.C + plan.B_I * w - 0.5 * plan.A_II * w**2
    L = np.concatenate([np.conj(BR), BR], axis=1)
    mu = L @ plan.K
    p = (w[:, None] ** plan.powers) @ plan.Q
    T = _wick_moments_batched(mu, plan.K, plan.index, plan.index)
    s = np.einsum("na,nab,nb->n", np.conj(p), T, p).real
    return (2.0 * const.real - np.abs(w) ** 2 + 0.5 * np.einsum("ni,ni->n", L, mu).real
            - plan.log_root + np.log(s))


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

    @settings(max_examples=40)
    @given(hst.integers(1, 4), hst.integers(0, 4), hst.integers(0, 2**32 - 1))
    def test_shifted_target_matches_per_point_tables(self, modes, rank, seed):
        # every mode, points out to +-4 sigma of the Gaussian-part Husimi
        rng = np.random.default_rng(seed)
        s = st.normalized(random_state(rng, modes, rank))
        for mode in range(modes):
            plan = sp._RejectionPlan(s, mode)
            white = plan.chol / math.sqrt(sp.PROPOSAL_INFLATION)
            Y = plan.mean + rng.uniform(-4.0, 4.0, (16, 2)) @ white.T
            W = Y[:, :1] + 1j * Y[:, 1:]
            np.testing.assert_allclose(plan.log_target(W), _log_target_reference(plan, W),
                                       rtol=0, atol=1e-12)

    def test_one_wick_fill_per_plan(self, rng, monkeypatch):
        s = st.normalized(random_state(rng, 3, 4))
        fills, fill = [], st._wick_moments

        def counting(*args):
            fills.append(1)
            return fill(*args)

        monkeypatch.setattr(sp, "_wick_moments", counting)
        monkeypatch.setattr(st, "_wick_moments", counting)  # fills through _wick_table
        plan = sp._RejectionPlan(s, 1)
        assert len(fills) == 1  # the envelope fit's targets fill none
        W = plan.mean @ [1.0, 1j] + rng.normal(size=(10**4, 1)) + 1j * rng.normal(size=(10**4, 1))
        assert np.isfinite(plan.target(W)).all()
        assert len(fills) == 1

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


def _log_density_ratios(plan, Y):
    """log(target / proposal) at proposal-space points Y, with the proposal
    N(mean, chol chol^T) from scipy."""
    proposal = sps.multivariate_normal(plan.mean, plan.chol @ plan.chol.T)
    return plan.log_target(Y[:, :1] + 1j * Y[:, 1:]) - proposal.logpdf(Y)


class TestEnvelopeBound:
    @settings(max_examples=8)
    @given(hst.integers(1, 3), hst.integers(0, 4), hst.integers(0, 2**32 - 1))
    def test_bounds_grid_and_draws(self, modes, rank, seed):
        # log_env bounds target/proposal on a +-10 sigma whitened 401^2 grid
        # and at 1e5 proposal draws, for every mode of the state and of the
        # states left as modes are measured, down to the last mode; it is
        # exact at rank 0, up to rounding
        rng = np.random.default_rng(seed)
        s = st.normalized(random_state(rng, modes, rank))
        while True:
            for mode in range(s.modes):
                self._check_plan(sp._RejectionPlan(s, mode), st.stellar_rank(s), rng)
            if s.modes == 1:
                break
            s = st.normalized(sp.project_coherent(s, [0], [complex(*rng.normal(size=2))]))

    @staticmethod
    def _check_plan(plan, rank, rng):
        white = plan.chol / math.sqrt(sp.PROPOSAL_INFLATION)
        x = np.linspace(-10.0, 10.0, 401)
        grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        on_grid = _log_density_ratios(plan, plan.mean + grid @ white.T)
        drawn = _log_density_ratios(plan, plan.mean + rng.standard_normal((10**5, 2)) @ plan.chol.T)
        assert max(on_grid.max(), drawn.max()) <= plan.log_env + 1e-12
        if rank == 0:
            assert on_grid.max() == pytest.approx(plan.log_env, abs=1e-12)
        # a draw is accepted with probability pi exp(-log_env) (the target
        # integrates to pi): the mean of the ratio over the envelope at the
        # proposal draws, within 5 standard errors
        accept = math.pi * math.exp(-plan.log_env)
        x = np.exp(drawn - plan.log_env)
        assert abs(x.mean() - accept) <= 5 * x.std() / math.sqrt(x.size)
        assert accept >= sp.MIN_ACCEPT_RATE


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

    def test_zero_draw_picks_a_count_with_mass(self, monkeypatch):
        # u = 0 falls in [cdf[n - 1], cdf[n]) of the first count with mass,
        # never on a count of zero mass such as n = 0 of |1>
        from hqcsim import circuits as circ

        class ZeroRng:
            def random(self):
                return 0.0

        monkeypatch.setattr(circ, "shot_rng", lambda seed, shot: ZeroRng())
        for pattern in [(1,), (1, 1), (0, 2, 1)]:
            s = st.from_fock_superposition({pattern: 1.0}, len(pattern))
            outs = sp.sample_discrete(s, list(range(len(pattern))), sp.SamplerConfig(shots=2))
            assert [o.ns for o in outs] == [pattern] * 2

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


def _reduced_husimi(state, cutoff, alphas):
    """Mode-0 Husimi density of a two-mode state from its truncated Fock
    amplitudes psi[n0, n1]: exp(-|a|^2) sum_n1 |sum_n0 psi conj(a)^n0 / sqrt(n0!)|^2 / pi."""
    psi = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for (n0, n1), amp in st.to_fock_array(state, cutoff).amplitudes.items():
        psi[n0, n1] = amp
    n = np.arange(cutoff + 1)
    V = np.conj(alphas)[:, None] ** n / np.sqrt([float(math.factorial(k)) for k in n])
    return np.exp(-np.abs(alphas) ** 2) * np.sum(np.abs(V @ psi) ** 2, axis=1) / np.pi


class TestHeterodyneAboveRankOne:
    def test_fock3_gamma_ks(self):
        # the Husimi density of |3> is exp(-|a|^2) |a|^6 / (pi 3!): |a|^2 ~ Gamma(4)
        s = st.from_fock_superposition({(3,): 1.0}, 1)
        outs = sp.sample_continuous(s, [0], sp.SamplerConfig(seed=8, shots=10000))
        r2 = np.abs([o.alphas[0] for o in outs]) ** 2
        assert sps.kstest(r2, sps.gamma(4).cdf).pvalue > 0.01

    def test_two_mode_rank2_marginal_chi2(self):
        # mode 0 of a coupled two-mode rank-2 state against the Husimi density
        # of its truncated Fock oracle, integrated over unit squares of
        # [-5, 5]^2 (midpoint rule, 20^2 points a square); squares expected
        # to hold under 5 outcomes join the bin of everything else
        s = st.normalized(random_state(np.random.default_rng(5), 2, 2))
        shots = 4000
        outs = sp.sample_continuous(s, [0], sp.SamplerConfig(seed=14, shots=shots))
        a = np.array([o.alphas[0] for o in outs])
        h = 0.05
        mid = np.arange(-5.0 + h / 2, 5.0, h)
        X, Yg = np.meshgrid(mid, mid, indexing="ij")
        q = _reduced_husimi(s, 40, (X + 1j * Yg).ravel()).reshape(X.shape) * h * h
        expect = q.reshape(10, 20, 10, 20).sum(axis=(1, 3)).ravel() * shots
        ix = np.floor(a.real + 5.0).astype(int)
        iy = np.floor(a.imag + 5.0).astype(int)
        inside = (ix >= 0) & (ix < 10) & (iy >= 0) & (iy < 10)
        seen = np.bincount(ix[inside] * 10 + iy[inside], minlength=100).astype(float)
        big = expect >= 5
        observed = np.append(seen[big], shots - seen[big].sum())
        expected = np.append(expect[big], shots - expect[big].sum())
        assert expected[-1] >= 5 and big.sum() >= 20
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert sps.chi2.sf(chi2, len(observed) - 1) > 0.01


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
