"""Core stellar-state model: construction, norms, zeros, tensor, expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hqcsim import fockspace as fs
from hqcsim import multimode as mm
from hqcsim import states as st
from hqcsim.gates import Passive, Squeeze
from conftest import (
    coherent_state,
    partly_coupled_gauss,
    random_admissible_gauss,
    random_poly,
    random_state,
    random_unitary,
)


def _inner_product_graded(s1, s2):
    """<s1|s2> with each Wick table index graded up to the polynomial's
    degree: the reference for ``inner_product``'s down-closed index."""
    g1, g2 = s1.gauss, s2.gauss
    K, roots = st._bargmann_kernel(g1.A, g2.A)
    L = np.concatenate([np.conj(g1.B), g2.B])
    mu = K @ L
    core = np.exp(np.conj(g1.C) + g2.C + 0.5 * L @ mu) / np.prod(roots)
    rows = st._moment_index(s1.modes, s1.poly.degree())
    cols = st._moment_index(s1.modes, s2.poly.degree())
    c1, c2 = s1.poly.coeffs, s2.poly.coeffs
    T = st._wick_moments(mu, K, rows, cols)
    T = T[np.ix_([rows.pos[n] for n in c1], [cols.pos[n] for n in c2])]
    p1, p2 = np.conj(list(c1.values())), np.array(list(c2.values()))
    return complex(core * np.sum(p1[:, None] * T * p2))

TOL_ROOT = 1e-9


class TestFromFockSuperposition:
    def test_vacuum(self):
        s = st.from_fock_superposition({(0,): 1.0}, 1)
        assert st.stellar_rank(s) == 0
        assert st.evaluate(s, [0.3 + 0.1j]) == pytest.approx(1.0)

    def test_fock2_coefficient(self):
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        # |n> corresponds to z^n / sqrt(n!)
        assert st.evaluate(s, [2.0]) == pytest.approx(4.0 / np.sqrt(2.0))

    def test_two_mode_monomial(self):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        assert s.poly.coeffs == {(1, 1): 1.0 + 0j}

    def test_errors(self):
        with pytest.raises(ValueError):
            st.from_fock_superposition({(1, 0): 1.0}, 1)
        with pytest.raises(ValueError):
            st.from_fock_superposition({}, 1)
        with pytest.raises(ValueError):
            st.from_fock_superposition({(0,): 0.0}, 1)


class TestEvaluate:
    def test_fock2_at_two(self):
        s = st.from_fock_superposition({(2,): 1.0}, 1)
        assert st.evaluate(s, [2.0]) == pytest.approx(2.0 * np.sqrt(2.0))

    def test_constant(self):
        s = st.StellarState.vacuum(1)
        assert st.evaluate(s, [1.7 - 0.4j]) == pytest.approx(1.0)

    def test_coherent_value(self):
        s = coherent_state(1.0)
        assert st.evaluate(s, [1.0]) == pytest.approx(np.exp(0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            st.evaluate(st.StellarState.vacuum(2), [1.0])


class TestHusimi:
    def test_vacuum_at_zero(self):
        q = st.husimi_density(st.StellarState.vacuum(1), [0.0])
        assert q == pytest.approx(1.0 / np.pi)

    def test_vacuum_general(self):
        alpha = 0.7 - 0.3j
        q = st.husimi_density(st.StellarState.vacuum(1), [alpha])
        assert q == pytest.approx(np.exp(-abs(alpha) ** 2) / np.pi)

    def test_fock1_at_one(self):
        s = st.from_fock_superposition({(1,): 1.0}, 1)
        assert st.husimi_density(s, [1.0]) == pytest.approx(np.exp(-1.0) / np.pi)

    def test_rejects_unnormalized(self):
        s = st.StellarState.vacuum(1).scaled(0.3)
        with pytest.raises(ValueError, match="not normalized"):
            st.husimi_density(s, [0.0])

    @pytest.mark.parametrize("alpha", [5.0, 20.0, 30.0, 40.0, 40j])
    def test_squeezed_vacuum_far_out(self, alpha):
        # S(1.5) = exp((1.5 a^dag^2 - 1.5 a^2)/2) stretches x: var x = e^3/2, var p = e^-3/2.
        # The Husimi Q is the normal density of covariance V + I/2 in (x, p) =
        # sqrt(2) (Re alpha, Im alpha), times 2 as d^2 alpha = dx dp / 2.
        s = mm.apply_gate(st.StellarState.vacuum(1), Squeeze(0, 1.5))
        var = 0.5 * (np.exp([3.0, -3.0]) + 1.0)
        xp = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
        expect = np.exp(-0.5 * np.sum(xp**2 / var)) / (np.pi * np.sqrt(np.prod(var)))
        assert st.husimi_density(s, [alpha]) == pytest.approx(expect, rel=1e-10, abs=0.0)

    def test_definitional_identity(self, rng):
        s = st.normalized(random_state(rng, 2, 2))
        for _ in range(5):
            alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = st.husimi_density(s, alpha)
            rhs = (
                np.exp(-np.sum(np.abs(alpha) ** 2))
                * abs(st.evaluate(s, np.conj(alpha))) ** 2
                / np.pi**2
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_integral_is_one(self, rng):
        for modes in (1, 2):
            s = st.normalized(random_state(rng, modes, 2, amax=0.4))
            assert st.husimi_integral(s, order=48) == pytest.approx(1.0, abs=1e-6)


class TestNorm:
    def test_vacuum(self):
        assert st.norm_squared(st.StellarState.vacuum(1)) == pytest.approx(1.0)

    def test_fock1_unnormalized_poly(self):
        # F(z) = z carries norm 1 (the 1/sqrt(1!) factor is trivial);
        # cross-check against Gauss-Hermite quadrature of the defining integral
        s = st.StellarState.make(1, st.PolyPart.make({(1,): 1.0}), st.GaussPart.vacuum(1))
        ns = st.norm_squared(s)
        assert ns == pytest.approx(1.0, rel=1e-12)
        assert ns == pytest.approx(st.husimi_integral(s, order=40), rel=1e-8)

    def test_scaling_by_exp(self):
        s = coherent_state(0.6)
        assert st.norm_squared(s.scaled(1.0)) == pytest.approx(
            np.exp(2.0) * st.norm_squared(s), rel=1e-12
        )

    def test_closed_gaussian_form(self):
        # pure Gaussian norm agrees with the quadrature oracle
        g = st.StellarState.make(
            1, st.PolyPart.one(1), st.GaussPart.make([[0.4 + 0.2j]], [0.3 - 0.1j], 0.2)
        )
        assert st.norm_squared(g) == pytest.approx(st.husimi_integral(g, order=60), rel=1e-8)

    def test_divergent_rejected(self):
        with pytest.raises(st.AdmissibilityError):
            st.GaussPart.make([[1.0]], [0.0], 0.0)


class TestInnerProduct:
    def test_fock_orthonormal(self):
        focks = [st.from_fock_superposition({(n,): 1.0}, 1) for n in range(4)]
        for i, si in enumerate(focks):
            for j, sj in enumerate(focks):
                expect = 1.0 if i == j else 0.0
                assert st.inner_product(si, sj) == pytest.approx(expect, abs=1e-12)

    def test_consistency_with_norm(self, rng):
        s = random_state(rng, 2, 2)
        assert st.inner_product(s, s).real == pytest.approx(st.norm_squared(s), rel=1e-10)

    def test_fock1_vs_coherent(self):
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        ip = st.inner_product(f1, coherent_state(1.0))
        assert ip == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_conjugate_linear_first(self):
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        s = f1.scaled(0.3j)
        assert st.inner_product(s, f1) == pytest.approx(np.conj(np.exp(0.3j)))

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            st.inner_product(st.StellarState.vacuum(1), st.StellarState.vacuum(2))

    @settings(max_examples=30)
    @given(hst.integers(1, 3), hst.integers(0, 4), hst.integers(0, 4),
           hst.integers(0, 2**32 - 1))
    def test_matches_truncated_fock_sum(self, modes, rank1, rank2, seed):
        # with |A| <= 0.25 the Fock tail beyond these cutoffs is below 1e-12
        cutoff = {1: 60, 2: 44, 3: 40}[modes]
        rng = np.random.default_rng(seed)
        s1 = random_state(rng, modes, rank1, amax=0.25)
        s2 = random_state(rng, modes, rank2, amax=0.25)
        c1 = st.stellar_coefficients(s1, cutoff)
        c2 = st.stellar_coefficients(s2, cutoff)
        expect = sum(
            np.conj(c1[n]) * c2[n] * math.prod(math.factorial(k) for k in n)
            for n in c1.keys() & c2.keys()
        )
        ip = st.inner_product(s1, s2)
        assert abs(ip - expect) <= 1e-10 * abs(expect)
        assert st.inner_product(s2, s1) == pytest.approx(np.conj(ip), rel=1e-12)

    @settings(max_examples=40)
    @given(hst.integers(1, 4), hst.integers(0, 3), hst.integers(0, 3), hst.booleans(),
           hst.integers(0, 2**32 - 1))
    def test_down_closed_index_matches_graded(self, modes, rank1, rank2, partly, seed):
        # sparse polynomials, so the down-closure of their monomials is
        # smaller than the graded index
        rng = np.random.default_rng(seed)
        gauss = partly_coupled_gauss if partly else random_admissible_gauss
        s1, s2 = (st.StellarState.make(modes, random_poly(rng, modes, rank, terms=2),
                                       gauss(rng, modes)) for rank in (rank1, rank2))
        for x, y in ((s1, s2), (s1, s1)):
            ip = st.inner_product(x, y)
            assert abs(ip - _inner_product_graded(x, y)) <= 1e-12 * abs(ip)

    def test_moment_index_is_down_closed(self):
        index = st._MomentIndex(3, [(2, 0, 1), (0, 1, 0)])
        assert set(index.pos) == {(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1), (1, 0, 1),
                                  (2, 0, 1), (0, 1, 0)}
        assert [index.n[sl].sum(axis=1).tolist() for sl, *_ in index.shells] == [
            [1, 1, 1], [2, 2], [3]]
        graded = st._moment_index(3, 4)
        assert list(graded.pos) == st.all_indices_upto(3, 4)

    @settings(max_examples=30)
    @given(hst.integers(1, 4), hst.integers(0, 4), hst.integers(0, 2**32 - 1))
    def test_taylor_shift_matches_evaluation(self, modes, degree, seed):
        # c = p shifted by s on a graded index: c(x) = p(x + s) at random x,
        # for three polynomials and shifts at once
        rng = np.random.default_rng(seed)
        index = st._moment_index(modes, degree)
        p = rng.normal(size=(3, index.size)) + 1j * rng.normal(size=(3, index.size))
        shift = rng.normal(size=(3, modes)) + 1j * rng.normal(size=(3, modes))
        x = rng.normal(size=(3, modes)) + 1j * rng.normal(size=(3, modes))
        c = st._taylor_shifted(p, shift, index)

        def value(coeffs, z):
            return sum(coeffs[i] * np.prod(z ** np.array(n)) for n, i in index.pos.items())

        for row in range(3):
            expect = value(p[row], x[row] + shift[row])
            assert abs(value(c[row], x[row]) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_eigenvalue_square_roots_across_branch_cut(self):
        # three squeezed modes with |a|^2 = 0.95 against phases 0.3 apart: the
        # square root of det(I - conj(A1) A2) has the wrong sign here
        def squeezed(a, b, c):
            gauss = st.GaussPart.make([[a]], [b], c)
            return st.StellarState.make(1, st.PolyPart.one(1), gauss)

        amp = np.sqrt(0.95)
        xs = [squeezed(amp, 0.2, 0.1) for _ in range(3)]
        xs[1] = xs[1].with_poly(st.PolyPart.make({(1,): 1.0, (0,): -0.3}))
        ys = [squeezed(amp * np.exp(0.3j * (k + 1)), 0.1j, 0.0) for k in range(3)]
        x = st.tensor(st.tensor(xs[0], xs[1]), xs[2])
        y = st.tensor(st.tensor(ys[0], ys[1]), ys[2])
        M = np.eye(3) - np.conj(x.gauss.A) @ y.gauss.A
        roots = np.prod(np.sqrt(np.linalg.eigvals(M)))
        assert np.sqrt(np.linalg.det(M)) == pytest.approx(-roots, rel=1e-12)
        expect = np.prod([st.inner_product(a, b) for a, b in zip(xs, ys)])
        assert st.inner_product(x, y) == pytest.approx(expect, rel=1e-10)

    def test_five_modes_rank_two(self, rng):
        parts = [random_state(rng, 2, 1), random_state(rng, 3, 1),
                 random_state(rng, 2, 1), random_state(rng, 3, 1)]
        x = st.tensor(parts[0], parts[1])
        y = st.tensor(parts[2], parts[3])
        assert st.stellar_rank(x) == st.stellar_rank(y) == 2
        expect = st.inner_product(parts[0], parts[2]) * st.inner_product(parts[1], parts[3])
        ip = st.inner_product(x, y)
        assert ip == pytest.approx(expect, rel=1e-10)
        U = Passive.make(random_unitary(rng, 5))
        assert st.inner_product(mm.apply_gate(x, U), mm.apply_gate(y, U)) == pytest.approx(
            ip, rel=1e-10
        )

    def test_zero_polynomial_is_exactly_zero(self, rng):
        zero = st.StellarState.make(2, st.PolyPart.make({}), st.GaussPart.vacuum(2))
        s = random_state(rng, 2, 3)
        assert st.inner_product(zero, s) == 0
        assert st.inner_product(s, zero) == 0
        assert st.norm_squared(zero) == 0


class TestSection:
    """The section layout: z_k powers by graded monomials of the other modes."""

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("partly", [False, True])
    def test_round_trip_and_linear_product(self, rng, modes, partly):
        s = random_state(rng, modes, 3)
        for k in range(modes):
            # with ``partly``, the odd other modes are uncoupled: they keep the
            # monomials they have in P and take no part in the linear term
            coupled = [j for j in range(modes) if j != k and not (partly and j % 2)]
            coefs = [complex(rng.normal(), rng.normal()) if j == k or j in coupled else 0
                     for j in range(modes)]
            # bounds that hold z_j P; one mode has zero other modes
            Q, layout = st._section(s, k, 4, coupled, 4)
            free = [j for j in range(modes) if j != k and j not in coupled]
            fixed = {tuple(n[j] for j in free) for n in s.poly.coeffs}
            assert layout.fixed == tuple(sorted(fixed))
            assert Q.shape == (5, math.comb(len(coupled) + 4, 4) * len(fixed) + 1)
            assert not Q[:, -1].any()
            assert st._section_poly(Q, layout) == s.poly
            out = 2.0 * Q
            st._add_linear(out, Q, coefs, layout)
            expect = s.poly.scaled(2.0).coeffs
            for j, c in enumerate(coefs):
                for n, v in s.poly.mul_var(j).coeffs.items() if c else ():
                    expect[n] = expect.get(n, 0) + c * v
            got = st._section_poly(out, layout).coeffs
            assert got.keys() == expect.keys()
            np.testing.assert_allclose([got[n] for n in expect], list(expect.values()),
                                       rtol=1e-13, atol=1e-13)


class TestZeros:
    def test_from_zeros_vacuum(self):
        s = st.from_zeros([], 0, 0, 0)
        assert st.stellar_rank(s) == 0

    def test_single_zero_is_fock1(self):
        s = st.from_zeros([0.0], 0, 0, 0)
        assert s.poly.coeffs == {(1,): 1.0 + 0j}

    def test_expansion(self):
        s = st.from_zeros([1.0, -1.0], 0, 0, 0)
        assert s.poly.coeffs == {(0,): -1.0 + 0j, (2,): 1.0 + 0j}

    def test_zeros_of_simple(self):
        s = st.StellarState.make(
            1, st.PolyPart.make({(1,): 1.0}), st.GaussPart.make([[0.2]], [0.1], 0.0)
        )
        assert st.zeros_of(s) == pytest.approx([0.0])

    def test_pure_imaginary_pair(self):
        s = st.from_fock_superposition({(2,): 1.0, (0,): 1.0 / np.sqrt(2)}, 1)
        roots = sorted(st.zeros_of(s), key=lambda z: z.imag)
        assert roots[0] == pytest.approx(-1j)
        assert roots[1] == pytest.approx(1j)
        for r in roots:
            assert abs(st.evaluate(s, [r])) < 1e-12

    def test_round_trip_random(self, rng):
        for n in range(1, 9):
            zeros = 3.0 * rng.uniform(-1, 1, n) + 3j * rng.uniform(-1, 1, n)
            s = st.from_zeros(zeros, 0.3, 0.2 - 0.1j, 0.0)
            back = st.zeros_of(s)
            cost = np.abs(zeros[:, None] - back[None, :])
            from scipy.optimize import linear_sum_assignment

            r, c = linear_sum_assignment(cost)
            assert np.max(cost[r, c]) < TOL_ROOT

    def test_errors(self):
        with pytest.raises(st.AdmissibilityError):
            st.from_zeros([0.0], 1.0, 0, 0)
        with pytest.raises(ValueError):
            st.zeros_of(st.StellarState.vacuum(1))
        with pytest.raises(ValueError):
            st.zeros_of(st.StellarState.vacuum(2))


class TestRankAndTensor:
    def test_vacuum_rank(self):
        assert st.stellar_rank(st.StellarState.vacuum(3)) == 0

    def test_monomial_rank(self):
        s = st.from_fock_superposition({(1, 1): 1.0}, 2)
        assert st.stellar_rank(s) == 2

    def test_mixed_superposition_rank(self):
        s = st.from_fock_superposition({(2, 0): 1.0, (0, 1): 1.0}, 2)
        assert st.stellar_rank(s) == 2

    def test_tensor_vacuum(self):
        t = st.tensor(st.StellarState.vacuum(1), st.StellarState.vacuum(1))
        assert t.modes == 2 and st.stellar_rank(t) == 0

    def test_tensor_fock(self):
        f1 = st.from_fock_superposition({(1,): 1.0}, 1)
        t = st.tensor(f1, f1)
        assert t.poly.coeffs == {(1, 1): 1.0 + 0j}

    def test_rank_additivity_and_norm_product(self, rng):
        for _ in range(10):
            s1 = random_state(rng, 1, int(rng.integers(0, 4)))
            s2 = random_state(rng, 2, int(rng.integers(0, 4)))
            t = st.tensor(s1, s2)
            assert st.stellar_rank(t) == st.stellar_rank(s1) + st.stellar_rank(s2)
            assert st.norm_squared(t) == pytest.approx(
                st.norm_squared(s1) * st.norm_squared(s2), rel=1e-9
            )


class TestFockExpansion:
    def test_vacuum(self):
        arr = st.to_fock_array(st.StellarState.vacuum(1), 3)
        assert arr.amplitude((0,)) == pytest.approx(1.0)
        assert arr.amplitude((2,)) == 0

    def test_core_state_exact(self, rng):
        amps = {
            (2, 0): 0.5,
            (0, 1): -0.3 + 0.2j,
            (1, 1): 0.8j,
        }
        s = st.from_fock_superposition(amps, 2)
        arr = st.to_fock_array(s, 25)
        for idx, val in amps.items():
            assert arr.amplitude(idx) == pytest.approx(val, abs=1e-12)
        assert arr.truncation_loss < 1e-12

    def test_squeezed_vacuum_odd_zero(self):
        s = st.StellarState.make(
            1, st.PolyPart.one(1), st.GaussPart.make([[np.tanh(0.5)]], [0.0], 0.0)
        )
        arr = st.to_fock_array(st.normalized(s), 21, warn_tail=False)
        for n in range(1, 22, 2):
            assert arr.amplitude((n,)) == 0

    def test_coherent_poisson(self):
        arr = st.to_fock_array(coherent_state(1.0), 20)
        import math

        for n in range(6):
            assert arr.amplitude((n,)) == pytest.approx(
                np.exp(-0.5) / math.sqrt(math.factorial(n)), abs=1e-12
            )

    def test_truncation_warning(self):
        s = st.StellarState.make(
            1, st.PolyPart.one(1), st.GaussPart.make([[0.8]], [0.0], 0.0)
        )
        with pytest.warns(UserWarning, match="truncation"):
            st.to_fock_array(st.normalized(s), 4)


def fock_array_csv(arr):
    """One row per multi-index: n_1, ..., n_m, re, im."""
    lines = [",".join([f"n{k + 1}" for k in range(arr.modes)] + ["re", "im"])]
    for idx in sorted(arr.amplitudes):
        amp = complex(arr.amplitudes[idx])
        lines.append(",".join([str(k) for k in idx] + [f"{amp.real:.17g}", f"{amp.imag:.17g}"]))
    return "\n".join(lines) + "\n"


def fock_array_from_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    m = len(lines[0].split(",")) - 2
    amps = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        amps[tuple(int(v) for v in parts[:m])] = complex(float(parts[m]), float(parts[m + 1]))
    captured = sum(abs(a) ** 2 for a in amps.values())
    cutoff = max((sum(i) for i in amps), default=0)
    return st.FockArray(m, cutoff, amps, captured, 0.0)


class TestSerialization:
    def test_state_json_round_trip(self, rng, tmp_path):
        from hqcsim import io as hio

        s = random_state(rng, 2, 3)
        path = tmp_path / "state.json"
        hio.save_state(s, path)
        back = hio.load_state(path)
        assert back.modes == s.modes
        assert back.poly.coeffs == pytest.approx(s.poly.coeffs)
        np.testing.assert_allclose(back.gauss.A, s.gauss.A)
        np.testing.assert_allclose(back.gauss.B, s.gauss.B)

    def test_fock_csv_round_trip(self):
        arr = st.to_fock_array(coherent_state(0.8), 12)
        text = fock_array_csv(arr)
        back = fock_array_from_csv(text)
        for idx, amp in arr.amplitudes.items():
            assert back.amplitude(idx) == pytest.approx(amp, abs=1e-15)


class TestFockBasisCache:
    def test_cache_is_bounded(self):
        size = fs.FockBasis.CACHE_SIZE
        bases = [fs.FockBasis(1, cutoff) for cutoff in range(3, 4 + 2 * size)]
        assert len(fs.FockBasis._cache) == size
        assert fs.FockBasis(1, 3 + 2 * size) is bases[-1]  # recent bases are shared
        assert fs.FockBasis(1, 3) is not bases[0]  # the oldest was dropped
