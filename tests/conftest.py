"""Shared helpers: random state factories and oracle-comparison utilities."""

import numpy as np
import pytest
from hypothesis import settings
from scipy.stats import unitary_group

from hqcsim import fockspace as fs
from hqcsim import states as st

# property tests are reproducible: fixed examples, no example database
settings.register_profile("hqcsim", derandomize=True, database=None, deadline=None)
settings.load_profile("hqcsim")


def random_unitary(rng, modes):
    if modes == 1:
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    return unitary_group.rvs(modes, random_state=rng)


def random_admissible_gauss(rng, modes, amax=0.5, bscale=0.4):
    """Random Gaussian exponents with singular values of A below amax."""
    W = random_unitary(rng, modes)
    t = rng.uniform(0.0, amax, modes)
    A = W.T @ np.diag(t) @ W
    B = bscale * (rng.normal(size=modes) + 1j * rng.normal(size=modes))
    C = 0.1 * (rng.normal() + 1j * rng.normal())
    return st.GaussPart.make(A, B, C)


def partly_coupled_gauss(rng, modes, amax=0.5):
    """``random_admissible_gauss`` with A cut to blocks: modes 0 and 1 are
    coupled, every other mode only to itself (cutting to blocks keeps the
    singular values below amax)."""
    g = random_admissible_gauss(rng, modes, amax)
    block = np.maximum(np.arange(modes), 1)
    return st.GaussPart.make(g.A * (block[:, None] == block), g.B, g.C)


def random_poly(rng, modes, rank, terms=4):
    """Random sparse polynomial of exact total degree ``rank``."""
    coeffs = {(0,) * modes: 1.0 + 0j}
    for _ in range(terms):
        idx = tuple(int(v) for v in rng.multinomial(rng.integers(0, rank + 1),
                                                    np.ones(modes) / modes))
        coeffs[idx] = rng.normal() + 1j * rng.normal()
    lead = [0] * modes
    lead[int(rng.integers(modes))] = rank
    if rank:
        coeffs[tuple(lead)] = 1.0 + 0.3j
    return st.PolyPart.make(coeffs)


def random_state(rng, modes, rank, amax=0.5):
    return st.StellarState.make(
        modes, random_poly(rng, modes, rank), random_admissible_gauss(rng, modes, amax)
    )


def random_single_mode_state(rng, rank, zero_scale=1.2, amax=0.4):
    zeros = zero_scale * (rng.normal(size=rank) + 1j * rng.normal(size=rank))
    a = amax * rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    b = 0.4 * (rng.normal() + 1j * rng.normal())
    c = 0.1 * (rng.normal() + 1j * rng.normal())
    return st.from_zeros(zeros, a, b, c)


def fock_vector(state, cutoff):
    arr = st.to_fock_array(state, cutoff, warn_tail=False)
    return fs.FockBasis(state.modes, cutoff).vector(arr)


def vectors_overlap(u, v):
    """Normalized squared overlap of two coefficient vectors."""
    nu = np.vdot(u, u).real
    nv = np.vdot(v, v).real
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv))


def vectors_agreement(u, v):
    """Re<u|v> / (|u| |v|): 1 only when the vectors agree in their global phase
    too, unlike ``vectors_overlap``."""
    nu = np.vdot(u, u).real
    nv = np.vdot(v, v).real
    if nu == 0 or nv == 0:
        return 0.0
    return float(np.vdot(u, v).real / np.sqrt(nu * nv))


def states_overlap_via_fock(s1, s2, cutoff):
    return vectors_overlap(fock_vector(s1, cutoff), fock_vector(s2, cutoff))


def poly_added(p, q):
    """Sum of two polynomials, without zero coefficients."""
    out = dict(p.coeffs)
    for k, v in q.coeffs.items():
        out[k] = out.get(k, 0) + v
    return st.PolyPart({k: v for k, v in sorted(out.items()) if v != 0})


def assert_states_close(got, ref, rel=1e-12, up_to_phase=False):
    """Same Gaussian exponents and polynomial coefficients, relative to scale;
    ``up_to_phase`` compares Re C alone (the states may differ by a global phase)."""
    scale = max(max((abs(c) for c in ref.poly.coeffs.values()), default=0.0), 1e-300)
    for idx in got.poly.coeffs.keys() | ref.poly.coeffs.keys():
        diff = abs(got.poly.coeffs.get(idx, 0j) - ref.poly.coeffs.get(idx, 0j))
        assert diff <= rel * scale, (idx, diff / scale)
    assert got.poly.degree() == ref.poly.degree()
    np.testing.assert_allclose(got.gauss.A, ref.gauss.A, rtol=rel, atol=rel)
    np.testing.assert_allclose(got.gauss.B, ref.gauss.B, rtol=rel, atol=rel)
    C, ref_C = (got.gauss.C.real, ref.gauss.C.real) if up_to_phase else (got.gauss.C, ref.gauss.C)
    assert C == pytest.approx(ref_C, rel=rel, abs=rel)


def coherent_state(alpha):
    """Single-mode coherent state, exactly normalized."""
    alpha = complex(alpha)
    return st.StellarState.make(
        1,
        st.PolyPart.one(1),
        st.GaussPart.make([[0.0]], [alpha], -0.5 * abs(alpha) ** 2),
    )


def multiset_distance(x, y):
    """Max matched pairwise distance between two complex multisets."""
    from scipy.optimize import linear_sum_assignment

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    cost = np.abs(x[:, None] - y[None, :])
    r, c = linear_sum_assignment(cost)
    return float(np.max(cost[r, c]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
