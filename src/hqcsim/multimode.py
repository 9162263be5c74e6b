"""Multimode Gaussian action on stellar states, rank machinery, decompositions,
and entanglement analysis.

Single-mode gates on one mode of a multimode state are applied by treating the
state as a single-variable function of that mode with symbolic coefficients:
the Gaussian exponents follow the single-mode closed forms (the linear
coefficient of the section is a linear form in the spectator variables, so the
quadratic term of the update populates cross entries of A), and the polynomial
is conjugated through the gate and normal ordered against the new Gaussian.

This module owns the exponent formulas of the single-mode squeeze and shear
gates (``_squeeze_exponents``, ``_shear_exponents``); the single-mode closed
forms in ``dynamics`` read them from here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gates import (
    Create,
    Displace,
    Passive,
    Phase,
    Shear,
    Squeeze,
    validate_gate,
)
from .states import (
    GaussPart,
    PolyPart,
    StellarState,
    stellar_rank,
)

# Schmidt coefficients below SCHMIDT_CUT * sigma_max do not count toward the rank.
SCHMIDT_CUT = 1e-10
# Cross-term exponents below this are treated as absent in separability verdicts.
CROSS_TOL = 1e-10


@dataclass(frozen=True)
class GaussianUnitarySpec:
    """Ordered Gaussian gate program; gates apply to the state first-to-last."""

    modes: int
    gate_list: tuple

    @staticmethod
    def make(modes, gate_list):
        modes = int(modes)
        gate_list = tuple(gate_list)
        for gate in gate_list:
            if isinstance(gate, Create):
                raise ValueError("creation operators are not Gaussian gates")
            validate_gate(gate, modes)
        return GaussianUnitarySpec(modes, gate_list)

    def inverse(self):
        inv = []
        for gate in reversed(self.gate_list):
            if isinstance(gate, Passive):
                inv.append(Passive.make(gate.U.conj().T))
            elif isinstance(gate, Displace):
                inv.append(Displace.make(-gate.beta))
            elif isinstance(gate, Squeeze):
                inv.append(Squeeze(gate.mode, -gate.xi))
            elif isinstance(gate, Shear):
                inv.append(Shear(gate.mode, -gate.s))
            elif isinstance(gate, Phase):
                inv.append(Phase(gate.mode, -gate.phi))
        return GaussianUnitarySpec(self.modes, tuple(inv))


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of the polynomial part over a bipartition, plus the
    Gaussian cross terms that carry the Gaussian entanglement."""

    partition: tuple
    rank: int
    coefficients: np.ndarray
    left_factors: list
    right_factors: list
    cross_terms: dict
    gauss_left: GaussPart
    gauss_right: GaussPart

    @property
    def separable(self):
        no_cross = all(abs(v) <= CROSS_TOL for v in self.cross_terms.values())
        return self.rank == 1 and no_cross


def _subst_linear(poly, U):
    """P(Uz): substitute each variable by the corresponding row form of U."""
    m = U.shape[0]
    forms = []
    for k in range(m):
        forms.append(
            PolyPart.make(
                {tuple(1 if j == i else 0 for j in range(m)): U[k, i] for i in range(m)}
            )
        )
    out = {}
    for idx, c in poly.coeffs.items():
        term = PolyPart.make({(0,) * m: c})
        for k, p in enumerate(idx):
            for _ in range(p):
                term = term.multiplied(forms[k])
        for jdx, v in term.coeffs.items():
            out[jdx] = out.get(jdx, 0) + v
    return PolyPart.make(out).pruned()


def _shift_variable(poly, mode, shift):
    """P with z_mode replaced by z_mode + shift."""
    if shift == 0:
        return poly
    out = {}
    from math import comb

    for idx, c in poly.coeffs.items():
        p = idx[mode]
        pw = 1.0 + 0j
        for j in range(p, -1, -1):
            new = list(idx)
            new[mode] = j
            out[tuple(new)] = out.get(tuple(new), 0) + c * comb(p, j) * pw
            pw *= shift
    return PolyPart.make(out).pruned()


def _assert_rank_preserved(before, after, what):
    if after.poly.degree() != before.poly.degree():
        raise RuntimeError(
            f"{what} changed the stellar rank "
            f"({before.poly.degree()} -> {after.poly.degree()}); numerical failure"
        )
    return after


def apply_passive(state, gate):
    """Passive linear gate: F(z) -> F(Uz); rank is unchanged."""
    if not isinstance(gate, Passive):
        gate = Passive.make(gate)
    validate_gate(gate, state.modes)
    U = gate.U
    g = state.gauss
    new_gauss = GaussPart.make(U.T @ g.A @ U, U.T @ g.B, g.C, check=False)
    out = StellarState.make(state.modes, _subst_linear(state.poly, U), new_gauss)
    return _assert_rank_preserved(state, out, "passive gate")


def apply_displace(state, beta):
    """Mode-wise displacement: F -> e^{beta.z - |beta|^2/2} F(z - beta*)."""
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    if beta.size != state.modes:
        raise ValueError("displacement vector length must equal the mode count")
    g = state.gauss
    bc = np.conj(beta)
    new_B = g.B + beta + g.A @ bc
    new_C = g.C - g.B @ bc - 0.5 * bc @ g.A @ bc - 0.5 * np.sum(np.abs(beta) ** 2)
    poly = state.poly
    for k in range(state.modes):
        poly = _shift_variable(poly, k, -bc[k])
    out = StellarState.make(
        state.modes, poly, GaussPart.make(g.A, new_B, new_C, check=False)
    )
    return _assert_rank_preserved(state, out, "displacement")


def _section_gate(state, mode, a_new, b_scale, kappa, c_const, mu, nu):
    """Shared single-mode-gate engine on mode k of a multimode state.

    Gaussian section update: a' = a_new, linear coefficient scales by b_scale,
    and kappa * (linear coefficient)^2 + c_const joins the spectator exponent.
    Polynomial update: z_k -> mu z_k + nu d/dz_k, normal ordered against the
    new Gaussian.
    """
    m = state.modes
    k = mode
    g = state.gauss
    A = np.array(g.A)
    B = np.array(g.B)
    # linear form b_sec(z) = B_k - sum_{j != k} A_kj z_j  (constant, coeffs)
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
    # kappa * b_sec^2 added to the exponent of the spectators
    C2 = g.C + c_const + kappa * b0**2
    for i in range(m):
        if i != k and mvec[i] != 0:
            B2[i] = B2[i] + 2.0 * kappa * b0 * mvec[i]
    for i in range(m):
        for j in range(m):
            if i != k and j != k and mvec[i] != 0 and mvec[j] != 0:
                A2[i, j] = A2[i, j] - 2.0 * kappa * mvec[i] * mvec[j]
    gauss2 = GaussPart.make(A2, B2, C2, check=False)
    # polynomial: P = sum_d z_k^d Q_d, transported power by power
    by_power = {}
    for idx, c in state.poly.coeffs.items():
        d = idx[k]
        rest = list(idx)
        rest[k] = 0
        by_power.setdefault(d, {})[tuple(rest)] = c
    max_d = max(by_power) if by_power else 0
    ell = PolyPart.make(
        {
            tuple(1 if j == i else 0 for j in range(m)): -A2[k, i]
            for i in range(m)
        }
        | {(0,) * m: B2[k]}
    )
    powers = [PolyPart.one(m)]
    for _ in range(max_d):
        t = powers[-1]
        stepped = t.mul_var(k).scaled(mu).added(t.derivative(k).scaled(nu))
        stepped = stepped.added(t.multiplied(ell).scaled(nu))
        powers.append(stepped)
    out_poly = PolyPart.make({})
    for d, rest in by_power.items():
        out_poly = out_poly.added(PolyPart.make(rest).multiplied(powers[d]))
    out = StellarState.make(m, out_poly.pruned(), gauss2)
    return _assert_rank_preserved(state, out, "section gate")


def _squeeze_exponents(a, xi):
    """(a_new, b_scale, kappa, c_const) of S(xi) on a mode with diagonal exponent a."""
    r, th = abs(xi), np.angle(xi)
    Abar = np.arctanh(-np.exp(-1j * th) * a)
    a_new = -np.exp(1j * th) * np.tanh(r + Abar)
    b_scale = np.cosh(Abar) / np.cosh(r + Abar)
    kappa = (
        -0.5
        * np.exp(-1j * th)
        * np.cosh(Abar) ** 2
        * (np.tanh(r + Abar) - np.tanh(Abar))
    )
    # |Im Abar| < pi/4, so cosh(r tau + Abar) stays in the right half-plane
    # along the gate path and the principal logs are its continuation
    c_const = -0.5 * (np.log(np.cosh(r + Abar)) - np.log(np.cosh(Abar)))
    return a_new, b_scale, kappa, c_const


def _shear_exponents(a, s):
    """(a_new, b_scale, kappa, c_const) of P(s) on a mode with diagonal exponent a."""
    u = 1.0 - a
    D = 1.0 - 1j * s * u
    a_new = (a - 1j * s * u) / D
    b_scale = 1.0 / D
    kappa = 1j * s / (2.0 * D)
    # Im(1 - i s tau u) = -s tau Re(u) keeps one sign along the gate path
    # (Re u = 1 - Re a > 0), so the principal log is its continuation
    c_const = -0.5 * np.log(D)
    return a_new, b_scale, kappa, c_const


def apply_squeeze_mode(state, mode, xi):
    """Single-mode squeezing S(xi) on one mode; rank is exactly preserved."""
    xi = complex(xi)
    if xi == 0:
        return state
    r, th = abs(xi), np.angle(xi)
    a = complex(state.gauss.A[mode, mode])
    mu = np.cosh(r)
    nu = -np.exp(-1j * th) * np.sinh(r)
    return _section_gate(state, mode, *_squeeze_exponents(a, xi), mu, nu)


def apply_shear_mode(state, mode, s):
    """Single-mode shearing P(s) = exp(i s q^2) on one mode."""
    s = float(s)
    if s == 0:
        return state
    a = complex(state.gauss.A[mode, mode])
    mu = 1.0 + 1j * s
    nu = 1j * s
    return _section_gate(state, mode, *_shear_exponents(a, s), mu, nu)


def apply_phase_mode(state, mode, phi):
    """Single-mode phase shift R(phi) on one mode."""
    phi = float(phi)
    if phi == 0:
        return state
    a = complex(state.gauss.A[mode, mode])
    return _section_gate(
        state,
        mode,
        np.exp(2j * phi) * a,
        np.exp(1j * phi),
        0j,
        0j,
        np.exp(1j * phi),
        0j,
    )


def apply_create(state, mode):
    """Photon addition: multiply the stellar function by z_mode (rank + 1)."""
    return state.with_poly(state.poly.mul_var(mode))


def apply_gate(state, gate):
    validate_gate(gate, state.modes)
    if isinstance(gate, Passive):
        return apply_passive(state, gate)
    if isinstance(gate, Displace):
        return apply_displace(state, gate.beta)
    if isinstance(gate, Squeeze):
        return apply_squeeze_mode(state, gate.mode, gate.xi)
    if isinstance(gate, Shear):
        return apply_shear_mode(state, gate.mode, gate.s)
    if isinstance(gate, Phase):
        return apply_phase_mode(state, gate.mode, gate.phi)
    if isinstance(gate, Create):
        return apply_create(state, gate.mode)
    raise ValueError(f"unknown gate {gate!r}")


def apply_gaussian(state, spec):
    """Fold a Gaussian gate program over the state, first gate first."""
    if spec.modes != state.modes:
        raise ValueError("spec mode count does not match the state")
    rank_in = state.poly.degree()
    for gate in spec.gate_list:
        state = apply_gate(state, gate)
    if state.poly.degree() != rank_in:
        raise RuntimeError("Gaussian program changed the stellar rank")
    return state


# ---------------------------------------------------------------------------
# Takagi factorization and the two standard forms
# ---------------------------------------------------------------------------

def takagi(A, rounding=13):
    """Autonne-Takagi factorization A = W diag(s) W^T of a complex symmetric A.

    Returns (s, W) with s real non-negative descending and W unitary.
    Degenerate singular values are handled subspace by subspace; an exactly
    singular/degenerate failure falls back to a tiny symmetric perturbation.
    """
    # imported on use: loading scipy at import more than doubles the time and
    # resident memory of `import hqcsim` (0.27 -> 0.67 s, 30 -> 61 MB, 2 cores)
    from scipy.linalg import block_diag, sqrtm

    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if np.max(np.abs(A - A.T)) > 1e-12 * max(1.0, np.max(np.abs(A))):
        raise ValueError("takagi requires a symmetric matrix")
    if np.allclose(A, 0):
        return np.zeros(n), np.eye(n, dtype=complex)
    v, s, wh = np.linalg.svd(A)
    w = wh.conj().T
    rounded = np.round(s, rounding)
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or rounded[i] != rounded[start]:
            blocks.append(list(range(start, i)))
            start = i
    qs = []
    for blk in blocks:
        qs.append(sqrtm(v[:, blk].T @ w[:, blk]))
    W = v @ np.conj(block_diag(*qs))
    if np.max(np.abs(W @ np.diag(s) @ W.T - A)) > 1e-8 * max(1.0, np.max(np.abs(A))):
        # perturbation fallback for pathologically degenerate inputs
        warnings.warn("takagi: degenerate input, applying tiny symmetric perturbation",
                      stacklevel=2)
        rng = np.random.default_rng(0)
        pert = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pert = 1e-11 * (pert + pert.T)
        return takagi(A + pert, rounding)
    return s, W


def decompose_normal(state):
    """Normal form: P and the Gaussian program G = U S(xi) D(beta).

    The returned program maps the vacuum to the Gaussian state carrying the
    state's exponents (A, B); P applied as creation operators on it rebuilds
    the state up to a global prefactor. The program is returned in application
    order [Displace, Squeeze..., Passive].
    """
    m = state.modes
    g = state.gauss
    svals, W = takagi(g.A)
    U = W.T
    r = np.arctanh(svals)
    # t_j = svals_j >= 0 corresponds to theta_j = pi, i.e. xi_j = -r_j
    xi = -r
    beta = np.cosh(r) * (np.conj(U) @ g.B)
    gate_list = [Displace.make(beta)]
    for j in range(m):
        if xi[j] != 0:
            gate_list.append(Squeeze(j, complex(xi[j])))
    gate_list.append(Passive.make(U))
    return state.poly, GaussianUnitarySpec.make(m, gate_list)


def reconstruct_normal(poly, spec):
    """State P(a^dag) G|0> from a normal form (up to the global prefactor)."""
    gstate = apply_gaussian(StellarState.vacuum(spec.modes), spec)
    return gstate.with_poly(poly.multiplied(gstate.poly))


def core_state_of(state, residual_tol=1e-8):
    """Antinormal form: the core state |C> with G|C> = state.

    Applies the inverse of the normal-form program; the Gaussian part of the
    result must collapse to the vacuum exponents, which is asserted.
    """
    _, spec = decompose_normal(state)
    core = apply_gaussian(state, spec.inverse())
    g = core.gauss
    resid = max(float(np.max(np.abs(g.A))), float(np.max(np.abs(g.B))))
    if resid > residual_tol:
        raise RuntimeError(f"core-state reduction left Gaussian residual {resid:.3e}")
    clean = GaussPart.make(
        np.zeros((state.modes, state.modes)), np.zeros(state.modes), g.C, check=False
    )
    out = core.with_gauss(clean)
    if stellar_rank(out) != stellar_rank(state):
        raise RuntimeError("core-state reduction changed the stellar rank")
    return out


# ---------------------------------------------------------------------------
# entanglement and factorization
# ---------------------------------------------------------------------------

def _check_partition(modes, partition):
    left, right = partition
    left = tuple(sorted(int(i) for i in left))
    right = tuple(sorted(int(j) for j in right))
    if sorted(left + right) != list(range(modes)):
        raise ValueError(f"partition {partition} is not a disjoint cover of 0..{modes - 1}")
    if not left or not right:
        raise ValueError("both sides of the partition must be non-empty")
    return left, right


def schmidt_form(state, partition):
    """Schmidt decomposition of the polynomial part over a bipartition.

    The monomial coefficient matrix over (left monomials) x (right monomials)
    is factored by SVD; cross-term exponents lambda_ij are read directly from
    the Gaussian part. The state is separable over the partition iff the
    Schmidt rank is 1 and every cross term vanishes.
    """
    left, right = _check_partition(state.modes, partition)
    poly = state.poly
    lmons, rmons = [], []
    lpos, rpos = {}, {}
    entries = {}
    for idx, c in poly.coeffs.items():
        li = tuple(idx[i] for i in left)
        ri = tuple(idx[j] for j in right)
        if li not in lpos:
            lpos[li] = len(lmons)
            lmons.append(li)
        if ri not in rpos:
            rpos[ri] = len(rmons)
            rmons.append(ri)
        entries[(lpos[li], rpos[ri])] = c
    M = np.zeros((len(lmons), len(rmons)), dtype=complex)
    for (i, j), c in entries.items():
        M[i, j] = c
    u, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > SCHMIDT_CUT * s[0])) if s.size and s[0] > 0 else 0
    lfac, rfac = [], []
    for k in range(rank):
        lfac.append(
            PolyPart.make({mon: u[i, k] for i, mon in enumerate(lmons)})
        )
        rfac.append(
            PolyPart.make({mon: vh[k, j] for j, mon in enumerate(rmons)})
        )
    g = state.gauss
    cross = {}
    for i in left:
        for j in right:
            cross[(i, j)] = complex(-g.A[i, j])
    gl = GaussPart.make(g.A[np.ix_(left, left)], g.B[list(left)], g.C, check=False)
    gr = GaussPart.make(g.A[np.ix_(right, right)], g.B[list(right)], 0.0, check=False)
    return SchmidtForm(
        (left, right), rank, s[:rank].copy(), lfac, rfac, cross, gl, gr
    )


def is_separable(state, partition):
    """Whether the state factorizes over the bipartition."""
    return schmidt_form(state, partition).separable


# ---------------------------------------------------------------------------
# Bogoliubov bookkeeping and Bloch-Messiah canonicalization of gate programs
# ---------------------------------------------------------------------------

def _gate_action(gate, m):
    """Adjoint action of one gate: a_k^dag -> sum E a^dag + F a + d."""
    E = np.eye(m, dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    d = np.zeros(m, dtype=complex)
    if isinstance(gate, Passive):
        E = np.array(gate.U)
    elif isinstance(gate, Displace):
        d = -np.conj(gate.beta)
    elif isinstance(gate, Squeeze):
        r, th = abs(gate.xi), np.angle(gate.xi)
        E[gate.mode, gate.mode] = np.cosh(r)
        F[gate.mode, gate.mode] = -np.exp(-1j * th) * np.sinh(r)
    elif isinstance(gate, Shear):
        E[gate.mode, gate.mode] = 1.0 + 1j * gate.s
        F[gate.mode, gate.mode] = 1j * gate.s
    elif isinstance(gate, Phase):
        E[gate.mode, gate.mode] = np.exp(1j * gate.phi)
    else:
        raise ValueError(f"no adjoint action for {gate!r}")
    return E, F, d


def bogoliubov(spec):
    """(E, F, d) with G a_k^dag G^dag = sum_j E_kj a_j^dag + F_kj a_j + d_k."""
    m = spec.modes
    E = np.eye(m, dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    d = np.zeros(m, dtype=complex)
    for gate in spec.gate_list:
        e, f, dl = _gate_action(gate, m)
        E, F, d = E @ e + F @ np.conj(f), E @ f + F @ np.conj(e), E @ dl + F @ np.conj(dl) + d
    return E, F, d


def bloch_messiah(spec):
    """Equivalent program [Passive V, Displace, Squeeze..., Passive U].

    Canonical form of Eq.-style G = U S(xi) D(beta) V, recovered from the
    Bogoliubov action; equality with the input program holds up to a global
    phase.
    """
    m = spec.modes
    E, F, d = bogoliubov(spec)
    # In the fold convention above, G = U S(xi) D(beta) V has E = V C U with
    # C = diag(cosh r), F = -V diag(e^{-i theta} sinh r) conj(U), d = -V conj(beta).
    evals, V = np.linalg.eigh(E @ E.conj().T)
    evals = np.maximum(evals[::-1], 1.0)
    V = V[:, ::-1]
    C = np.sqrt(evals)
    U = np.diag(1.0 / C) @ V.conj().T @ E
    S = -V.conj().T @ F @ U.T
    # refine degenerate cosh-blocks so S comes out diagonal: replacing V by V X
    # with a block unitary X maps S to X^dag S conj(X); X from the block Takagi
    # factor diagonalizes it.
    off = np.max(np.abs(S - np.diag(np.diag(S)))) if m > 1 else 0.0
    if off > 1e-10:
        blocks = []
        start = 0
        cr = np.round(C, 10)
        for i in range(1, m + 1):
            if i == m or cr[i] != cr[start]:
                blocks.append(list(range(start, i)))
                start = i
        X = np.eye(m, dtype=complex)
        for blk in blocks:
            if len(blk) > 1 and C[blk[0]] > 1 + 1e-12:
                sub = S[np.ix_(blk, blk)]
                sub = 0.5 * (sub + sub.T)
                _, wb = takagi(sub)
                X[np.ix_(blk, blk)] = wb
        V = V @ X
        U = np.diag(1.0 / C) @ V.conj().T @ E
        S = -V.conj().T @ F @ U.T
    r = np.arccosh(np.maximum(C, 1.0))
    squeezers = []
    for j in range(m):
        if r[j] > 1e-12:
            th = -np.angle(S[j, j] / np.sinh(r[j]))
            squeezers.append(Squeeze(j, r[j] * np.exp(1j * th)))
    beta = -np.conj(V.conj().T @ d)
    gates = [
        Passive.make(_unitary_project(V)),
        Displace.make(beta),
        *squeezers,
        Passive.make(_unitary_project(U)),
    ]
    return GaussianUnitarySpec.make(m, gates)


def _unitary_project(U):
    """Snap an almost-unitary matrix to the closest unitary (polar factor)."""
    u, _, vh = np.linalg.svd(U)
    return u @ vh
