"""Multimode Gaussian action on stellar states, rank machinery, decompositions,
and entanglement analysis.

Every single-mode Gaussian unitary is a displacement times an SU(1,1)
element, and all of them go through one kernel, ``_section_gate``. It treats
the state as a single-variable function of mode k with symbolic coefficients.
The Gaussian exponents follow the single-mode closed forms: the linear
coefficient of the section is a linear form in the spectator variables, so
the quadratic term of the update populates cross entries of A. The
displacement then moves B and C. The polynomial goes through one substitution
z_k -> alpha z_k + nu d/dz_k + u, normal ordered against the new Gaussian,
where u = nu s' + delta is the section coefficient s' scaled by nu plus the
displacement's constant delta = -alpha conj(beta). P is held as a section in
z_k, P = sum_p z_k^p Q_p(z_rest): one dense array over the powers p and the
other modes' monomials, graded in the modes that u couples and as found in P
in the rest (``states._section``), shared with ``sampling``.

An SU(1,1) element moves the mode's exponent a by its Moebius map
(``_moebius``). Squeeze, shear and phase gates are the t = 1 flows of
single-mode Gaussian drives (``_mode_drive``), with one 2x2 propagator
(``_mode_exponents``) here, in the Bogoliubov action and in the closed forms
of ``dynamics``. A run of D, S, P and R gates on one mode is one such element,
one trailing displacement and one constant (``ModeRun``), so it costs one
kernel call: ``apply_gaussian`` and the circuit engine fuse each stretch of
single-mode gates between multimode gates (``_fused``). The circuit engine
goes further for a stretch it applies on every shot: any Gaussian stretch is
one Bloch-Messiah program, a passive gate, one D+S run per mode and a passive
gate (``_compact``), built once from the stretch's Bogoliubov action, global
phase included, and used in place of a stretch with more passive gates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import calogero as cm
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
    _add_linear,
    _section,
    _section_poly,
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


def _assert_rank_preserved(rank, after, what):
    """``after``, if its polynomial still has total degree ``rank``."""
    if after.poly.degree() != rank:
        raise RuntimeError(
            f"{what} changed the stellar rank "
            f"({rank} -> {after.poly.degree()}); numerical failure"
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
    return _assert_rank_preserved(state.poly.degree(), out, "passive gate")


def apply_displace(state, beta):
    """Mode-wise displacement: F -> e^{beta.z - |beta|^2/2} F(z - beta*), one
    kernel call per nonzero beta_k."""
    beta = np.asarray(beta, dtype=complex).reshape(-1)
    if beta.size != state.modes:
        raise ValueError("displacement vector length must equal the mode count")
    return apply_gate(state, Displace.make(beta))


@functools.lru_cache(maxsize=64)
def _transport_table(dk, qn):
    """(coef, j, n) over d, p <= dk and q < qn, n = 0..dk: j = (d - q - p) / 2
    and coef = d! / (j! q! p!) where d - q - p is even and non-negative, else 0."""
    n = np.arange(dk + 1)
    j2 = n[:, None, None] - n[:qn, None] - n
    ok = (j2 >= 0) & (j2 % 2 == 0)
    j = np.where(ok, j2 // 2, 0)
    f = np.array([math.factorial(i) for i in n], dtype=float)
    out = np.where(ok, f[:, None, None] / (f[j] * f[:qn, None] * f), 0.0), j, n
    for a in out:  # shared by every caller
        a.setflags(write=False)
    return out


def _section_gate(state, mode, a_new, b_scale, kappa, c_const, nu, beta=0j):
    """The kernel of every single-mode Gaussian unitary on mode k of a multimode
    state: an SU(1,1) part, given by its section update, then D(beta) on mode k.

    Gaussian section update: a' = a_new, the section's linear coefficient
    s(z) = B_k - sum_{j != k} A_kj z_j scales by b_scale, and
    kappa * s^2 + c_const joins the spectator exponent (one outer product).
    D(beta) then maps F to e^{beta z_k - |beta|^2/2} F(z - conj(beta) e_k):
    B''_k = B'_k + beta + a' conj(beta), B''_j = B'_j + A'_jk conj(beta) and
    C'' = C' - B'_k conj(beta) - a' conj(beta)^2 / 2 - |beta|^2 / 2.

    Polynomial update: z_k -> mu z_k + nu (d/dz_k + l), l = B'_k - (A' z)_k,
    then z_k -> z_k - conj(beta). P = sum_d z_k^d Q_d goes to sum_d Q_d T^d(1)
    with T = alpha z_k + nu d/dz_k + u, alpha = mu - nu a' and u = nu s' + delta,
    s' = B'_k - sum_{j != k} A'_kj z_j the section coefficient after the section
    update and delta = -alpha conj(beta): the shift commutes with d/dz_k and
    with s', leaves 1 alone and turns alpha z_k into alpha z_k - alpha conj(beta).
    (Read against the section coefficient s'' = s' + beta + a' conj(beta) after
    the displacement, delta is -alpha conj(beta) - nu (a' conj(beta) + beta).)
    For a Gaussian flow det exp(tK) = 1 makes alpha = b_scale exactly, which is
    what the kernel uses: mu - nu a' cancels when |nu| is large. As
    [d/dz_k, z_k] = 1 and u commutes with both, T^d(1) = d! [x^d]
    exp(x (alpha z_k + u) + x^2 alpha nu / 2) = sum_{q,p} t[d, q, p] u^q z_k^p
    with j = (d - q - p) / 2 and t[d, q, p] = d! / (j! q! p!) (alpha nu / 2)^j
    alpha^p. On the section array Q[d, r] of ``states._section`` (powers of
    z_k by spectator monomials: graded in the spectators that u couples, which
    gain at most d_k degrees, and fixed in the others), G_q = sum_d t[d, q] Q_d
    is one contraction and sum_q u^q G_q a Horner pass in u: a copy scaled by
    nu B'_k + delta plus -nu A'_kj z_j times it per coupled spectator
    (``states._add_linear``, which drops only zeros below the total degree).
    """
    m, k, g = state.modes, mode, state.gauss
    A, B, b0 = g.A, g.B, complex(g.B[mode])
    if kappa:
        sec = -A[k]
        sec[k] = 0
        upd = sec[:, None] * sec
        A2 = A - kappa * (upd + upd.T)  # exactly symmetric
        B2 = B + (2.0 * kappa * b0) * sec
    else:
        A2, B2 = A.copy(), B.copy()
    A2[k] = A2[:, k] = b_scale * A[k]
    A2[k, k] = a_new
    B2[k] = b1 = b_scale * b0
    C2 = g.C + c_const + kappa * b0**2
    alpha = b_scale
    u0 = nu * b1  # constant term of u
    if beta:
        bc = beta.conjugate()
        C2 = C2 - b1 * bc - 0.5 * a_new * bc**2 - 0.5 * abs(beta) ** 2
        B2 += bc * A2[k]  # column k of the symmetric A'
        B2[k] += beta
        u0 = u0 - alpha * bc
    for arr in (A2, B2):
        arr.setflags(write=False)
    gauss2 = GaussPart(A2, B2, complex(C2))
    coeffs = state.poly.coeffs
    dk = max((n[k] for n in coeffs), default=0)
    if dk == 0:  # P does not involve z_k
        return StellarState(m, state.poly, gauss2)
    coupling = (-nu * A2[k]).tolist()  # u = u0 + sum_{j != k} coupling_j z_j
    coupling[k] = 0
    coupled = [j for j in range(m) if coupling[j]]
    # the coupled spectators' degree grows by at most dk; the total is kept
    total = max(map(sum, coeffs))
    deg = max(sum(n[j] for j in coupled) for n in coeffs)
    Q, layout = _section(state, k, dk, coupled, min(deg + dk, total))
    qn = dk + 1 if nu or beta else 1  # powers of u in T^d(1)
    coef, j, n = _transport_table(dk, qn)
    t = coef * ((0.5 * alpha * nu) ** n)[j] * alpha ** n
    # einsum, not a BLAS matmul: threaded OpenBLAS stalls for ms on some shapes
    G = np.einsum("dqp,dr->qpr", t, Q)
    out = G[-1]
    for q in range(qn - 2, -1, -1):
        nxt = G[q] + u0 * out
        _add_linear(nxt, out, coupling, layout)
        out = nxt
    poly = _section_poly(out, layout)
    return _assert_rank_preserved(total, StellarState(m, poly, gauss2), "section gate")


def _mode_drive(gate):
    """(xi, phi, phase) of a single-mode gate: the gate is exp(phase) times the
    t = 1 flow of the identity-free drive (xi, phi) (see ``_mode_exponents``).
    P(s) = exp(i s q^2) carries the identity term i s/2 of q^2."""
    if isinstance(gate, Squeeze):
        return complex(gate.xi), 0.0, 0j
    if isinstance(gate, Shear):
        return 1j * gate.s, float(gate.s), 0.5j * gate.s
    return 0j, float(gate.phi), 0j


def _omega2(xi, phi):
    """omega^2 = phi^2 - |xi|^2 of a drive, exactly 0 on the parabolic line |phi| = |xi|."""
    r = abs(xi)
    return (phi - r) * (phi + r)


def _moebius(a, mu, nu):
    """(a_new, b_scale, kappa, dc) of the SU(1,1) element M = [[mu, conj(nu)],
    [nu, conj(mu)]] on a mode with diagonal exponent a (see ``_section_gate``).

    With y = nu a + conj(mu), a moves by the Moebius map of M, b scales by 1/y
    and kappa = nu / (2 y). dc = -log1p(nu a / conj(mu))/2 is -log(y)/2 less
    its value at a = 0; it needs no branch choice, as |nu a / conj(mu)| < |a| < 1.
    Broadcasts over a, mu and nu.
    """
    muc = mu.conjugate()
    y = nu * a + muc
    return (mu * a + nu.conjugate()) / y, 1.0 / y, 0.5 * nu / y, -0.5 * np.log1p(nu * a / muc)


def _mode_exponents(a, xi, phi, t=1.0):
    """Flow of exp(tK), K = [[i phi, -xi], [-conj(xi), -i phi]], on a mode with
    diagonal exponent a: (a_new, b_scale, kappa, c_const, mu, nu); all but mu are
    the arguments of ``_section_gate``.

    exp(tK) = fc I + fs K, with (fc, fs) from ``calogero._propagator``, is the
    SU(1,1) element with first column (mu, nu) = (fc + i phi fs, -conj(xi) fs):
    ``_moebius`` gives its map of a, b and kappa. c_const = -log(y)/2 - i phi t/2
    with log y continued along the flow from y = 1 at t = 0: the continued log
    of y at a = 0, conj(mu), plus the log1p term of ``_moebius``. Broadcasts
    over a and t.
    """
    w2 = _omega2(xi, phi)
    fc, fs = cm._propagator(w2, t)
    mu, nu = fc + 1j * phi * fs, -xi.conjugate() * fs
    a_new, b_scale, kappa, dc = _moebius(a, mu, nu)
    log_y = np.log(fc - 1j * phi * fs)
    if w2 > 0:
        # fc and fs are real, so y(0) meets the negative axis only at fs = 0,
        # y = -1 (omega |t| = pi, 3 pi, ...), crossing it in the sense of -phi t
        turns = (math.sqrt(w2) * abs(t) / math.pi + 1.0) // 2.0
        log_y = log_y - 2j * math.pi * np.sign(phi * t) * turns
    return a_new, b_scale, kappa, -0.5 * log_y - 0.5j * phi * t + dc, mu, nu


class ModeRun(NamedTuple):
    """A run of D, S, P and R gates on one mode as one single-mode Gaussian
    unitary: D(beta) G times a phase. G is an SU(1,1) element, the product
    M = exp(K_n) ... exp(K_1) of the S, P and R propagators, held as its first
    column (mu, nu); M12 = conj(nu) and M22 = conj(mu) follow. Each
    displacement is carried to the end of the run by
    G D(b) = D(mu b - conj(nu) conj(b)) G.

    ``c`` is the run's constant at a = 0: the phases -i Im(conj(b) beta) of
    merging displacements, D(b) D(beta), each gate's identity term, and
    -log(y)/2 for y = nu a + conj(mu), log y continued gate by gate. At any
    other a the run adds the log1p term of ``_moebius``, so one application
    gives the a and the global phase the gates give one by one.
    """

    mode: int
    mu: complex
    nu: complex
    beta: complex
    c: complex

    @staticmethod
    def make(mode, gates):
        """Fuse ``gates`` (application order) acting on ``mode``; a Displace
        contributes its entry beta[mode]. Gates with a zero drive are dropped."""
        mu, nu = 1 + 0j, 0j
        a = beta = c = 0j
        for gate in gates:
            if isinstance(gate, Displace):
                b = complex(gate.beta[mode])
                c -= 1j * (b.conjugate() * beta).imag
                beta += b
                continue
            xi, phi, c_id = _mode_drive(gate)
            if xi == 0 and phi == 0:
                continue
            a, _, _, c_const, g_mu, g_nu = _mode_exponents(a, xi, phi)
            c += c_id + c_const
            beta = g_mu * beta - g_nu.conjugate() * beta.conjugate()
            mu, nu = g_mu * mu + g_nu.conjugate() * nu, g_nu * mu + g_mu.conjugate() * nu
        return ModeRun(mode, complex(mu), complex(nu), beta, complex(c))


def _apply_run(state, run):
    """A fused run as one ``_section_gate`` call; a run with M = I and no
    displacement only scales the state by exp(c)."""
    mode, mu, nu, beta, c = run
    if mu == 1 and not nu and not beta:
        return state.scaled(c) if c else state
    a_new, b_scale, kappa, dc = _moebius(complex(state.gauss.A[mode, mode]), mu, nu)
    return _section_gate(state, mode, a_new, b_scale, kappa, c + dc, nu, beta)


def _fused(gates):
    """The gates in application order, with each maximal stretch of D, S, P
    and R gates between other gates replaced by one ModeRun per mode it acts
    on: gates on different modes commute, so only the order within a mode
    matters."""
    out, runs = [], {}
    for gate in gates:
        if isinstance(gate, (Displace, Squeeze, Shear, Phase)):
            modes = np.flatnonzero(gate.beta) if isinstance(gate, Displace) else [gate.mode]
            for k in modes:
                runs.setdefault(int(k), []).append(gate)
            continue
        out += [ModeRun.make(k, run) for k, run in runs.items()]
        runs = {}
        out.append(gate)
    return out + [ModeRun.make(k, run) for k, run in runs.items()]


def apply_create(state, mode):
    """Photon addition: multiply the stellar function by z_mode (rank + 1)."""
    return state.with_poly(state.poly.mul_var(mode))


def apply_gate(state, gate):
    """One gate. D, S, P and R, alone or fused into a ModeRun, go through the
    single-mode kernel ``_section_gate``, once per mode they act on."""
    if isinstance(gate, ModeRun):
        if not 0 <= gate.mode < state.modes:
            raise ValueError(f"mode index {gate.mode} out of range for {state.modes} modes")
        return _apply_run(state, gate)
    validate_gate(gate, state.modes)
    if isinstance(gate, Passive):
        return apply_passive(state, gate)
    if isinstance(gate, Create):
        return apply_create(state, gate.mode)
    if isinstance(gate, Displace):  # a run of one per mode it displaces
        for run in _fused([gate]):
            state = _apply_run(state, run)
        return state
    return _apply_run(state, ModeRun.make(gate.mode, (gate,)))


def apply_gaussian(state, spec):
    """Fold a Gaussian gate program over the state, first gate first, with
    each stretch of single-mode gates fused (``_fused``)."""
    if spec.modes != state.modes:
        raise ValueError("spec mode count does not match the state")
    rank_in = state.poly.degree()
    for gate in _fused(spec.gate_list):
        state = apply_gate(state, gate)
    if state.poly.degree() != rank_in:
        raise RuntimeError("Gaussian program changed the stellar rank")
    return state


# ---------------------------------------------------------------------------
# Takagi factorization and the two standard forms
# ---------------------------------------------------------------------------

def _sqrt_unitary(M):
    """Principal square root of a unitary M from its eigen-decomposition: M is
    normal, so its eigenvector matrix is well conditioned."""
    lam, P = np.linalg.eig(M)
    return (P * np.sqrt(lam)) @ np.linalg.inv(P)


def _equal_blocks(s):
    """Slices of the blocks of equal values in the descending ``s``: a block ends
    at a gap wider than 1e-13 s[0], so the grouping does not depend on scale."""
    cuts = [0, *(np.flatnonzero(s[:-1] - s[1:] > 1e-13 * s[0]) + 1), s.size]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def takagi(A):
    """Autonne-Takagi factorization A = W diag(s) W^T of a complex symmetric A.

    Returns (s, W) with s real non-negative descending and W unitary.
    Degenerate singular values are handled subspace by subspace: with the SVD
    A = v diag(s) w^dag, the block v^T w of equal s (``_equal_blocks``) is a
    symmetric unitary, and W takes the conjugate of its principal square root.
    Raises RuntimeError, naming the residual max|W diag(s) W^T - A|, when the
    factorization misses A by more than 1e-8 max|A|.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValueError("takagi requires a symmetric matrix")
    if not A.any():
        return np.zeros(n), np.eye(n, dtype=complex)
    v, s, wh = np.linalg.svd(A)
    w = wh.conj().T
    Q = np.zeros((n, n), dtype=complex)
    for blk in _equal_blocks(s):
        Q[blk, blk] = _sqrt_unitary(v[:, blk].T @ w[:, blk])
    W = v @ np.conj(Q)
    residual = np.max(np.abs(W @ np.diag(s) @ W.T - A))
    if residual > 1e-8 * np.max(np.abs(A)):
        raise RuntimeError(
            f"takagi factorization failed: residual max|W diag(s) W^T - A| = {residual:.3e}"
        )
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

def _action(gates, m):
    """(E, F, d) with G a_k^dag G^dag = sum_j E_kj a_j^dag + F_kj a_j + d_k for
    the unitary G of fused ``gates`` (Passive and ModeRun, application order).

    A passive U maps (E, F) to (E U, F conj(U)). A ModeRun on mode k mixes
    columns k of E and F by its SU(1,1) propagator, whose first column is
    (mu, nu), and its trailing D(beta) then adds -conj(beta) E_k - beta F_k
    to d.
    """
    E = np.eye(m, dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    d = np.zeros(m, dtype=complex)
    for gate in gates:
        if isinstance(gate, Passive):
            E, F = E @ gate.U, F @ gate.U.conj()
        elif isinstance(gate, ModeRun):
            k, mu, nu, beta = gate.mode, gate.mu, gate.nu, gate.beta
            e, f = E[:, k].copy(), F[:, k].copy()
            E[:, k] = mu * e + nu.conjugate() * f
            F[:, k] = nu * e + mu.conjugate() * f
            d -= beta.conjugate() * E[:, k] + beta * F[:, k]
        else:
            raise ValueError(f"no Bogoliubov action for {gate!r}")
    return E, F, d


def bogoliubov(spec):
    """(E, F, d) with G a_k^dag G^dag = sum_j E_kj a_j^dag + F_kj a_j + d_k."""
    return _action(_fused(spec.gate_list), spec.modes)


def _bloch_messiah_gates(E, F, d):
    """[Passive V, Displace(beta), Squeeze..., Passive U] with the Bogoliubov
    action (E, F, d): G = U S(xi) D(beta) V, up to a global phase. Without
    squeezing V is left out: [Displace(beta), Passive U].

    In the fold convention of ``_action``, that program has E = V C U with
    C = diag(cosh r), F = -V diag(e^{-i theta} sinh r) conj(U) and
    d = -V conj(beta). V and r come from the SVD of F, whose singular values
    are sinh r, so a small r keeps its relative precision; read from the
    eigenvalues cosh^2 r of E E^dag, it does not (an action error of 1e-11 at
    r = 1e-4 and 2e-8 at r = 1e-8). Then U = C^-1 V^dag E, and
    S = -V^dag F U^T is diag(e^{-i theta} sinh r).
    """
    m = E.shape[0]
    V, s, _ = np.linalg.svd(F)
    scale = max(1.0, s[0])
    C = np.sqrt(1.0 + s * s)
    S = -V.conj().T @ F @ (V.conj().T @ E / C[:, None]).T
    # equal singular values leave V free up to a unitary X on their block,
    # where S is sinh r times a symmetric unitary: V X maps S to
    # X^dag S conj(X), which the block's Takagi factor X makes diagonal
    for blk in _equal_blocks(s):
        if blk.stop - blk.start > 1 and s[blk.start] > 1e-14 * scale:
            sub = S[blk, blk]
            _, X = takagi((sub + sub.T) / 2.0)
            V[:, blk] = V[:, blk] @ X
    U = (V.conj().T @ E) / C[:, None]
    S = -V.conj().T @ F @ U.T
    r = np.arcsinh(s)
    squeezers = [
        Squeeze(j, complex(r[j] * np.exp(-1j * np.angle(S[j, j]))))
        for j in range(m) if s[j] > 1e-14 * scale
    ]
    if not squeezers:  # F = 0 leaves V free: take V = I, so U = E and d = -conj(beta)
        return [Displace.make(-np.conj(d)), Passive.make(_unitary_project(E))]
    return [
        Passive.make(_unitary_project(V)),
        Displace.make(-np.conj(V.conj().T @ d)),
        *squeezers,
        Passive.make(_unitary_project(U)),
    ]


def bloch_messiah(spec):
    """Equivalent program [Passive V, Displace, Squeeze..., Passive U]: the
    Bloch-Messiah form G = U S(xi) D(beta) V of the program's Gaussian
    unitary, recovered from its Bogoliubov action; equality with the input
    program holds up to a global phase."""
    return GaussianUnitarySpec.make(spec.modes, _bloch_messiah_gates(*bogoliubov(spec)))


def _cost(gates):
    """Sort key for the kernel cost of fused gates: a passive gate rewrites
    every coefficient of the state and costs about one ModeRun per mode, so
    the passive count comes first, then the entry count."""
    return sum(isinstance(g, Passive) for g in gates), len(gates)


def _compact(gates, m):
    """The gates of a stretch on m modes, fused (``_fused``) and, if that
    holds two or more passive gates, compiled to their Bloch-Messiah form.

    The stretch is one Gaussian unitary, so [Passive V, one D+S ModeRun per
    mode, Passive U] applies it with two passive gates and at most m
    ModeRuns, and without squeezing [ModeRun..., Passive U] with one. A
    stretch with fewer than two passive gates cannot lose one, so it stays
    fused. The program is built from the stretch's Bogoliubov action, folded
    once, and kept only if its own action matches to 1e-12 relative and it is
    cheaper (``_cost``); otherwise the fused gates are returned. The form
    fixes the unitary up to a global phase, which is the same on every state:
    it is measured once, from both programs applied to the vacuum, and joins
    the c of a ModeRun, so the program gives the fused gates' state, C
    included. Compiling costs about two applications of the fused stretch to
    a rank-0 state, so it pays for a stretch that is applied many times.
    """
    fused = _fused(gates)
    if _cost(fused)[0] < 2:
        return fused
    E, F, d = _action(fused, m)
    try:
        program = _fused(_bloch_messiah_gates(E, F, d))
    except (RuntimeError, np.linalg.LinAlgError):  # Takagi residual, non-finite action
        return fused
    E2, F2, d2 = _action(program, m)
    err = max(np.abs(E2 - E).max(), np.abs(F2 - F).max(), np.abs(d2 - d).max())
    ok = err <= 1e-12 * max(1.0, np.abs(E).max(), np.abs(d).max())  # False on NaN
    if not (ok and _cost(program) < _cost(fused)):
        return fused
    vacuum = StellarState.vacuum(m)
    offset = (functools.reduce(apply_gate, fused, vacuum).gauss.C
              - functools.reduce(apply_gate, program, vacuum).gauss.C)
    for i, gate in enumerate(program):
        if isinstance(gate, ModeRun):
            program[i] = gate._replace(c=gate.c + offset)
            return program
    return [ModeRun(0, 1 + 0j, 0j, 0j, offset), *program]  # a phase-only element


def _unitary_project(U):
    """Snap an almost-unitary matrix to the closest unitary (polar factor)."""
    u, _, vh = np.linalg.svd(U)
    return u @ vh
