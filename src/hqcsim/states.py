"""Stellar states: polynomial-times-Gaussian holomorphic functions on m modes.

A state is stored as a sparse multivariate polynomial ``P`` (map from exponent
tuples to complex coefficients) together with Gaussian exponent data
``(A, B, C)`` representing ``F(z) = P(z) * exp(-z^T A z / 2 + B^T z + C)``.
States are unnormalized; ``C`` absorbs normalization and global phase.

The inner product <F1|F2> = int conj(F1(z)) F2(z) exp(-|z|^2) d^2m z / pi^m
has a closed form. With u = conj(z), w = z as independent variables v = (u, w),
M = [[conj(A1), I], [I, A2]], K = M^-1 and L = (conj(B1), B2):

    <F1|F2> = exp(conj(C1) + C2 + L^T K L / 2) / prod_i sqrt(1 - lambda_i)
              * sum_{a,b} conj(p1_a) p2_b T[a, b],

with lambda_i the eigenvalues of conj(A1) A2, p1, p2 the polynomial coefficients
and T[a, b] = E[u^a w^b] the Wick moments of mean K L and covariance K. The
square root is taken per eigenvalue (see ``inner_product``). One routine,
``_wick_moments``, fills every Wick table: at the mean K L for an inner product
or a Fock mass, and at mean zero for a heterodyne plan, against which each
outcome's polynomial is Taylor-shifted by its mean (``_taylor_shifted``).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Admissibility margin on singular values of A: beyond it the Bargmann norm
# diverges.
EPS_ADMISSIBLE = 1e-6
# Coefficients below PRUNE_REL * max|coeff| are dropped after arithmetic.
PRUNE_REL = 1e-14
# Tolerance on |norm^2 - 1| for operations that require normalized input.
NORM_TOL = 1e-8


class AdmissibilityError(ValueError):
    """Raised when a Gaussian exponent matrix lies outside the admissible set."""


def check_multi_index(index, modes):
    index = tuple(int(k) for k in index)
    if len(index) != modes:
        raise ValueError(f"multi-index {index} has length {len(index)}, expected {modes}")
    if any(k < 0 for k in index):
        raise ValueError(f"multi-index {index} has negative entries")
    return index


def sqrt_factorial(index):
    """sqrt(n!) for a multi-index n."""
    return math.exp(0.5 * sum(math.lgamma(k + 1) for k in index))


@dataclass(frozen=True)
class PolyPart:
    """Sparse multivariate polynomial: exponent tuple -> complex coefficient.

    Canonical form stores no exactly-zero coefficients; the empty map is the
    zero polynomial.
    """

    coeffs: dict = field(default_factory=dict)

    @staticmethod
    def make(coeffs, modes=None):
        clean = {}
        for idx, c in coeffs.items():
            c = complex(c)
            if c != 0:
                idx = tuple(int(k) for k in idx)
                if modes is not None:
                    check_multi_index(idx, modes)
                clean[idx] = clean.get(idx, 0) + c
        return PolyPart({k: v for k, v in sorted(clean.items()) if v != 0})

    @staticmethod
    def one(modes):
        return PolyPart({(0,) * modes: 1.0 + 0j})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(idx) for idx in self.coeffs)

    def scaled(self, factor):
        factor = complex(factor)
        if factor == 0:
            return PolyPart({})
        return PolyPart({k: v * factor for k, v in self.coeffs.items()})

    def multiplied(self, other):
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return PolyPart({k: v for k, v in sorted(out.items()) if v != 0})

    def derivative(self, mode):
        out = {}
        for idx, c in self.coeffs.items():
            if idx[mode] > 0:
                new = list(idx)
                new[mode] -= 1
                out[tuple(new)] = out.get(tuple(new), 0) + c * idx[mode]
        return PolyPart(dict(sorted(out.items())))

    def mul_var(self, mode):
        out = {}
        for idx, c in self.coeffs.items():
            new = list(idx)
            new[mode] += 1
            out[tuple(new)] = c
        return PolyPart(dict(sorted(out.items())))

    def evaluate_grid(self, zgrids):
        """Vectorized evaluation; ``zgrids`` is a list of broadcastable arrays."""
        total = np.zeros(np.broadcast(*zgrids).shape, dtype=complex)
        for idx, c in self.coeffs.items():
            term = np.asarray(c)
            for k, p in enumerate(idx):
                if p:
                    term = term * zgrids[k] ** p
            total += term
        return total

    def pruned(self):
        if not self.coeffs:
            return self
        mx = max(abs(c) for c in self.coeffs.values())
        if mx == 0:
            return PolyPart({})
        return PolyPart(
            {k: v for k, v in sorted(self.coeffs.items()) if abs(v) >= PRUNE_REL * mx}
        )


def _symmetrize_exact(A):
    A = np.array(A, dtype=complex)
    upper = np.triu(A, 1)
    return np.diag(np.diag(A)) + upper + upper.T


@dataclass(frozen=True)
class GaussPart:
    """Gaussian exponent data (A, B, C) with A complex symmetric."""

    A: np.ndarray
    B: np.ndarray
    C: complex

    @staticmethod
    def make(A, B, C=0.0, check=True):
        A = _symmetrize_exact(A)
        B = np.array(B, dtype=complex).reshape(-1)
        if A.shape != (B.size, B.size):
            raise ValueError(f"A shape {A.shape} incompatible with B length {B.size}")
        g = GaussPart(A, B, complex(C))
        if check:
            g.check_admissible()
        A.setflags(write=False)
        B.setflags(write=False)
        return g

    @staticmethod
    def vacuum(modes):
        return GaussPart.make(np.zeros((modes, modes)), np.zeros(modes), 0.0)

    @property
    def modes(self):
        return self.B.size

    def check_admissible(self):
        smax = float(np.max(np.linalg.svd(self.A, compute_uv=False)))
        if smax >= 1.0 - EPS_ADMISSIBLE:
            raise AdmissibilityError(
                f"Gaussian part not admissible: max singular value {smax:.9f} >= "
                f"{1.0 - EPS_ADMISSIBLE}"
            )

    def exponent_grid(self, zgrids):
        m = self.modes
        total = np.asarray(self.C, dtype=complex)
        for j in range(m):
            total = total + self.B[j] * zgrids[j]
            total = total - 0.5 * self.A[j, j] * zgrids[j] ** 2
            for k in range(j + 1, m):
                total = total - self.A[j, k] * zgrids[j] * zgrids[k]
        return total


@dataclass(frozen=True)
class StellarState:
    """An m-mode state F(z) = P(z) exp(-z^T A z/2 + B^T z + C)."""

    modes: int
    poly: PolyPart
    gauss: GaussPart

    @staticmethod
    def make(modes, poly, gauss):
        modes = int(modes)
        if modes < 1:
            raise ValueError("modes must be positive")
        if gauss.modes != modes:
            raise ValueError("Gaussian part has wrong mode count")
        for idx in poly.coeffs:
            check_multi_index(idx, modes)
        return StellarState(modes, poly.pruned(), gauss)

    @staticmethod
    def vacuum(modes):
        return StellarState.make(modes, PolyPart.one(modes), GaussPart.vacuum(modes))

    def with_poly(self, poly):
        return StellarState.make(self.modes, poly, self.gauss)

    def with_gauss(self, gauss):
        return StellarState.make(self.modes, self.poly, gauss)

    def scaled(self, log_factor):
        """Multiply the state by exp(log_factor)."""
        g = self.gauss
        return self.with_gauss(GaussPart.make(g.A, g.B, g.C + complex(log_factor), check=False))


def from_fock_superposition(amps, modes):
    """State from Fock amplitudes {multi-index: psi_n}.

    The stellar coefficients are psi_n / sqrt(n!); the Gaussian part is zero.
    """
    modes = int(modes)
    coeffs = {}
    for idx, psi in amps.items():
        idx = check_multi_index(idx, modes)
        psi = complex(psi)
        if psi != 0:
            coeffs[idx] = psi / sqrt_factorial(idx)
    if not coeffs:
        raise ValueError("at least one Fock amplitude must be nonzero")
    return StellarState.make(modes, PolyPart.make(coeffs), GaussPart.vacuum(modes))


def _point(state, z):
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.size != state.modes:
        raise ValueError(f"point has {z.size} components, state has {state.modes} modes")
    return list(z)


def evaluate(state, z):
    """Pointwise value F(z): ``evaluate_grid`` at one point."""
    return complex(evaluate_grid(state, _point(state, z)))


def evaluate_grid(state, zgrids):
    return state.poly.evaluate_grid(zgrids) * np.exp(state.gauss.exponent_grid(zgrids))


def husimi_density(state, alpha):
    """Husimi density Q(alpha) = exp(-|alpha|^2) |F(alpha*)|^2 / pi^m.

    Requires a normalized state; unnormalized input is reported, not rescaled.
    The log density, -|alpha|^2 + 2 Re E(alpha*) + 2 log|P(alpha*)| - m log pi
    for F = P exp(E), is exponentiated once, so no factor overflows.
    """
    ns = norm_squared(state)
    if abs(ns - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: norm^2 = {ns!r}")
    z = _point(state, np.conj(alpha))
    p = abs(complex(state.poly.evaluate_grid(z)))
    log_q = 2.0 * complex(state.gauss.exponent_grid(z)).real - float(np.sum(np.abs(z) ** 2))
    return math.exp(log_q + 2.0 * math.log(p) - state.modes * math.log(math.pi)) if p else 0.0


def _shell_indices(modes, degree):
    """All multi-indices of the given total degree, lexicographically sorted."""
    if modes == 0:
        return [] if degree else [()]
    return [(k,) + n for k in range(degree + 1) for n in _shell_indices(modes - 1, degree - k)]


def all_indices_upto(modes, cutoff):
    return [n for d in range(cutoff + 1) for n in _shell_indices(modes, d)]


def gaussian_series(gauss, cutoff):
    """Taylor coefficients of exp(-z^T A z/2 + B^T z + C) up to total degree cutoff.

    Uses the derivative recurrence (p_k + 1) e_{p+e_k} = B_k e_p - sum_j A_kj e_{p-e_j}
    shell by shell, with k the first nonzero component of p + e_k (``_MomentIndex``).
    """
    index = _moment_index(gauss.modes, cutoff)
    e = np.zeros(index.size + 1, dtype=complex)  # the last entry is the zero pad
    e[0] = np.exp(gauss.C)
    for sl, k, p, n, down in index.shells:
        step = gauss.B[k] * e[p] - np.sum(gauss.A[k] * e[down], axis=1)
        e[sl] = step / (n[np.arange(len(k)), k] + 1)
    return dict(zip(index.pos, e.tolist()))


def stellar_coefficients(state, cutoff):
    """Taylor coefficients of F up to total degree cutoff (dict index -> complex)."""
    base = gaussian_series(state.gauss, cutoff)
    out = {}
    for pidx, pc in state.poly.coeffs.items():
        pdeg = sum(pidx)
        if pdeg > cutoff:
            continue
        for gidx, gc in base.items():
            if sum(gidx) + pdeg > cutoff:
                continue
            tgt = tuple(a + b for a, b in zip(pidx, gidx))
            out[tgt] = out.get(tgt, 0) + pc * gc
    return out


@dataclass(frozen=True)
class FockArray:
    """Dense truncated Fock amplitudes up to a total photon-number cutoff."""

    modes: int
    cutoff: int
    amplitudes: dict
    captured_norm: float
    truncation_loss: float

    def amplitude(self, index):
        return self.amplitudes.get(tuple(index), 0j)


def to_fock_array(state, cutoff, warn_tail=True):
    """Expand to Fock amplitudes psi_n = sqrt(n!) [z^n] F for |n| <= cutoff.

    The truncation loss is 1 - captured/total where total is the exact
    closed-form norm of the state; ``warn_tail`` reports a loss above 1e-8 on
    the warning channel.
    """
    state.gauss.check_admissible()
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    coeffs = stellar_coefficients(state, cutoff)
    amps = {}
    captured = 0.0
    for idx in sorted(coeffs):
        psi = coeffs[idx] * sqrt_factorial(idx)
        amps[idx] = psi
        captured += abs(psi) ** 2
    total = norm_squared(state)
    loss = max(0.0, 1.0 - captured / total) if total > 0 else 0.0
    if warn_tail and loss > 1e-8:
        warnings.warn(
            f"Fock truncation at cutoff {cutoff} loses {loss:.3e} of the norm",
            stacklevel=2,
        )
    return FockArray(state.modes, cutoff, amps, captured, loss)


def norm_squared(state):
    """Bargmann-space squared norm <state|state>, in closed form."""
    return inner_product(state, state).real


class _MomentIndex:
    """The down-closure of the multi-indices ``support`` (with n, every
    n - e_j), in shells of rising degree; ``_moment_index(modes, degree)`` is
    the graded set |n| <= ``degree``.

    ``down[j, i]`` is the position of n_i - e_j, or ``size`` (a zero pad) when
    n_i has no j-th component. A shell holds its positions, the first nonzero
    component k of each index, the positions p of n - e_k, and ``n[p]`` and
    ``down[:, p].T`` (gathered once here, not on every use).
    """

    def __init__(self, modes, support):
        idx, todo = set(), list(support)
        while todo:
            n = todo.pop()
            if n not in idx:
                idx.add(n)
                todo.extend(n[:j] + (v - 1,) + n[j + 1:] for j, v in enumerate(n) if v)
        idx = sorted(idx, key=lambda n: (sum(n), n))
        self.pos = {n: i for i, n in enumerate(idx)}
        self.size = len(idx)
        self.n = np.array(idx, dtype=float).reshape(self.size, modes)
        self.down = np.full((modes, self.size), self.size, dtype=np.intp)
        for i, n in enumerate(idx):
            for j, v in enumerate(n):
                if v:
                    self.down[j, i] = self.pos[n[:j] + (v - 1,) + n[j + 1:]]
        self.shells = []
        bounds = np.flatnonzero(np.diff(self.n.sum(axis=1))) + 1
        for lo, hi in zip(bounds, [*bounds[1:], self.size]):
            k = np.argmax(self.n[lo:hi] > 0, axis=1)
            p = self.down[k, np.arange(lo, hi)]
            self.shells.append((slice(lo, hi), k, p, self.n[p], self.down[:, p].T))


@functools.lru_cache(maxsize=64)
def _moment_index(modes, degree):
    return _MomentIndex(modes, _shell_indices(modes, degree))


_closed_index = functools.lru_cache(maxsize=64)(_MomentIndex)  # support: a tuple


class _SectionLayout:
    """The columns of a section array Q[p, c] (``_section``) of P = sum_p
    z_k^p Q_p, k = ``mode``. Column c = r * T + t holds monomial r of
    ``index``, a graded index over the ``coupled`` other modes, times the t-th
    of the T ``fixed`` monomials of the ``free`` other modes, which a product
    with sum_j c_j z_j over coupled j leaves alone. The last column is a zero
    pad: ``down[i]`` gathers the column of each monomial divided by z_j,
    j = coupled[i], or the pad where it has no z_j. ``column`` maps the other
    modes' exponents to their column."""

    def __init__(self, mode, coupled, free, fixed, degree):
        self.mode, self.coupled, self.fixed = mode, coupled, fixed
        self.index = _moment_index(len(coupled), degree if coupled else 0)
        pad = self.index.size * len(fixed)
        self.width = pad + 1
        down = self.index.down[:, :, None] * len(fixed) + np.arange(len(fixed))
        self.down = np.minimum(down, pad).reshape(len(coupled), pad)
        order = sorted(range(len(coupled + free)), key=(coupled + free).__getitem__)
        self.column = {tuple((c + f)[i] for i in order): r * len(fixed) + t
                       for c, r in self.index.pos.items() for t, f in enumerate(fixed)}
        self._keys = {}

    def keys(self, rows):
        """The multi-indices of a section array's entries in sorted order and
        their positions in the flattened array: of all modes for ``rows``
        rows, or (rows None) of the other modes for one row."""
        if rows not in self._keys:
            k, keys = self.mode, self.column.items()
            keys = sorted(keys if rows is None else [(n[:k] + (p,) + n[k:], p * self.width + i)
                                                     for p in range(rows) for n, i in keys])
            self._keys[rows] = ([n for n, _ in keys], np.array([i for _, i in keys], dtype=np.intp))
        return self._keys[rows]


_section_layout = functools.lru_cache(maxsize=64)(_SectionLayout)


def _section(state, mode, pmax, coupled, degree):
    """(Q, layout) for P = sum_p z_k^p Q_p(z_rest), k = ``mode``: Q[p, c] is
    the coefficient of z_k^p times the other modes' monomial of column c of
    the ``_SectionLayout``, p <= pmax (higher powers are dropped). The
    ``coupled`` other modes take a graded index up to ``degree``, which must
    cover their degree in P; the remaining other modes keep the monomials
    they have in P."""
    coeffs = state.poly.coeffs
    free = tuple(j for j in range(state.modes) if j != mode and j not in coupled)
    fixed = tuple(sorted({tuple(n[j] for j in free) for n in coeffs})) or ((0,) * len(free),)
    layout = _section_layout(mode, tuple(coupled), free, fixed, degree)
    Q = np.zeros((pmax + 1, layout.width), dtype=complex)
    for n, c in coeffs.items():
        if n[mode] <= pmax:
            Q[n[mode], layout.column[n[:mode] + n[mode + 1:]]] = c
    return Q, layout


def _section_poly(Q, layout):
    """The PolyPart of a section array (the inverse of ``_section``), ``_kept``
    entries only: over all modes, or, for a single row Q, over the other modes."""
    keys, flat = layout.keys(len(Q) if Q.ndim == 2 else None)
    vals = Q.take(flat)
    keep = _kept(vals)
    return PolyPart(dict(zip(itertools.compress(keys, keep.tolist()), vals[keep].tolist())))


def _kept(vals):
    """Which entries of ``vals`` are above PRUNE_REL * the max |entry| of their row."""
    mag = np.abs(vals)
    return mag > PRUNE_REL * mag.max(axis=-1, keepdims=True)


def _add_linear(out, Q, coefs, layout):
    """out += sum_j coefs[j] z_j Q for section arrays (``_section``), ``coefs``
    a list over all modes that is zero on the layout's uncoupled modes: z_k
    moves Q one row up and a coupled z_j gathers Q through ``layout.down``;
    terms beyond either bound drop."""
    k = layout.mode
    if coefs[k]:
        out[1:] += coefs[k] * Q[:-1]
    for j, down in zip(layout.coupled, layout.down):
        if coefs[j]:
            # not c * gather: numpy would multiply in place into a temporary of
            # 256 KiB or more, which rounds otherwise, so entries would depend on size
            out[:, :-1] += np.multiply(Q.take(down, axis=1), coefs[j])


def _wick_moments(mu, K, rows, cols):
    """T[a, b] = E[u^a w^b], a in ``rows``, b in ``cols``, for the formal Gaussian
    over v = (u, w) of mean ``mu`` and covariance ``K``: the one Wick fill.

    Filled from E[v_r f] = mu_r E[f] + sum_l K_rl E[df/dv_l]: the row a = 0 shell
    by shell in b, then the rows shell by shell in a, each a whole row at once."""
    m, nc = mu.size // 2, cols.size
    T = np.zeros((rows.size + 1, nc + 1), dtype=complex)  # last row/column: zero pads
    first = T[0]
    first[0] = 1.0
    for S, k, p, n_p, down_p in cols.shells:
        first[S] = mu[m + k] * first[p] + (K[m + k, m:] * n_p * first[down_p]).sum(1)
    b = cols.n.T
    for S, k, p, n_p, down_p in rows.shells:
        prev, Kk = T[p], K[k, None]
        # (s, 1, j) @ (s, j, c) contracts j for each index of the shell
        T[S, :nc] = (mu[k, None] * prev[:, :nc]
                     + ((Kk[..., :m] * n_p[:, None]) @ T[down_p, :nc])[:, 0]
                     + (Kk[..., m:] @ (b * prev[:, cols.down]))[:, 0])
    return T[:-1, :-1]


def _taylor_shifted(p, shift, index):
    """Coefficients of p(x + shift) on ``index``, which holds them as it is
    down-closed, for one polynomial p and one shift per row: for each variable j
    in turn, sum_k shift_j^k / k! d^k p / dx_j^k, each derivative one scatter
    through ``index.down``."""
    out = p.T  # one index entry per row, so a scatter moves whole rows
    for j, n_j in enumerate(index.n.T):
        term = out
        for k in range(1, int(n_j.max()) + 1):
            d = np.zeros((index.size + 1, len(p)), dtype=complex)  # last row: zero pad
            d[index.down[j]] = term * (n_j / k)[:, None]
            term = d[:-1] * shift[:, j]
            out = out + term
    return out.T


def _bargmann_kernel(A1, A2):
    """K = M^-1 for M = [[conj(A1), I], [I, A2]], and the roots sqrt(1 - lambda_i)
    of the eigenvalues of conj(A1) A2 (see ``inner_product``)."""
    m = A1.shape[0]
    A1 = np.conj(A1)
    M = np.zeros((2 * m, 2 * m), dtype=complex)
    M[:m, :m], M[m:, m:] = A1, A2
    M[:m, m:] = M[m:, :m] = np.eye(m)
    return np.linalg.inv(M), np.sqrt(1.0 - np.linalg.eigvals(A1 @ A2))


def _wick_table(g1, g2, rows, cols):
    """The Gaussian core of <F1|F2> for Gaussian parts g1, g2 and its Wick
    table T[a, b] = E[u^a w^b], a in ``rows``, b in ``cols`` (``inner_product``)."""
    K, roots = _bargmann_kernel(g1.A, g2.A)
    L = np.concatenate([np.conj(g1.B), g2.B])
    mu = K @ L
    core = np.exp(np.conj(g1.C) + g2.C + 0.5 * L @ mu) / np.prod(roots)
    return core, _wick_moments(mu, K, rows, cols)


def inner_product(s1, s2):
    """Bargmann inner product <s1|s2>, conjugate-linear in the first argument.

    Closed form for any mode count (see the module docstring): a Gaussian core
    exp(conj(C1) + C2 + L^T K L / 2) / prod_i sqrt(1 - lambda_i) times the sum
    over conj(p1_a) p2_b E[u^a w^b] (``_wick_table``, as in ``sampling._fock_masses``)
    on the down-closure of each polynomial's monomials. Each 1 - lambda_i has a
    positive real part, so the principal roots continue the branch from A = 0;
    the root of the determinant, sqrt(det(I - conj(A1) A2)), can take the wrong
    sign from three modes on. A zero polynomial gives exactly 0.
    """
    if s1.modes != s2.modes:
        raise ValueError(f"mode counts differ: {s1.modes} vs {s2.modes}")
    g1, g2 = s1.gauss, s2.gauss
    g1.check_admissible()
    if g2 is not g1:
        g2.check_admissible()
    if s1.poly.is_zero() or s2.poly.is_zero():
        return 0j
    c1, c2 = s1.poly.coeffs, s2.poly.coeffs
    rows = _closed_index(s1.modes, tuple(c1))
    cols = rows if c2 is c1 else _closed_index(s1.modes, tuple(c2))
    core, T = _wick_table(g1, g2, rows, cols)
    T = T[np.ix_([rows.pos[n] for n in c1], [cols.pos[n] for n in c2])]
    p1, p2 = np.conj(list(c1.values())), np.array(list(c2.values()))
    return complex(core * np.sum(p1[:, None] * T * p2))


def normalized(state):
    ns = norm_squared(state)
    if ns <= 0:
        raise ValueError("cannot normalize a zero-norm state")
    return state.scaled(-0.5 * math.log(ns))


def stellar_rank(state):
    """Total degree of the polynomial part (0 iff the state is Gaussian)."""
    d = state.poly.degree()
    if d < 0:
        raise ValueError("zero state has no stellar rank")
    return d


def tensor(s1, s2):
    """Tensor product; stellar functions multiply over disjoint variables."""
    m1, m2 = s1.modes, s2.modes
    m = m1 + m2
    coeffs = {}
    for i1, c1 in s1.poly.coeffs.items():
        for i2, c2 in s2.poly.coeffs.items():
            coeffs[i1 + i2] = c1 * c2
    A = np.zeros((m, m), dtype=complex)
    A[:m1, :m1] = s1.gauss.A
    A[m1:, m1:] = s2.gauss.A
    B = np.concatenate([s1.gauss.B, s2.gauss.B])
    C = s1.gauss.C + s2.gauss.C
    return StellarState.make(m, PolyPart.make(coeffs), GaussPart.make(A, B, C))


def from_zeros(zeros, a, b, c):
    """Single-mode state with monic polynomial part prod_k (z - zero_k)."""
    a, b, c = complex(a), complex(b), complex(c)
    if abs(a) >= 1.0 - EPS_ADMISSIBLE:
        raise AdmissibilityError(f"|a| = {abs(a):.9f} is not admissible")
    poly = np.array([1.0 + 0j])
    for z0 in zeros:
        poly = np.convolve(poly, np.array([-complex(z0), 1.0]))
    coeffs = {(k,): poly[k] for k in range(poly.size)}
    return StellarState.make(1, PolyPart.make(coeffs), GaussPart.make([[a]], [b], c))


def zeros_of(state):
    """Roots of the polynomial part of a single-mode state, with multiplicity."""
    if state.modes != 1:
        raise ValueError("zeros_of is defined for single-mode states only")
    if stellar_rank(state) == 0:
        raise ValueError("rank-0 state has no stellar zeros")
    # companion-matrix root finding (descending order for np.roots)
    return np.roots(poly_coeffs_1m(state)[::-1])


def poly_coeffs_1m(state):
    """Ascending coefficient vector of the polynomial part (single mode)."""
    n = max(state.poly.degree(), 0)
    out = np.zeros(n + 1, dtype=complex)
    for (k,), c in state.poly.coeffs.items():
        out[k] = c
    return out


def husimi_integral(state, order=48):
    """Numeric integral of the Husimi density over C^m by Gauss-Hermite quadrature.

    Independent oracle for normalization checks; supports m <= 2 at reasonable
    cost. ``order`` is the node count per real axis.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    m = state.modes
    # alpha* grid per mode: x - i y over the tensor of nodes
    conj_pts = (nodes[:, None] - 1j * nodes[None, :]).ravel()
    w2 = (weights[:, None] * weights[None, :]).ravel()
    if m == 1:
        vals = evaluate_grid(state, [conj_pts])
        return float(np.sum(w2 * np.abs(vals) ** 2) / np.pi)
    if m == 2:
        total = 0.0
        chunk = 512
        for lo in range(0, conj_pts.size, chunk):
            hi = min(lo + chunk, conj_pts.size)
            z1 = conj_pts[lo:hi, None]
            z2 = conj_pts[None, :]
            vals = evaluate_grid(state, [z1, z2])
            total += float(np.sum(w2[lo:hi, None] * w2[None, :] * np.abs(vals) ** 2))
        return total / np.pi ** 2
    raise ValueError("husimi_integral supports at most 2 modes")
