"""Truncated Fock-basis oracle: sparse ladder operators and exact gate matrices.

This is the brute-force ground truth the stellar routes are checked against.
States live in the total-photon-number-truncated space |n| <= cutoff; gates are
matrix exponentials of the truncated quadratic generators, applied with
``expm_multiply``. scipy is imported where it is used, so importing hqcsim
does not load it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .gates import Create, Displace, Passive, Phase, Shear, Squeeze, validate_gate
from .states import FockArray, all_indices_upto, sqrt_factorial


class FockBasis:
    """Multi-indices with |n| <= cutoff in lexicographic order, plus operators."""

    _cache = {}

    def __new__(cls, modes, cutoff):
        key = (modes, cutoff)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._init(modes, cutoff)
            cls._cache[key] = obj
        return cls._cache[key]

    def _init(self, modes, cutoff):
        self.modes = modes
        self.cutoff = cutoff
        self.indices = all_indices_upto(modes, cutoff)
        self.position = {idx: i for i, idx in enumerate(self.indices)}
        self.dim = len(self.indices)
        self._ops = {}

    def annihilation(self, mode):
        key = ("a", mode)
        if key not in self._ops:
            from scipy.sparse import csr_matrix

            rows, cols, vals = [], [], []
            for i, idx in enumerate(self.indices):
                n = idx[mode]
                if n > 0:
                    tgt = list(idx)
                    tgt[mode] -= 1
                    rows.append(self.position[tuple(tgt)])
                    cols.append(i)
                    vals.append(np.sqrt(n))
            self._ops[key] = csr_matrix(
                (vals, (rows, cols)), shape=(self.dim, self.dim), dtype=complex
            )
        return self._ops[key]

    def creation(self, mode):
        key = ("ad", mode)
        if key not in self._ops:
            self._ops[key] = self.annihilation(mode).conj().T.tocsr()
        return self._ops[key]

    def vector(self, arr):
        v = np.zeros(self.dim, dtype=complex)
        for idx, amp in arr.amplitudes.items():
            pos = self.position.get(tuple(idx))
            if pos is not None:
                v[pos] = amp
        return v

    def to_fock_array(self, v, captured_norm=None, truncation_loss=0.0):
        amps = {idx: v[i] for i, idx in enumerate(self.indices) if v[i] != 0}
        captured = float(np.vdot(v, v).real) if captured_norm is None else captured_norm
        return FockArray(self.modes, self.cutoff, amps, captured, truncation_loss)


def gate_generator(basis, gate):
    """Anti-Hermitian generator G with U = exp(G) for a primitive gate."""
    from scipy.linalg import logm
    from scipy.sparse import csr_matrix

    validate_gate(gate, basis.modes)
    if isinstance(gate, Displace):
        G = csr_matrix((basis.dim, basis.dim), dtype=complex)
        for k in range(basis.modes):
            b = gate.beta[k]
            if b != 0:
                G = G + b * basis.creation(k) - np.conj(b) * basis.annihilation(k)
        return G
    if isinstance(gate, Squeeze):
        ad = basis.creation(gate.mode)
        a = basis.annihilation(gate.mode)
        return 0.5 * (gate.xi * (ad @ ad) - np.conj(gate.xi) * (a @ a))
    if isinstance(gate, Phase):
        ad = basis.creation(gate.mode)
        a = basis.annihilation(gate.mode)
        return 1j * gate.phi * (ad @ a)
    if isinstance(gate, Shear):
        ad = basis.creation(gate.mode)
        a = basis.annihilation(gate.mode)
        q = (a + ad) / np.sqrt(2.0)
        return 1j * gate.s * (q @ q)
    if isinstance(gate, Passive):
        # exp(iH) with sum_jk H_jk ad_j a_k inducing ad_k -> sum_j u_kj ad_j
        H = -1j * logm(gate.U.T)
        G = csr_matrix((basis.dim, basis.dim), dtype=complex)
        for j in range(basis.modes):
            for k in range(basis.modes):
                if abs(H[j, k]) > 1e-15:
                    G = G + 1j * H[j, k] * (basis.creation(j) @ basis.annihilation(k))
        return G
    raise ValueError(f"no generator for gate {gate!r}")


def apply_gate_vector(basis, v, gate):
    from scipy.sparse.linalg import expm_multiply

    if isinstance(gate, Create):
        return basis.creation(gate.mode) @ v
    G = gate_generator(basis, gate)
    return expm_multiply(G, v)


def fock_oracle_apply(arr, gate, cutoff=None, loss_tol=1e-6):
    """Apply a primitive gate (or a creation operator) to a FockArray.

    For unitary gates the norm loss through the truncation boundary is
    tracked; losses above ``loss_tol`` are reported on the warning channel.
    """
    cutoff = arr.cutoff if cutoff is None else int(cutoff)
    basis = FockBasis(arr.modes, cutoff)
    v0 = basis.vector(arr)
    v1 = apply_gate_vector(basis, v0, gate)
    n0 = float(np.vdot(v0, v0).real)
    n1 = float(np.vdot(v1, v1).real)
    loss = arr.truncation_loss
    if not isinstance(gate, Create) and n0 > 0:
        step_loss = max(0.0, 1.0 - n1 / n0)
        loss = loss + step_loss
        if step_loss > loss_tol:
            warnings.warn(
                f"Fock oracle lost {step_loss:.3e} of the norm applying {type(gate).__name__}",
                stacklevel=2,
            )
    return basis.to_fock_array(v1, truncation_loss=loss)


def state_vector_overlap(u, v):
    """Normalized squared overlap of two coefficient vectors."""
    nu = np.vdot(u, u).real
    nv = np.vdot(v, v).real
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(np.vdot(u, v)) ** 2 / (nu * nv))


def reduced_purity(arr, part_modes):
    """Purity of the reduced state on ``part_modes`` from a pure FockArray.

    Computed from the singular values of the amplitude matrix over the
    bipartition, so it never forms the density matrix explicitly.
    """
    part = sorted(part_modes)
    rest = [k for k in range(arr.modes) if k not in part]
    rows, cols = {}, {}
    entries = {}
    for idx, amp in arr.amplitudes.items():
        ri = tuple(idx[k] for k in part)
        ci = tuple(idx[k] for k in rest)
        rows.setdefault(ri, len(rows))
        cols.setdefault(ci, len(cols))
        entries[(rows[ri], cols[ci])] = amp
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    for (i, j), amp in entries.items():
        M[i, j] = amp
    s = np.linalg.svd(M, compute_uv=False)
    tot = float(np.sum(s**2))
    if tot == 0:
        raise ValueError("zero state has no reduced purity")
    return float(np.sum(s**4) / tot**2)
