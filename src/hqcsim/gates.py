"""Primitive gate descriptions shared by the stellar and Fock-oracle backends."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class Passive:
    """Passive linear gate acting as F(z) -> F(Uz)."""

    U: np.ndarray

    @staticmethod
    def make(U):
        U = np.array(U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("passive gate requires a square matrix")
        dev = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
        U.setflags(write=False)
        return Passive(U)


@dataclass(frozen=True)
class Displace:
    """Displacement by a complex amplitude vector (one entry per mode)."""

    beta: np.ndarray

    @staticmethod
    def make(beta):
        beta = np.array(beta, dtype=complex).reshape(-1)
        beta.setflags(write=False)
        return Displace(beta)

    @staticmethod
    def single(mode, beta, modes):
        vec = np.zeros(modes, dtype=complex)
        vec[mode] = beta
        vec.setflags(write=False)
        return Displace(vec)


@dataclass(frozen=True)
class Squeeze:
    mode: int
    xi: complex


@dataclass(frozen=True)
class Shear:
    mode: int
    s: float


@dataclass(frozen=True)
class Phase:
    mode: int
    phi: float


@dataclass(frozen=True)
class Create:
    """Creation-operator application (photon addition); not a Gaussian gate."""

    mode: int


GAUSSIAN_PRIMITIVES = (Passive, Displace, Squeeze, Shear, Phase)


def beamsplitter_matrix():
    """Balanced beam splitter on two modes."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def validate_gate(gate, modes):
    if isinstance(gate, Passive):
        if gate.U.shape != (modes, modes):
            raise ValueError("passive matrix size does not match mode count")
    elif isinstance(gate, Displace):
        if gate.beta.size != modes:
            raise ValueError("displacement vector size does not match mode count")
    elif isinstance(gate, (Squeeze, Shear, Phase, Create)):
        if not 0 <= gate.mode < modes:
            raise ValueError(f"mode index {gate.mode} out of range for {modes} modes")
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return gate
