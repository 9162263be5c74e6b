"""Workload inputs, generated from the workload seed with numpy alone.

Each builder writes the files the program reads (circuit documents in the
``hqc-circuit/1`` schema, stellar-state JSON, a Calogero-Moser system) into a
work directory; the returned ``Workload`` gives the CLI calls that exercise
them. The program receives only these files and a sampler seed drawn from the
workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Workload:
    name: str
    kind: str  # "circuit": repeated `hqcsim run`; "flow": a cycle of CLI calls
    work: Path  # directory of the generated inputs and of the outputs
    files: dict
    params: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)  # flow: argv lists of one cycle
    shots: int = 0  # shots per full `run` call (circuit workloads)
    sampler_seed: int = 0

    @property
    def unit(self):
        """What one unit of attempted work is."""
        return "shots" if self.kind == "circuit" else "calls"

    def run_argv(self, shots, call, out):
        """`hqcsim run` arguments for the run's call number ``call``.

        Each call has its own sampler seed, so the output checks can pool the
        outcomes of all calls; a repeated call reuses its seed.
        """
        return ["run", self.files["circuit"], "--shots", str(shots),
                "--seed", str(self.sampler_seed + call), "--workers", "1",
                "--format", "json", "--out", str(self.work / out)]


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _phase(rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def haar_unitary(rng, m):
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    Z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def adaptive_cv(rng, work):
    """2 modes: photon-added squeezed, beamsplit input; heterodyne feed-forward.

    The seed draws only phases. The two squeezers share one random phase
    (with a fixed offset): a common phase rotation commutes with the
    beamsplitter and leaves |A| alone, and |A| sets how many Fock shells each
    norm needs, so the cost per shot hardly depends on the seed.
    """
    common = _phase(rng)
    xi0 = 0.35 * common
    xi1 = 0.35j * common
    gain = 0.45 * _phase(rng)
    xi_base = 0.15 * _phase(rng)
    xi_gain = 0.03 * _phase(rng)
    doc = {
        "schema": "hqc-circuit/1",
        "modes": 2,
        "prep": {
            "kind": "photon_added",
            "base": {
                "kind": "gaussian",
                "gates": [
                    {"type": "squeeze", "mode": 0, "xi": _pair(xi0)},
                    {"type": "squeeze", "mode": 1, "xi": _pair(xi1)},
                    {"type": "beamsplitter", "modes": [0, 1]},
                ],
            },
            "ops": [{"create": 0}],
        },
        "circuit": [
            {"measure": "continuous", "modes": [0], "name": "h0"},
            {"type": "displace", "mode": 1, "amount": {
                "base": [0.0, 0.0],
                "terms": [{"ref": "h0", "index": 0, "coeff": _pair(gain)}]}},
            {"type": "squeeze", "mode": 1, "xi": {
                "base": _pair(xi_base),
                "terms": [{"ref": "h0", "index": 0, "coeff": _pair(xi_gain)}]}},
            {"measure": "continuous", "modes": [1], "name": "h1"},
        ],
    }
    return {"circuit": _write_json(work / "adaptive_cv.json", doc)}, {}


def boson_dv(rng, work):
    """4 modes: |1,1,1,0> through a Haar interferometer, photon counting."""
    U = haar_unitary(rng, 4)
    pattern = [1, 1, 1, 0]
    doc = {
        "schema": "hqc-circuit/1",
        "modes": 4,
        "prep": {"kind": "fock_pattern", "pattern": pattern},
        "circuit": [
            {"type": "passive",
             "matrix": [[_pair(U[i, j]) for j in range(4)] for i in range(4)]},
            {"measure": "discrete", "modes": [0, 1, 2, 3], "name": "n"},
        ],
    }
    files = {"circuit": _write_json(work / "boson_dv.json", doc)}
    return files, {"U": U, "pattern": tuple(pattern)}


def gate_deep(rng, work, layers=10):
    """2 modes: rank-3 photon-added input, 10 constant gate layers, counting.

    Gate strengths are fixed; the seed draws phases and shear signs.
    """
    entries = []
    for _ in range(layers):
        entries.append({"type": "beamsplitter", "modes": [0, 1]})
        for mode in (0, 1):
            entries += [
                {"type": "squeeze", "mode": mode,
                 "xi": _pair(0.05 * _phase(rng))},
                {"type": "shear", "mode": mode, "s": 0.03 * rng.choice([-1.0, 1.0])},
                {"type": "phase", "mode": mode, "phi": rng.uniform(0.0, 2 * np.pi)},
                {"type": "displace", "mode": mode,
                 "amount": _pair(0.1 * _phase(rng))},
            ]
    entries.append({"measure": "discrete", "modes": [0, 1], "name": "n"})
    doc = {
        "schema": "hqc-circuit/1",
        "modes": 2,
        "prep": {
            "kind": "photon_added",
            "base": {
                "kind": "gaussian",
                "gates": [{"type": "squeeze", "mode": 0,
                           "xi": _pair(0.15 * _phase(rng))}],
            },
            "ops": [{"create": 0}, {"create": 1}, {"create": 0}],
        },
        "circuit": entries,
    }
    return {"circuit": _write_json(work / "gate_deep.json", doc)}, {}


def _ring_zeros(rng, n):
    """n zeros near a ring of radius 1.2, pairwise separation above 0.6."""
    radius = 1.2
    angles = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.12, 0.12, n)
    radii = radius + rng.uniform(-0.08, 0.08, n)
    return radii * np.exp(1j * (angles + rng.uniform(0, 2 * np.pi)))


def _state_doc(zeros, a, b, c):
    """Stellar-state JSON of prod_k (z - zero_k) exp(-a z^2/2 + b z + c)."""
    poly = np.array([1.0 + 0j])
    for z0 in zeros:
        poly = np.convolve(poly, np.array([-complex(z0), 1.0]))
    return {
        "modes": 1,
        "poly": [{"index": [k], "re": c_k.real, "im": c_k.imag}
                 for k, c_k in enumerate(poly)],
        "gauss": {"A": [_pair(a)], "B": [_pair(b)], "C": _pair(c)},
    }


def zero_flow(rng, work, rank=6, steps=201):
    """Rank-6 single-mode state: S and P on the closed route, S on the ode
    route; plus cm-trace of a repulsive 6-particle system on a line."""
    zeros = _ring_zeros(rng, rank)
    state = _write_json(
        work / "zero_flow_state.json",
        _state_doc(zeros, 0.2 * _phase(rng), 0.3 * _phase(rng), 0.0),
    )
    xi = 0.4 * _phase(rng)
    shear = 0.75 * rng.choice([-1.0, 1.0])
    # real positions and coupling: the particles repel and never collide
    q0 = np.cumsum(rng.uniform(0.8, 1.4, rank))
    system = {
        "q0": [[float(q), 0.0] for q in q0 - q0.mean()],
        "p0": [[float(p), 0.0] for p in rng.normal(0.0, 0.5, rank)],
        "g": [float(rng.uniform(0.5, 1.5)), 0.0],
        "omega": [float(rng.uniform(0.3, 0.8)), 0.0],
    }
    system_path = _write_json(work / "zero_flow_cm.json", system)
    outputs = {tag: str(work / f"flow_{tag}.csv")
               for tag in ("s_closed", "p_closed", "s_ode", "cm")}
    traj = ["--t", "1.0", "--trajectory", "--steps", str(steps)]
    squeeze = ["--gate", "S", "--re", repr(float(xi.real)), "--im", repr(float(xi.imag))]
    calls = [
        ["evolve", state, *squeeze, *traj, "--route", "closed",
         "--out", outputs["s_closed"]],
        ["evolve", state, "--gate", "P", "--re", repr(float(shear)), *traj,
         "--route", "closed", "--out", outputs["p_closed"]],
        ["evolve", state, *squeeze, *traj, "--route", "ode", "--out", outputs["s_ode"]],
        ["cm-trace", system_path, "--t0", "0.0", "--t1", "2.0", "--steps", str(steps),
         "--out", outputs["cm"]],
    ]
    # the ode route again at half the step, for the check's error estimate
    fine_out = str(work / "flow_s_ode_fine.csv")
    fine = ["evolve", state, *squeeze, "--t", "1.0", "--trajectory",
            "--steps", str(2 * steps - 1), "--route", "ode", "--out", fine_out]
    files = {"state": state, "system": system_path}
    params = {"system": system, "outputs": outputs, "fine": fine, "fine_out": fine_out}
    return files, params, calls


# Shots per full `run` call. Short calls give a run more samples, which steadies
# its medians; boson_dv keeps 1000 shots so that the discrete-history cache
# amortises its 3 s first-shot fill, and gate_deep keeps enough shots that gate
# application, not the fill, dominates a call.
SHOTS = {"adaptive_cv": 50, "boson_dv": 1000, "gate_deep": 30}

NAMES = ("adaptive_cv", "boson_dv", "gate_deep", "zero_flow")


def build(name, seed, work):
    """Generate the inputs of workload ``name`` for ``seed`` into ``work``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    sampler_seed = int(rng.integers(0, 2**31 - 1))
    work = Path(work)
    if name == "zero_flow":
        files, params, calls = zero_flow(rng, work)
        return Workload(name, "flow", work, files, params, calls)
    files, params = {"adaptive_cv": adaptive_cv, "boson_dv": boson_dv,
                     "gate_deep": gate_deep}[name](rng, work)
    return Workload(name, "circuit", work, files, params,
                    shots=SHOTS[name], sampler_seed=sampler_seed)
