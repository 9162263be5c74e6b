"""Circuit format and adaptive execution engine.

A circuit document (schema "hqc-circuit/1") declares a mode count, an input
preparation, and a time-ordered program of gate and measurement entries. Gate
parameters may be affine expressions over the outcomes of earlier
measurements; continuous outcomes enter as complex values, discrete outcomes
as integers. Execution is shot-by-shot in one thread; shot i draws from its
own counter-based substream, so its outcomes are bit-reproducible for a fixed
(circuit, seed) and do not depend on how many shots the run makes.

Between measurements, each run of single-mode gates (displace, squeeze, shear,
phase) on a mode is fused into one ``multimode.ModeRun`` and applied by one
kernel call. A gate with constant parameters is instantiated once per run, not
once per shot. A stretch of constant gates on m active modes is one Gaussian
unitary: if its fused gates hold two or more passive gates, it is compiled
once per run to its Bloch-Messiah form, a passive gate, one ModeRun per mode
and a passive gate (``multimode._compact``), when that is cheaper. The
compiled stretch gives the fused gates' state, global phase included. A
stretch with an adaptive gate is fused anew for each shot, and
``final_state`` applies the fused gates.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import io as hio
from .gates import (
    Create,
    Displace,
    Passive,
    Phase,
    Shear,
    Squeeze,
    beamsplitter_matrix,
)
from .multimode import GaussianUnitarySpec, _compact, _fused, apply_gate, apply_gaussian
from .sampling import (
    MIN_ACCEPT_RATE,
    _RejectionPlan,
    _fock_projections,
    fock_amplitude,
    project_coherent,
    shot_rng,
)
from .states import (
    StellarState,
    _shell_indices,
    from_fock_superposition,
    norm_squared,
    normalized,
    stellar_rank,
)

SCHEMA = "hqc-circuit/1"


class CircuitError(ValueError):
    """Schema or validation failure in a circuit document."""


@dataclass(frozen=True)
class Affine:
    """base + sum coeff * outcome[name][index]; resolved per shot."""

    base: complex
    terms: tuple = ()

    def resolve(self, record):
        val = self.base
        for name, index, coeff in self.terms:
            if name not in record:
                raise CircuitError(f"adaptive reference to unmeasured '{name}'")
            val = val + coeff * record[name][index]
        return val

    @property
    def is_constant(self):
        return not self.terms


@dataclass(frozen=True)
class GateDecl:
    kind: str
    modes: tuple
    params: tuple
    matrix: np.ndarray = None

    def references(self):
        return {name for p in self.params for (name, _, _) in p.terms}


@dataclass(frozen=True)
class MeasureDecl:
    kind: str
    modes: tuple
    name: str


@dataclass(frozen=True)
class CircuitSpec:
    modes: int
    prep: dict
    program: tuple  # time-ordered GateDecl | MeasureDecl

    @property
    def gates(self):
        return tuple(g for g in self.program if isinstance(g, GateDecl))

    @property
    def measurements(self):
        return tuple(g for g in self.program if isinstance(g, MeasureDecl))


@dataclass(frozen=True)
class RunResult:
    """Per-shot outcome records plus optional final-state summaries."""

    seed: int
    shots: int
    rows: tuple  # (shot, ((name, kind, modes, values), ...))
    summaries: tuple = ()
    elapsed: float = 0.0

    def outcomes_csv(self):
        return hio.outcomes_csv(self.rows)

    def to_dict(self):
        doc = {
            "seed": self.seed,
            "shots": self.shots,
            "rows": [
                {
                    "shot": shot,
                    "records": [
                        {
                            "name": name,
                            "kind": kind,
                            "modes": list(modes),
                            "values": [
                                int(v) if kind == "discrete" else [v.real, v.imag]
                                for v in values
                            ],
                        }
                        for name, kind, modes, values in records
                    ],
                }
                for shot, records in self.rows
            ],
        }
        if self.summaries:
            doc["summaries"] = [
                {"shot": shot, "rank": rank, "norm": norm}
                for shot, rank, norm in self.summaries
            ]
        return doc


def _parse_param(node, what):
    if isinstance(node, (int, float)):
        return Affine(complex(node))
    if isinstance(node, list) and len(node) == 2:
        return Affine(complex(node[0], node[1]))
    if isinstance(node, dict):
        base = node.get("base", 0)
        base = complex(base) if isinstance(base, (int, float)) else complex(*base)
        terms = []
        for term in node.get("terms", []):
            coeff = term.get("coeff", 1)
            coeff = complex(coeff) if isinstance(coeff, (int, float)) else complex(*coeff)
            terms.append((str(term["ref"]), int(term.get("index", 0)), coeff))
        return Affine(base, tuple(terms))
    raise CircuitError(f"malformed parameter for {what}: {node!r}")


def _parse_gate(node, modes):
    kind = node.get("type")
    if kind == "passive":
        U = np.array(
            [[complex(re, im) for re, im in row] for row in node["matrix"]],
            dtype=complex,
        )
        if U.shape != (modes, modes):
            raise CircuitError("passive matrix shape must match the mode count")
        Passive.make(U)
        return GateDecl("passive", tuple(range(modes)), (), U)
    if kind == "beamsplitter":
        i, j = (int(k) for k in node["modes"])
        _check_mode(i, modes)
        _check_mode(j, modes)
        if i == j:
            raise CircuitError("beamsplitter needs two distinct modes")
        U = np.eye(modes, dtype=complex)
        H = beamsplitter_matrix()
        U[np.ix_([i, j], [i, j])] = H
        return GateDecl("passive", tuple(range(modes)), (), U)
    if kind in ("displace", "squeeze", "shear", "phase"):
        mode = int(node["mode"])
        _check_mode(mode, modes)
        key = {"displace": "amount", "squeeze": "xi", "shear": "s", "phase": "phi"}[kind]
        param = _parse_param(node[key], kind)
        return GateDecl(kind, (mode,), (param,))
    raise CircuitError(f"unknown gate type {kind!r}")


def _check_mode(k, modes):
    if not 0 <= k < modes:
        raise CircuitError(f"mode index {k} out of range for {modes} modes")


def parse_circuit(text):
    """Validated CircuitSpec from a JSON document (round-trips via to_json)."""
    doc = json.loads(text) if isinstance(text, str) else text
    if doc.get("schema") != SCHEMA:
        raise CircuitError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA}")
    try:
        modes = int(doc["modes"])
        prep = doc.get("prep", {"kind": "vacuum"})
        entries = doc["circuit"]
    except KeyError as exc:
        raise CircuitError(f"missing field {exc}") from exc
    if modes < 1:
        raise CircuitError("modes must be positive")
    program = []
    bound = {}
    measured = set()
    auto = 0
    for node in entries:
        if node.get("measure"):
            kind = node["measure"]
            if kind not in ("continuous", "discrete"):
                raise CircuitError(f"unknown measurement kind {kind!r}")
            mlist = tuple(int(k) for k in node["modes"])
            for k in mlist:
                _check_mode(k, modes)
                if k in measured:
                    raise CircuitError(f"mode {k} measured twice")
                measured.add(k)
            name = node.get("name") or f"m{auto}"
            auto += 1
            if name in bound:
                raise CircuitError(f"duplicate measurement name {name!r}")
            bound[name] = len(mlist)
            program.append(MeasureDecl(kind, mlist, name))
        else:
            gate = _parse_gate(node, modes)
            for param in gate.params:
                for ref, index, _ in param.terms:
                    if ref not in bound:
                        raise CircuitError(
                            f"gate references measurement {ref!r} that does not "
                            "precede it"
                        )
                    if not 0 <= index < bound[ref]:
                        raise CircuitError(
                            f"outcome index {index} out of range for {ref!r}"
                        )
            program.append(gate)
    return CircuitSpec(modes, prep, tuple(program))


def measurement_circuit(modes, kind, measured, prep=None):
    """Validated circuit of one ``kind`` measurement, named m0, of the
    ``measured`` modes of a ``modes``-mode input (prepared by ``prep``)."""
    doc = {
        "schema": SCHEMA,
        "modes": modes,
        "circuit": [{"measure": kind, "modes": list(measured), "name": "m0"}],
    }
    if prep is not None:
        doc["prep"] = prep
    return parse_circuit(doc)


# ---------------------------------------------------------------------------
# input preparation
# ---------------------------------------------------------------------------

def _gaussian_spec_from_decls(decl_nodes, modes):
    gates = []
    for node in decl_nodes:
        decl = _parse_gate(node, modes)
        gates.append(_instantiate(decl, {}, list(range(modes))))
    return GaussianUnitarySpec.make(modes, gates)


def prepare_input(builder, modes):
    """Normalized input state from a preparation builder document."""
    kind = builder.get("kind", "vacuum")
    if kind == "vacuum":
        return StellarState.vacuum(modes)
    if kind == "fock_pattern":
        pattern = tuple(int(v) for v in builder["pattern"])
        if len(pattern) != modes:
            raise CircuitError("pattern length must equal the mode count")
        return from_fock_superposition({pattern: 1.0}, modes)
    if kind == "fock":
        amps = {
            tuple(int(v) for v in entry["index"]): complex(entry["re"], entry["im"])
            for entry in builder["amplitudes"]
        }
        return normalized(from_fock_superposition(amps, modes))
    if kind == "gaussian":
        spec = _gaussian_spec_from_decls(builder["gates"], modes)
        return normalized(apply_gaussian(StellarState.vacuum(modes), spec))
    if kind == "photon_added":
        state = prepare_input(builder.get("base", {"kind": "vacuum"}), modes)
        for op in builder["ops"]:
            if "create" in op:
                k = int(op["create"])
                _check_mode(k, modes)
                state = apply_gate(state, Create(k))
            else:
                decl = _parse_gate(op["gate"], modes)
                state = apply_gate(state, _instantiate(decl, {}, list(range(modes))))
        return normalized(state)
    if kind == "state":
        return normalized(hio.state_from_dict(builder["state"]))
    if kind == "state_file":
        return normalized(hio.load_state(builder["path"]))
    raise CircuitError(f"unknown preparation kind {kind!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _instantiate(decl, record, active):
    """Concrete gate on the ``active`` (not yet measured) modes, indexed by
    position among them, from a declaration and the shot's outcome record. A
    passive U acts on the active modes if it does not couple them to the rest.
    """
    if decl.kind == "passive":
        U = decl.matrix
        if len(active) < U.shape[0]:
            gone = [k for k in range(U.shape[0]) if k not in active]
            leak = max(np.abs(U[np.ix_(a, b)]).max() for a, b in ((active, gone), (gone, active)))
            if leak > 1e-12:
                raise CircuitError(
                    f"passive gate couples the active modes {active} to the "
                    f"measured modes {gone} (|U| entry {leak:.3g})"
                )
            U = U[np.ix_(active, active)]
        return Passive.make(U)
    value = decl.params[0].resolve(record)
    local = active.index(decl.modes[0])
    if decl.kind == "displace":
        return Displace.single(local, value, len(active))
    if decl.kind == "squeeze":
        return Squeeze(local, complex(value))
    if decl.kind in ("shear", "phase"):
        if abs(value.imag) > 1e-12 * (1 + abs(value.real)):
            raise CircuitError(f"{decl.kind} parameter must be real, got {value!r}")
        return Shear(local, value.real) if decl.kind == "shear" else Phase(local, value.real)
    raise CircuitError(f"cannot instantiate {decl.kind!r}")


def _normalized_by(proj, mass):
    """``proj`` scaled to unit norm, given its norm^2 ``mass``; amplitudes pass."""
    if isinstance(proj, complex):
        return proj
    if mass <= 0:
        raise ValueError("cannot normalize a zero-norm state")
    return proj.scaled(-0.5 * math.log(mass))


class _ShotEngine:
    """Executes shots of one circuit's program on a given normalized input
    state; caches reusable per-position data. Every sampler draws through it:
    modes are measured one at a time, a photon count from the Fock
    projections of the mode and a heterodyne outcome by rejection sampling
    from a one-mode ``_RejectionPlan``."""

    def __init__(self, spec, cfg, input_state, final_summary=False):
        self.spec = spec
        self.cfg = cfg
        self.final_summary = final_summary
        self.input_state = input_state
        self.discrete_cache = {}
        self.plan_cache = {}
        # heterodyne draws accepted and proposal points tried, over all shots
        self.accepted = self.tried = 0
        # the program as measurement positions and, between them, stretches
        # (tuples) of gate positions
        self.steps = []
        for pos, item in enumerate(spec.program):
            if isinstance(item, MeasureDecl):
                self.steps.append(pos)
            elif self.steps and isinstance(self.steps[-1], tuple):
                self.steps[-1] += (pos,)
            else:
                self.steps.append((pos,))
        # a position's active modes do not depend on the shot, so constant
        # gates are instantiated, and stretches of them fused, once
        self.gate_cache = {}
        self.fused_cache = {}

    def _gate(self, pos, record, active):
        gate = self.gate_cache.get(pos)
        if gate is None:
            decl = self.spec.program[pos]
            gate = _instantiate(decl, record, active)
            if not decl.references():
                self.gate_cache[pos] = gate
        return gate

    def _stretch(self, positions, record, active):
        """The gates at ``positions``, instantiated for this shot and fused; a
        stretch of constant gates is compiled once (``_compact``)."""
        gates = self.fused_cache.get(positions)
        if gates is None:
            gates = [self._gate(pos, record, active) for pos in positions]
            if all(pos in self.gate_cache for pos in positions):
                gates = self.fused_cache[positions] = _compact(gates, len(active))
            else:
                gates = _fused(gates)
        return gates

    def _measure_discrete(self, state, active, decl, rng, cache_key):
        nmax = self.cfg.cutoff
        values = []
        for mode in decl.modes:
            local = active.index(mode)
            key = (cache_key, mode, tuple(values)) if cache_key else None
            dist = self.discrete_cache.get(key) if key else None
            if dist is None:
                # the fill stops at its first zero projection: the n after it
                # have mass 0 and no state
                states = _fock_projections(state, local, nmax)
                masses = [
                    abs(p) ** 2 if isinstance(p, complex)
                    else 0.0 if p.poly.is_zero() else norm_squared(p)
                    for p in states
                ] + [0.0] * (nmax + 1 - len(states))
                total = float(np.sum(masses))
                dist = (np.cumsum(masses), masses, states, total)
                if key:
                    self.discrete_cache[key] = dist
            cdf, masses, states, total = dist
            if total < 1.0 - 1e-6:
                raise RuntimeError(
                    f"discrete cutoff {nmax} captures only {total:.9f} "
                    "of the conditional distribution"
                )
            u = rng.random()
            n = min(int(np.searchsorted(cdf, u * total)), nmax)
            values.append(n)
            state = _normalized_by(states[min(n, len(states) - 1)], masses[n])
            active = [m for m in active if m != mode]
        return state, active, tuple(values)

    def _measure_continuous(self, state, active, decl, rng, cache_key, project_last):
        values = []
        for mode in decl.modes:
            local = active.index(mode)
            key = (cache_key, mode) if cache_key and not values else None
            plan = self.plan_cache.get(key) if key else None
            if plan is None:
                plan = _RejectionPlan(state, local)
                if key:
                    self.plan_cache[key] = plan
            # with modes left, the drawn density is the norm^2 of the projection
            y, mass, tries = plan.draw(rng)
            self.accepted += 1
            self.tried += tries
            if self.accepted >= 100 and self.accepted < MIN_ACCEPT_RATE * self.tried:
                raise RuntimeError(
                    f"continuous sampler acceptance rate {self.accepted / self.tried:.2e} "
                    "below 1e-3; envelope too loose"
                )
            w = complex(y[0], y[1])
            alpha = np.conj(w)
            values.append(alpha)
            if mode == decl.modes[-1] and not project_last:
                break
            state = _normalized_by(project_coherent(state, [local], [alpha]), mass)
            active = [m for m in active if m != mode]
        return state, active, tuple(values)

    def run_shot(self, shot):
        rng = shot_rng(self.cfg.seed, shot)
        state = self.input_state
        active = list(range(self.spec.modes))
        record = {}
        records = []
        # caches stay valid while the state at a program position is a pure
        # function of the discrete outcome history
        history = ()
        continuous_seen = False
        for pos in self.steps:
            if isinstance(pos, tuple):
                if isinstance(state, complex):
                    raise CircuitError("gate after all modes were measured")
                for gate in self._stretch(pos, record, active):
                    state = apply_gate(state, gate)
                continue
            item = self.spec.program[pos]
            cache_key = None if continuous_seen else (pos, history)
            if item.kind == "discrete":
                state, active, values = self._measure_discrete(
                    state, active, item, rng, cache_key
                )
                history = history + (item.name,) + values
            else:
                # after the program's last outcome only final_summary reads the state
                project_last = self.final_summary or pos < len(self.spec.program) - 1
                state, active, values = self._measure_continuous(
                    state, active, item, rng, cache_key, project_last
                )
                continuous_seen = True
            record[item.name] = values
            records.append((item.name, item.kind, item.modes, values))
        summary = None
        if self.final_summary and not isinstance(state, complex):
            summary = (stellar_rank(state), norm_squared(state))
        return records, summary


def run_circuit(spec, cfg, final_summary=False):
    """Execute the circuit for cfg.shots shots, in order, in one thread;
    deterministic given the seed, and shot i's row does not depend on
    cfg.shots."""
    t0 = time.perf_counter()
    engine = _ShotEngine(spec, cfg, prepare_input(spec.prep, spec.modes), final_summary)
    shots = range(cfg.shots)
    results = [engine.run_shot(shot) for shot in shots]
    rows = tuple((shot, tuple(res[0])) for shot, res in zip(shots, results))
    summaries = ()
    if final_summary:
        summaries = tuple(
            (shot, res[1][0], res[1][1]) for shot, res in zip(shots, results) if res[1]
        )
    elapsed = time.perf_counter() - t0
    return RunResult(cfg.seed, cfg.shots, rows, summaries, elapsed)


def final_state(spec):
    """State after the gates that precede the first measurement (for
    probabilities)."""
    state = prepare_input(spec.prep, spec.modes)
    active = list(range(spec.modes))
    gates = []
    for item in spec.program:
        if isinstance(item, MeasureDecl):
            break
        gates.append(_instantiate(item, {}, active))
    for gate in _fused(gates):
        state = apply_gate(state, gate)
    return state


# ---------------------------------------------------------------------------
# architecture demonstrations
# ---------------------------------------------------------------------------

TABLE3_ARCHITECTURES = ("coherent-cv", "gaussian-dv", "fock-cv", "fock-dv")


def _husimi_from_fock_array(arr, gamma):
    """Heterodyne density at outcome gamma from truncated amplitudes."""
    from .states import sqrt_factorial

    w = np.conj(np.asarray(gamma, dtype=complex))
    amp = 0j
    for idx, psi in arr.amplitudes.items():
        term = psi / sqrt_factorial(idx)
        for k, p in enumerate(idx):
            if p:
                term = term * w[k] ** p
        amp += term
    m = len(gamma)
    return float(np.exp(-np.sum(np.abs(gamma) ** 2)) * abs(amp) ** 2 / np.pi**m)


def _oracle_state(m, cutoff, gate_list):
    from . import fockspace as fs
    from .states import to_fock_array

    arr = to_fock_array(StellarState.vacuum(m), cutoff, warn_tail=False)
    for gate in gate_list:
        arr = fs.fock_oracle_apply(arr, gate, loss_tol=1.0)
    return arr


def table3_demo(architecture, m=3, photons=2, seed=1234):
    """Dual-route check of one quadrant of the architecture classification.

    Computes reference outcome statistics by the architecture's efficient
    route (coherent products, direct stellar evaluation, permanents, or the
    closed Gaussian pipeline) and by brute force (truncated Fock oracle), and
    reports the disagreement and timings.
    """
    from scipy.stats import unitary_group

    from .sampling import boson_sampling_prob
    from .states import to_fock_array

    if m > 5 or photons > 3:
        raise ValueError("desk-scale demo: m <= 5 and photons <= 3")
    if m < 2:
        raise ValueError("at least two modes")
    rng = np.random.default_rng(seed)
    U = unitary_group.rvs(m, random_state=rng)
    report = {"architecture": architecture, "modes": m, "photons": photons}
    pattern = tuple(1 if k < photons else 0 for k in range(m))

    if architecture == "coherent-cv":
        alpha = 0.35 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        pts = [(rng.normal(size=m) + 1j * rng.normal(size=m)) * 0.5 for _ in range(4)]
        t0 = time.perf_counter()
        beta = U.T @ alpha
        eff = [float(np.exp(-np.sum(np.abs(g - beta) ** 2)) / np.pi**m) for g in pts]
        t_eff = time.perf_counter() - t0
        t0 = time.perf_counter()
        arr = _oracle_state(m, 18, [Displace.make(alpha), Passive.make(U)])
        brute = [_husimi_from_fock_array(arr, g) for g in pts]
        t_brute = time.perf_counter() - t0
        report.update(_finish(eff, brute, t_eff, t_brute))
        return report

    if architecture == "gaussian-dv":
        xi = 0.30 * rng.uniform(0.5, 1.0, size=m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        gates = [Squeeze(k, complex(xi[k])) for k in range(m)] + [Passive.make(U)]
        outcomes = [(0,) * m, pattern, tuple(2 if k == 0 else 0 for k in range(m))]
        t0 = time.perf_counter()
        state = normalized(
            apply_gaussian(StellarState.vacuum(m), GaussianUnitarySpec.make(m, gates))
        )
        eff = [abs(fock_amplitude(state, n)) ** 2 for n in outcomes]
        t_eff = time.perf_counter() - t0
        t0 = time.perf_counter()
        arr = _oracle_state(m, 24, gates)
        brute = [float(abs(arr.amplitude(n)) ** 2) for n in outcomes]
        t_brute = time.perf_counter() - t0
        report.update(_finish(eff, brute, t_eff, t_brute))
        return report

    if architecture == "fock-cv":
        pts = [(rng.normal(size=m) + 1j * rng.normal(size=m)) * 0.5 for _ in range(4)]
        t0 = time.perf_counter()
        eff = []
        for g in pts:
            w = U @ np.conj(g)
            amp = np.prod([w[j] for j in range(photons)])
            eff.append(float(np.exp(-np.sum(np.abs(g) ** 2)) * abs(amp) ** 2 / np.pi**m))
        t_eff = time.perf_counter() - t0
        t0 = time.perf_counter()
        arr0 = to_fock_array(from_fock_superposition({pattern: 1.0}, m), photons)
        from . import fockspace as fs

        arr = fs.fock_oracle_apply(arr0, Passive.make(U), loss_tol=1.0)
        brute = [_husimi_from_fock_array(arr, g) for g in pts]
        t_brute = time.perf_counter() - t0
        report.update(_finish(eff, brute, t_eff, t_brute))
        return report

    if architecture == "fock-dv":
        outs = _shell_indices(m, photons)[::-1][:6]  # from all photons in mode 0
        t0 = time.perf_counter()
        eff = [boson_sampling_prob(U, pattern, t) for t in outs]
        t_eff = time.perf_counter() - t0
        t0 = time.perf_counter()
        arr0 = to_fock_array(from_fock_superposition({pattern: 1.0}, m), photons)
        from . import fockspace as fs

        arr = fs.fock_oracle_apply(arr0, Passive.make(U), loss_tol=1.0)
        brute = [float(abs(arr.amplitude(t)) ** 2) for t in outs]
        t_brute = time.perf_counter() - t0
        report.update(_finish(eff, brute, t_eff, t_brute))
        return report

    raise ValueError(f"unknown architecture {architecture!r}; "
                     f"choose from {TABLE3_ARCHITECTURES}")


def _finish(eff, brute, t_eff, t_brute):
    diff = max(abs(a - b) for a, b in zip(eff, brute))
    return {
        "efficient": eff,
        "brute_force": brute,
        "max_abs_diff": diff,
        "time_efficient_s": t_eff,
        "time_brute_s": t_brute,
    }
