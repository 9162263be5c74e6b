"""Circuit format and adaptive execution engine.

A circuit document (schema "hqc-circuit/1") declares a mode count, an input
preparation, and a time-ordered program of gate and measurement entries. Gate
parameters may be affine expressions over the outcomes of earlier
measurements; continuous outcomes enter as complex values, discrete outcomes
as integers. Execution is shot-by-shot in one thread; shot i draws from its
own counter-based substream, so its outcomes are bit-reproducible for a fixed
(circuit, seed) and do not depend on how many shots the run makes.

The shot engine compiles the program once, before the first shot: each
position's active modes follow from the measurements before it, and every
constant gate is instantiated then. Between measurements, each run of
single-mode gates (displace, squeeze, shear, phase) on a mode is fused into
one ``multimode.ModeRun`` and applied by one kernel call. A stretch of
constant gates on m active modes is one Gaussian unitary: if its fused gates
hold two or more passive gates, it is compiled to its Bloch-Messiah form, a
passive gate, one ModeRun per mode and a passive gate (``multimode._compact``),
when that is cheaper. The compiled stretch gives the fused gates' state up to
a global phase, which no outcome (|amplitude|^2) or summary (rank, norm)
reads. A stretch with an adaptive gate is fused anew per shot; ``final_state``
applies the fused gates, phase included. A measurement draws its modes one at
a time, each from a per-mode law of ``sampling`` (``_FockLaw`` or
``_RejectionPlan``), kept for reuse while a shot's outcomes are all discrete.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
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
    _FockLaw,
    _RejectionPlan,
    boson_sampling_prob,
    fock_amplitude,
    shot_rng,
)
from .states import (
    StellarState,
    _shell_indices,
    from_fock_superposition,
    husimi_density,
    norm_squared,
    normalized,
    sqrt_factorial,
    stellar_rank,
    to_fock_array,
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


@dataclass(frozen=True)
class GateDecl:
    kind: str
    modes: tuple
    params: tuple
    matrix: np.ndarray = None

    def __post_init__(self):
        if self.kind == "passive":  # checked unitary here, once per matrix, and kept read-only
            U = np.asarray(self.matrix, dtype=complex)
            object.__setattr__(self, "matrix", _checked_unitary(U.tobytes(), U.shape))

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
    """The declaration of a gate entry; a missing or malformed field raises
    CircuitError naming the entry and the field."""
    try:
        kind = node.get("type")
        if kind == "passive":
            U = np.array(
                [[complex(re, im) for re, im in row] for row in node["matrix"]],
                dtype=complex,
            )
            if U.shape != (modes, modes):
                raise CircuitError("passive matrix shape must match the mode count")
            return GateDecl("passive", tuple(range(modes)), (), U)
        if kind == "beamsplitter":
            i, j = (int(k) for k in node["modes"])
            _check_mode(i, modes)
            _check_mode(j, modes)
            if i == j:
                raise CircuitError("beamsplitter needs two distinct modes")
            return _beamsplitter(modes, i, j)
        if kind in ("displace", "squeeze", "shear", "phase"):
            mode = int(node["mode"])
            _check_mode(mode, modes)
            key = {"displace": "amount", "squeeze": "xi", "shear": "s", "phase": "phi"}[kind]
            param = _parse_param(node[key], kind)
            return GateDecl(kind, (mode,), (param,))
    except (KeyError, TypeError, AttributeError) as exc:
        raise _malformed(f"entry {node!r}", exc) from exc
    raise CircuitError(f"unknown gate type {kind!r}")


def _malformed(what, exc):
    """CircuitError for the KeyError, TypeError or AttributeError met reading ``what``."""
    field = f"missing field {exc}" if isinstance(exc, KeyError) else f"malformed field: {exc}"
    return CircuitError(f"{what}: {field}")


@functools.lru_cache(maxsize=64)
def _beamsplitter(modes, i, j):
    """The declaration of a balanced beam splitter on modes i and j of ``modes``."""
    U = np.eye(modes, dtype=complex)
    U[[i, i, j, j], [i, j, i, j]] = beamsplitter_matrix().ravel()
    return GateDecl("passive", tuple(range(modes)), (), U)


@functools.lru_cache(maxsize=64)
def _checked_unitary(data, shape):
    """``Passive.make``'s read-only matrix of complex ``data``, once per matrix."""
    return Passive.make(np.frombuffer(data, dtype=complex).reshape(shape)).U


def _check_mode(k, modes):
    if not 0 <= k < modes:
        raise CircuitError(f"mode index {k} out of range for {modes} modes")


def parse_circuit(text):
    """Validated CircuitSpec from a JSON document (round-trips via to_json)."""
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise CircuitError(f"a circuit document is a JSON object, not a {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise CircuitError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA}")
    try:
        modes = int(doc["modes"])
        prep = doc.get("prep", {"kind": "vacuum"})
        entries = list(doc["circuit"])
    except (KeyError, TypeError) as exc:
        raise _malformed("circuit document", exc) from exc
    if modes < 1:
        raise CircuitError("modes must be positive")
    program, bound, measured, auto = [], {}, set(), 0
    for pos, node in enumerate(entries):
        if isinstance(node, dict) and node.get("measure"):
            kind = node["measure"]
            if kind not in ("continuous", "discrete"):
                raise CircuitError(f"unknown measurement kind {kind!r}")
            try:
                mlist = tuple(int(k) for k in node["modes"])
            except (KeyError, TypeError) as exc:
                raise _malformed(f"entry {node!r}", exc) from exc
            for k in mlist:
                _check_mode(k, modes)
                if k in measured:
                    raise CircuitError(f"mode {k} measured twice")
                measured.add(k)
            name = node.get("name") or f"m{auto}"
            auto += 1
            if not isinstance(name, str):
                raise CircuitError(f"entry {node!r}: a measurement name is a string")
            if name in bound:
                raise CircuitError(f"duplicate measurement name {name!r}")
            bound[name] = len(mlist)
            program.append(MeasureDecl(kind, mlist, name))
        else:
            gate = _parse_gate(node, modes)
            if measured.issuperset(gate.modes):
                raise CircuitError(f"circuit entry {pos}: {gate.kind} gate on mode(s) "
                                   f"{list(gate.modes)}, all measured before it")
            for param in gate.params:
                for ref, index, _ in param.terms:
                    if ref not in bound:
                        raise CircuitError(
                            f"gate references measurement {ref!r} that does not precede it")
                    if not 0 <= index < bound[ref]:
                        raise CircuitError(f"outcome index {index} out of range for {ref!r}")
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

def _constant_gate(node, modes):
    """The gate of a constant gate entry, on all ``modes``."""
    return _instantiate(_parse_gate(node, modes), {}, list(range(modes)))


def prepare_input(builder, modes, normalize=True):
    """Normalized input state from a preparation builder document; with
    ``normalize`` False, a state to be rescaled later (a photon-added base)."""
    finish = normalized if normalize else (lambda state: state)
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
        return finish(from_fock_superposition(amps, modes))
    if kind == "gaussian":
        spec = GaussianUnitarySpec.make(modes, [_constant_gate(n, modes) for n in builder["gates"]])
        return finish(apply_gaussian(StellarState.vacuum(modes), spec))
    if kind == "photon_added":
        state = prepare_input(builder.get("base", {"kind": "vacuum"}), modes, normalize=False)
        for op in builder["ops"]:
            if "create" in op:
                k = int(op["create"])
                _check_mode(k, modes)
                state = apply_gate(state, Create(k))
            else:
                state = apply_gate(state, _constant_gate(op["gate"], modes))
        return finish(state)
    if kind == "state":
        return finish(hio.state_from_dict(builder["state"]))
    if kind == "state_file":
        return finish(hio.load_state(builder["path"]))
    raise CircuitError(f"unknown preparation kind {kind!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _instantiate(decl, record, active):
    """Concrete gate on the ``active`` (not yet measured) modes, indexed by
    position among them, from a declaration and the shot's outcome record. A
    passive U acts on the active modes if it does not couple them to the rest;
    on all modes it is the declaration's, checked unitary when declared.
    """
    if decl.kind == "passive":
        U = decl.matrix
        if len(active) == U.shape[0]:
            return Passive(U)
        gone = [k for k in range(U.shape[0]) if k not in active]
        leak = max(np.abs(U[np.ix_(a, b)]).max() for a, b in ((active, gone), (gone, active)))
        if leak > 1e-12:
            raise CircuitError(
                f"passive gate couples the active modes {active} to the "
                f"measured modes {gone} (|U| entry {leak:.3g})"
            )
        return Passive.make(U[np.ix_(active, active)])
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


class _ShotEngine:
    """Executes shots of one circuit's program on a given normalized input
    state; every sampler draws through it. Building it compiles the program
    (see the module docstring) into steps: a compiled stretch of constant
    gates, a stretch with an adaptive gate (its declarations beside its
    constant gates already built, fused per shot) or a measurement, each with
    the active modes at its position. A passive gate that couples an active
    mode to a measured one fails here, not on the first shot.

    A measurement draws its modes one at a time, each from the law
    (``_FockLaw`` or ``_RejectionPlan``) of the state conditioned on the
    outcomes before it. While a shot's outcomes are all discrete, that state is
    a function of the discrete history, so ``laws`` keeps each law under
    (position, history, mode, earlier values of the measurement).
    """

    def __init__(self, spec, cfg, input_state, final_summary=False):
        self.spec, self.cfg, self.input_state = spec, cfg, input_state
        self.final_summary = final_summary
        self.laws = {}
        # heterodyne draws accepted and proposal points tried, over all shots
        self.accepted = self.tried = 0
        # steps (kind, payload, active modes): "gates" a compiled stretch, "fuse" an adaptive
        # stretch of gates and declarations, "measure" a position; None flushes the last stretch
        self.steps, active, stretch = [], list(range(spec.modes)), []
        for pos, item in enumerate(spec.program + (None,)):
            if isinstance(item, GateDecl):
                stretch.append(item if item.references() else _instantiate(item, {}, active))
                continue
            if any(isinstance(gate, GateDecl) for gate in stretch):
                self.steps.append(("fuse", tuple(stretch), active))
            elif stretch:
                self.steps.append(("gates", _compact(stretch, len(active)), active))
            stretch = []
            if item is not None:
                self.steps.append(("measure", pos, active))
                active = [k for k in active if k not in item.modes]

    def _measure(self, pos, active, state, rng, history):
        """The state after the measurement at ``pos``, its values and the
        discrete history after it (None once an outcome is continuous)."""
        decl = self.spec.program[pos]
        # after the program's last outcome only final_summary reads the state
        skip_last = not self.final_summary and pos == len(self.spec.program) - 1
        values = []
        for mode in decl.modes:
            key = None if history is None else (pos, history, mode, tuple(values))
            law = self.laws.get(key)
            if law is None:
                local = active.index(mode)
                law = (_FockLaw(state, local, self.cfg.cutoff) if decl.kind == "discrete"
                       else _RejectionPlan(state, local))
                if key is not None:
                    self.laws[key] = law
            value, mass, tries = law.draw(rng)
            if tries:  # a heterodyne draw: proposal points tried until one was accepted
                self.accepted += 1
                self.tried += tries
                if self.accepted >= 100 and self.accepted < MIN_ACCEPT_RATE * self.tried:
                    raise RuntimeError(
                        f"continuous sampler acceptance rate {self.accepted / self.tried:.2e} "
                        "below 1e-3; envelope too loose"
                    )
                history = None
            values.append(value)
            if skip_last and mode == decl.modes[-1]:
                break
            state = law.project(value, mass)
            active = [k for k in active if k != mode]
        if history is not None:
            history += (decl.name, *values)
        return state, tuple(values), history

    def run_shot(self, shot):
        rng = shot_rng(self.cfg.seed, shot)
        state, record, records, history = self.input_state, {}, [], ()
        for kind, payload, active in self.steps:
            if kind == "measure":
                state, values, history = self._measure(payload, active, state, rng, history)
                item = self.spec.program[payload]
                record[item.name] = values
                records.append((item.name, item.kind, item.modes, values))
                continue
            gates = payload if kind == "gates" else _fused(
                [_instantiate(g, record, active) if isinstance(g, GateDecl) else g
                 for g in payload]
            )
            for gate in gates:
                state = apply_gate(state, gate)
        if self.final_summary and not isinstance(state, complex):
            return records, (stellar_rank(state), norm_squared(state))
        return records, None


def run_circuit(spec, cfg, final_summary=False):
    """Execute the circuit for cfg.shots shots, in order, in one thread;
    deterministic given the seed, and shot i's row does not depend on
    cfg.shots."""
    t0 = time.perf_counter()
    engine = _ShotEngine(spec, cfg, prepare_input(spec.prep, spec.modes), final_summary)
    results = [engine.run_shot(shot) for shot in range(cfg.shots)]
    rows = tuple((shot, tuple(records)) for shot, (records, _) in enumerate(results))
    summaries = tuple((shot, *summary) for shot, (_, summary) in enumerate(results) if summary)
    return RunResult(cfg.seed, cfg.shots, rows, summaries, time.perf_counter() - t0)


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

# architecture -> (input, its gates' parameter, measurement, Fock cutoff of the
# oracle's vacuum; 0: the oracle starts from the input's Fock pattern)
_TABLE3 = {
    "coherent-cv": ("displace", "amount", "continuous", 18),
    "gaussian-dv": ("squeeze", "xi", "discrete", 24),
    "fock-cv": ("fock_pattern", None, "continuous", 0),
    "fock-dv": ("fock_pattern", None, "discrete", 0),
}
TABLE3_ARCHITECTURES = tuple(_TABLE3)


def _husimi_from_fock_array(arr, gamma):
    """Heterodyne density at outcome gamma from truncated amplitudes."""
    w = np.conj(np.asarray(gamma, dtype=complex))
    amp = 0j
    for idx, psi in arr.amplitudes.items():
        term = psi / sqrt_factorial(idx)
        for k, p in enumerate(idx):
            term = term * w[k] ** p
        amp += term
    return float(np.exp(-np.sum(np.abs(gamma) ** 2)) * abs(amp) ** 2 / np.pi ** len(gamma))


def table3_demo(architecture, m=3, photons=2, seed=1234):
    """Dual-route check of one quadrant of the non-adaptive classification.

    The quadrant is one circuit document ("circuit" in the report): an input,
    a seeded Haar passive gate U and a measurement of every mode. Efficient
    route: a library call on the document's normalized final state, or its U.
    Brute force: the same gates on the truncated Fock oracle (``fockspace``),
    read as a Husimi density or |amplitude|^2:

    coherent-cv  displaced vacuum, heterodyne       husimi_density       oracle from vacuum
    gaussian-dv  squeezed vacuum, photon counting   fock_amplitude       oracle from vacuum
    fock-cv      single photons, heterodyne         husimi_density       oracle from pattern
    fock-dv      single photons, photon counting    boson_sampling_prob  oracle from pattern

    A Fock input has one photon in each of its first ``photons`` modes, and
    counted patterns hold ``photons`` photons (0 to ``photons`` for a Gaussian
    input). Heterodyne outcomes are four seeded points.
    """
    if architecture not in _TABLE3 or not (2 <= m <= 5 and 0 <= photons <= min(m, 3)):
        raise ValueError(f"desk-scale demo: architecture in {TABLE3_ARCHITECTURES}, modes in "
                         f"2..5, photons in 0..{min(m, 3)}; got {architecture!r}, {m}, {photons}")
    inp, key, measure, cutoff = _TABLE3[architecture]
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))  # Haar: R's diagonal phases moved into Q
    if cutoff:  # one gate a mode on the vacuum, of size 0.175 to 0.525 and a random phase
        values = 0.35 * rng.uniform(0.5, 1.5, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        nodes = [{"type": inp, "mode": k, key: [v.real, v.imag]} for k, v in enumerate(values)]
        prep = {"kind": "gaussian", "gates": nodes}
    else:
        prep = {"kind": inp, "pattern": [int(k < photons) for k in range(m)]}
    doc = {"schema": SCHEMA, "modes": m, "prep": prep, "circuit": [
        {"type": "passive", "matrix": [[[u.real, u.imag] for u in row] for row in U]},
        {"measure": measure, "modes": list(range(m)), "name": "out"}]}
    if measure == "continuous":
        outcomes = [0.5 * (rng.normal(size=m) + 1j * rng.normal(size=m)) for _ in range(4)]
    else:  # the first six patterns of each total, from all photons in mode 0
        totals = range(photons + 1) if cutoff else [photons]
        outcomes = [n for d in totals for n in _shell_indices(m, d)[::-1][:6]]

    t0 = time.perf_counter()
    spec = parse_circuit(doc)
    if architecture == "fock-dv":
        eff = [boson_sampling_prob(spec.gates[0].matrix, prep["pattern"], n) for n in outcomes]
    else:
        state = normalized(final_state(spec))
        read = (husimi_density if measure == "continuous"
                else lambda s, n: abs(fock_amplitude(s, n)) ** 2)
        eff = [read(state, x) for x in outcomes]
    t_eff = time.perf_counter() - t0

    t0 = time.perf_counter()
    gates = [_constant_gate(node, m) for node in prep.get("gates", ())]
    gates += [_instantiate(decl, {}, list(range(m))) for decl in spec.gates]
    start = prepare_input({"kind": "vacuum"} if cutoff else prep, m)
    arr = to_fock_array(start, cutoff or photons, warn_tail=False)
    for gate in gates:
        arr = fs.fock_oracle_apply(arr, gate, loss_tol=1.0)
    read = (_husimi_from_fock_array if measure == "continuous"
            else lambda a, n: abs(a.amplitude(n)) ** 2)
    brute = [float(read(arr, x)) for x in outcomes]
    t_brute = time.perf_counter() - t0

    return {"architecture": architecture, "modes": m, "photons": photons, "circuit": doc,
            "outcomes": [[[v.real, v.imag] for v in x] if measure == "continuous" else list(x)
                         for x in outcomes],
            "efficient": eff, "brute_force": brute,
            "max_abs_diff": max(abs(a - b) for a, b in zip(eff, brute)),
            "time_efficient_s": t_eff, "time_brute_s": t_brute}
