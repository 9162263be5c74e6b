"""Command-line interface.

Subcommands: run, sample, prob, rank, schmidt, decompose, cm-trace, evolve,
table3. table3 runs each non-adaptive quadrant as one circuit document, by a
library call and by the truncated Fock oracle; ``hqcsim table3 --help`` names
each quadrant's input, measurement and routes. Output is deterministic for a
fixed seed (the HQC_SEED environment variable supplies the default); numeric
values are printed with 17 significant digits. ``--shots``, ``--cutoff`` (photons
per measured mode) and ``--format`` are read by run and sample only; the other
subcommands reject them. Exit codes: 0 success (``--help`` included), 1
validation error (``error: ...`` on stderr), usage errors included, 2
numeric-tolerance failure (table3). schmidt's ``coefficients`` are the
singular values of P's monomial coefficients over the partition, not the
state's Schmidt coefficients, which also weigh each monomial by its norm
(sqrt(n!) with no Gaussian part); its rank and ``separable`` verdict are right.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import calogero as cm
from . import circuits as circ
from . import dynamics as dy
from . import io as hio
from . import multimode as mm
from . import sampling as sp
from . import states as st
from .gates import Displace, Passive, Squeeze

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2


class ToleranceFailure(RuntimeError):
    pass


def _default_seed():
    env = os.environ.get("HQC_SEED")
    return int(env) if env else 0


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(doc):
    # json writes each float as its shortest round-trip repr: the same value
    # a 17-significant-digit form gives
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _load_circuit(path):
    with open(path) as fh:
        return circ.parse_circuit(fh.read())


def _run_and_write(spec, args, final_summary=False):
    for flag, value in (("--shots", args.shots), ("--cutoff", args.cutoff)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative, got {value}")
    cfg = sp.SamplerConfig(seed=args.seed, shots=args.shots, cutoff=args.cutoff)
    result = circ.run_circuit(spec, cfg, final_summary=final_summary)
    if args.format == "csv":
        _write(result.outcomes_csv(), args.out)
    else:
        _write(_json_dump(result.to_dict()), args.out)
    return EXIT_OK


def cmd_run(args):
    return _run_and_write(_load_circuit(args.circuit), args, args.final_summary)


def cmd_sample(args):
    # one measurement of the stored state, run as a circuit
    modes = hio.load_state(args.state).modes
    measured = [int(v) for v in args.modes.split(",")] if args.modes else range(modes)
    spec = circ.measurement_circuit(
        modes, args.kind, measured, prep={"kind": "state_file", "path": args.state}
    )
    return _run_and_write(spec, args)


def cmd_prob(args):
    # exact |<n|psi>|^2 of the state before the first measurement
    state = st.normalized(circ.final_state(_load_circuit(args.circuit)))
    outcome = [int(v) for v in args.outcome.split(",")]
    doc = {"outcome": outcome, "probability": abs(sp.fock_amplitude(state, outcome)) ** 2}
    _write(_json_dump(doc), args.out)
    return EXIT_OK


def cmd_rank(args):
    state = hio.load_state(args.state)
    doc = {
        "modes": state.modes,
        "stellar_rank": st.stellar_rank(state),
        "norm_squared": st.norm_squared(state),
    }
    _write(_json_dump(doc), args.out)
    return EXIT_OK


def _parse_partition(text):
    sides = text.split("|")
    if len(sides) != 2:
        raise ValueError(f"--partition takes the form I|J, e.g. 0,1|2, not {text!r}")
    return tuple(tuple(int(v) for v in side.split(",") if v != "") for side in sides)


def cmd_schmidt(args):
    state = hio.load_state(args.state)
    part = _parse_partition(args.partition)
    form = mm.schmidt_form(state, part)
    doc = {
        "partition": [list(form.partition[0]), list(form.partition[1])],
        "schmidt_rank": form.rank,
        "coefficients": [float(c) for c in form.coefficients],
        "cross_terms": [
            {"i": i, "j": j, "re": v.real, "im": v.imag}
            for (i, j), v in sorted(form.cross_terms.items())
        ],
        "separable": bool(form.separable),
    }
    _write(_json_dump(doc), args.out)
    return EXIT_OK


def cmd_decompose(args):
    state = hio.load_state(args.state)
    poly, spec = mm.decompose_normal(state)
    gates = []
    for gate in spec.gate_list:
        if isinstance(gate, Passive):
            gates.append(
                {
                    "type": "passive",
                    "matrix": [
                        [[gate.U[i, j].real, gate.U[i, j].imag] for j in range(state.modes)]
                        for i in range(state.modes)
                    ],
                }
            )
        elif isinstance(gate, Displace):
            gates += [{"type": "displace", "mode": k, "amount": [b.real, b.imag]}
                      for k, b in enumerate(gate.beta)]
        elif isinstance(gate, Squeeze):
            gates.append(
                {"type": "squeeze", "mode": gate.mode, "xi": [gate.xi.real, gate.xi.imag]}
            )
        else:
            raise RuntimeError(f"normal form holds an unexpected gate {gate!r}")
    doc = {
        "poly": [
            {"index": list(i), "re": c.real, "im": c.imag}
            for i, c in sorted(poly.coeffs.items())
        ],
        "gaussian_program": gates,
    }
    _write(_json_dump(doc), args.out)
    return EXIT_OK


def cmd_cm_trace(args):
    with open(args.system) as fh:
        doc = json.load(fh)
    try:
        q0, p0 = ([complex(re, im) for re, im in doc[key]] for key in ("q0", "p0"))
        g, omega = (complex(*v) if isinstance(v, list) else complex(v)
                    for v in (doc["g"], doc.get("omega", 0)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise circ._malformed(f"system file {args.system}", exc) from exc
    system = cm.CMSystem.make(q0, p0, g, omega)
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    times = np.linspace(args.t0, args.t1, args.steps)
    path = cm.cm_solve_path(system, times)
    _write(hio.cm_trajectory_csv(times, path), args.out)
    return EXIT_OK


# gate letter -> Hamiltonian of the drive (re, im); both routes evolve it
_EVOLVE_HAMILTONIANS = {
    "D": dy.GaussianHamiltonian1M.displacement,
    "R": lambda d: dy.GaussianHamiltonian1M.phase_shift(d.real),
    "S": dy.GaussianHamiltonian1M.squeezing,
    "P": lambda d: dy.GaussianHamiltonian1M.shearing(d.real),
}


def cmd_evolve(args):
    state = hio.load_state(args.state)
    if state.modes != 1:
        raise circ.CircuitError("evolve acts on single-mode states")
    ham = _EVOLVE_HAMILTONIANS[args.gate](complex(args.re, args.im))
    if args.trajectory:
        if args.steps < 2:
            raise ValueError(f"--steps must be at least 2 for a trajectory, got {args.steps}")
        if args.route == "ode":
            traj = dy.ode_evolve(state, ham, args.t, steps=args.steps - 1)
        else:
            traj = dy.closed_form_trajectory(state, ham, np.linspace(0.0, args.t, args.steps))
        _write(hio.trajectory_csv(traj), args.out)
        return EXIT_OK
    out = dy.evolve(state, ham, args.t)
    _write(_json_dump(hio.state_to_dict(out)), args.out)
    return EXIT_OK


def cmd_table3(args):
    rows = (
        [args.architecture] if args.architecture else list(circ.TABLE3_ARCHITECTURES)
    )
    reports = [
        circ.table3_demo(row, m=args.modes, photons=args.photons, seed=args.seed)
        for row in rows
    ]
    worst = max(r["max_abs_diff"] for r in reports)
    doc = {"rows": reports, "worst_abs_diff": worst}
    _write(_json_dump(doc), args.out)
    if worst > 1e-10:
        raise ToleranceFailure(f"dual-route disagreement {worst:.3e} above 1e-10")
    return EXIT_OK


# flags that only run and sample read, and their defaults
_SHOT_FLAGS = {"shots": 1000, "cutoff": 30, "format": "json"}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a validation error (exit 1), not by argparse's exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_common(parser):
    # Every parser registers the flags with SUPPRESS defaults: they work before
    # and after the subcommand, and ``main`` sees which were given.
    s = argparse.SUPPRESS
    parser.add_argument("--seed", type=int, default=s, help="RNG seed (default HQC_SEED or 0)")
    parser.add_argument("--shots", type=int, default=s, help="shots (run, sample; default 1000)")
    parser.add_argument("--cutoff", type=int, default=s,
                        help="photons per measured mode (run, sample; default 30)")
    parser.add_argument("--out", default=s, help="output path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default=s,
                        help="output format (run, sample; default json)")


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser; built once, as parsing leaves it unchanged."""
    parser = _Parser(
        prog="hqcsim",
        description="Holomorphic-representation bosonic circuit simulator",
    )
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a circuit document")
    p.add_argument("circuit")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; "
                   "it no longer changes scheduling (shots run in one thread)")
    p.add_argument("--final-summary", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sample", help="sample measurements of a stored state")
    p.add_argument("state")
    p.add_argument("--kind", choices=["continuous", "discrete"], default="discrete")
    p.add_argument("--modes", default="", help="comma-separated mode list")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("prob", help="probability of a discrete outcome of a circuit")
    p.add_argument("circuit")
    p.add_argument("--outcome", required=True, help="comma-separated photon counts")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("rank", help="stellar rank of a stored state")
    p.add_argument("state")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("schmidt", help="Schmidt/separability report",
                       description="Schmidt rank and separability over a partition. The "
                       "coefficients are the singular values of P's monomial coefficients, "
                       "not the Schmidt coefficients of the state; the rank and the "
                       "separable verdict are right.")
    p.add_argument("state")
    p.add_argument("--partition", required=True, help="I|J, e.g. 0,1|2")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("decompose", help="normal form P, U S D program")
    p.add_argument("state")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cm-trace", help="Calogero-Moser trajectory CSV")
    p.add_argument("system", help="JSON with q0, p0, g, omega")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=201)
    p.set_defaults(func=cmd_cm_trace)

    p = sub.add_parser("evolve", help="single-mode Gaussian gate evolution")
    p.add_argument("state")
    p.add_argument("--gate", choices=["D", "R", "S", "P"], required=True)
    p.add_argument("--re", type=float, default=0.0, help="drive real part")
    p.add_argument("--im", type=float, default=0.0, help="drive imag part")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--trajectory", action="store_true")
    p.add_argument("--route", choices=["closed", "ode"], default="closed")
    p.add_argument("--steps", type=int, default=201)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("table3", help="architecture dual-route checks",
                       description=circ.table3_demo.__doc__,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--architecture", choices=list(circ.TABLE3_ARCHITECTURES))
    p.add_argument("--modes", type=int, default=3, help="2 to 5")
    p.add_argument("--photons", type=int, default=2, help="0 to min(modes, 3)")
    p.set_defaults(func=cmd_table3)

    for p in sub.choices.values():
        _add_common(p)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        given = [f"--{flag}" for flag in _SHOT_FLAGS if flag in vars(args)]
        if given and args.func not in (cmd_run, cmd_sample):
            raise ValueError(f"{args.command} does not read {', '.join(given)}")
        for flag, default in {**_SHOT_FLAGS, "seed": _default_seed(), "out": None}.items():
            vars(args).setdefault(flag, default)
        return args.func(args)
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
