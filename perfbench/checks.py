"""Output checks, each against a route independent of the one being timed.

Every check returns ``(ok, detail)``: ``detail`` is a one-line summary with
the measured value and its bound. Statistical bounds are set so that correct
code fails with probability below about 1e-8 on any seed:

* sample means are compared within 6 standard deviations;
* total-variation (TV) distances are compared with the bound
  E[TV] + sqrt(ln(1/delta) / (2N)), where E[TV] <= 1/2 sum_i sqrt(p_i(1-p_i)/N)
  and the second term is McDiarmid's inequality at delta = 1e-9 (one sample
  moves the empirical TV by at most 1/N).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

SIGMAS = 6.0
TV_DELTA = 1e-9
FOCK_CUTOFF = 40  # total-degree cutoff of the Fock-expansion references
CAPTURE_TOL = 1e-6


def rows_digest(doc):
    """sha256 of the outcome rows of a `run` JSON document."""
    text = json.dumps(doc["rows"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def files_digest(paths):
    """sha256 over the bytes of several output files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _values(docs, name):
    """Values of measurement ``name`` in every shot of every `run` output."""
    out = []
    for doc in docs:
        for row in doc["rows"]:
            values = [rec["values"] for rec in row["records"] if rec["name"] == name]
            if len(values) != 1:
                raise ValueError(f"shot {row['shot']} lacks measurement {name!r}")
            out.append(values[0])
    return out


def _tv_check(counts, probs, shots, captured):
    """Empirical TV distance against ``probs`` and its bound."""
    keys = set(counts) | set(probs)
    tv = 0.5 * sum(abs(counts.get(k, 0) / shots - probs.get(k, 0.0)) for k in keys)
    mean_bound = 0.5 * sum(math.sqrt(p * (1.0 - p) / shots) for p in probs.values() if p > 0)
    bound = mean_bound + math.sqrt(math.log(1.0 / TV_DELTA) / (2 * shots)) + (1.0 - captured)
    return tv <= bound, f"TV {tv:.4f} <= {bound:.4f} over {shots} shots"


def _load_spec(path):
    from hqcsim import circuits

    with open(path) as fh:
        return circuits.parse_circuit(fh.read())


def check_adaptive_cv(docs, circuit_path):
    """E|alpha_0|^2 = 1 + <n_0> (anti-normal order) from the input's Fock amplitudes."""
    from hqcsim import circuits, states

    spec = _load_spec(circuit_path)
    arr = states.to_fock_array(
        circuits.prepare_input(spec.prep, spec.modes), FOCK_CUTOFF, warn_tail=False
    )
    p = np.array([abs(a) ** 2 for a in arr.amplitudes.values()])
    n0 = np.array([idx[0] for idx in arr.amplitudes], dtype=float)
    captured = float(p.sum())
    mean_n = float(p @ n0) / captured
    var_n = float(p @ n0**2) / captured - mean_n**2
    # heterodyne |alpha|^2 has mean <n>+1 and variance Var(n) + <n> + 1
    expected = 1.0 + mean_n
    var = var_n + mean_n + 1.0
    samples = np.array([v[0][0] ** 2 + v[0][1] ** 2 for v in _values(docs, "h0")])
    diff = abs(float(samples.mean()) - expected)
    bound = SIGMAS * math.sqrt(var / samples.size) + (1.0 - captured) * (FOCK_CUTOFF + 1)
    ok = captured >= 1.0 - CAPTURE_TOL and diff <= bound
    return ok, (f"E|a0|^2 {samples.mean():.4f} vs 1+<n0> {expected:.4f}: "
                f"|diff| {diff:.4f} <= {bound:.4f} over {samples.size} shots")


def check_boson_dv(docs, U, pattern):
    """3 photons in every shot; pattern frequencies match the permanent route."""
    from hqcsim import sampling

    photons = sum(pattern)
    shots = _values(docs, "n")
    bad = sum(1 for ns in shots if sum(ns) != photons)
    counts = {}
    for ns in shots:
        counts[tuple(ns)] = counts.get(tuple(ns), 0) + 1
    outs = [t for t in itertools.product(range(photons + 1), repeat=len(pattern))
            if sum(t) == photons]
    probs = {t: sampling.boson_sampling_prob(U, pattern, t) for t in outs}
    total = sum(probs.values())
    ok, detail = _tv_check(counts, probs, len(shots), min(total, 1.0))
    ok = ok and bad == 0 and abs(total - 1.0) < 1e-9
    return ok, f"{bad} shots without {photons} photons; {detail}"


def check_gate_deep(docs, circuit_path):
    """Pattern frequencies match fock_probabilities of the final state, in TV
    and in the mean photon number of each mode (within 6 standard deviations)."""
    from hqcsim import circuits, sampling, states

    spec = _load_spec(circuit_path)
    final = states.normalized(circuits.final_state(spec))
    probs = sampling.fock_probabilities(final, FOCK_CUTOFF)
    captured = sum(probs.values())
    shots = _values(docs, "n")
    counts = {}
    for ns in shots:
        counts[tuple(ns)] = counts.get(tuple(ns), 0) + 1
    ok, detail = _tv_check(counts, probs, len(shots), captured)
    ok = ok and captured >= 1.0 - CAPTURE_TOL
    p = np.array(list(probs.values())) / captured
    ns = np.array(list(probs.keys()), dtype=float)
    mean, var = p @ ns, p @ ns**2 - (p @ ns) ** 2
    sample = np.array(shots, dtype=float).mean(axis=0)
    z = np.abs(sample - mean) / np.sqrt(var / len(shots))
    ok = ok and bool(np.all(z <= SIGMAS))
    return ok, (f"captured {captured:.9f}; {detail}; mean counts "
                f"{np.round(sample, 3).tolist()} vs {np.round(mean, 3).tolist()}, "
                f"max z {z.max():.2f} <= {SIGMAS:g}")


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def _complex_columns(header, row, prefix):
    return np.array([
        complex(row[header.index(f"re_{name}")], row[header.index(f"im_{name}")])
        for name in [h[3:] for h in header if h.startswith("re_" + prefix)]
    ])


def _multiset_distance(x, y):
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(x[:, None] - y[None, :])
    r, c = linear_sum_assignment(cost)
    return float(np.max(cost[r, c]))


ROUTE_TOL = 1e-6  # agreement floor, relative to the scale of the zeros
ODE_ERR_FACTOR = 4.0  # allowance in units of the step-doubling error estimate
SPECTRUM_TOL = 1e-4  # Lax-spectrum drift, relative; 6th-order momenta reach 1e-6


def _final_state_of(path):
    """Zeros and (a, b) in the last row of a trajectory CSV."""
    header, data = _read_csv(path)
    row = data[-1]
    ab = [complex(row[header.index(f"re_{k}")], row[header.index(f"im_{k}")])
          for k in ("a", "b")]
    return _complex_columns(header, row, "lambda"), np.array(ab)


def check_zero_flow(outputs, fine_out, system):
    """Closed-form S matches RK4 S at t; cm-trace conserves the Lax spectrum.

    RK4 at the workload's fixed step is off by up to 1e-2 when zeros pass
    close to each other, so the routes must agree within a few times the ode
    route's own error, estimated by step doubling (``fine_out`` holds the
    same integration at half the step), and never worse than ROUTE_TOL.
    """
    from hqcsim import calogero

    z_c, ab_c = _final_state_of(outputs["s_closed"])
    z_o, ab_o = _final_state_of(outputs["s_ode"])
    z_f, ab_f = _final_state_of(fine_out)
    scale = 1.0 + float(np.max(np.abs(z_c)))
    ode_err = max(_multiset_distance(z_o, z_f), float(np.max(np.abs(ab_o - ab_f)))) / scale
    route_err = max(_multiset_distance(z_c, z_o), float(np.max(np.abs(ab_c - ab_o)))) / scale
    route_bound = ROUTE_TOL + ODE_ERR_FACTOR * ode_err
    _, path = _read_csv(outputs["cm"])
    times = path[:, 0]
    q = path[:, 1::2] + 1j * path[:, 2::2]
    g = complex(*system["g"])
    omega = complex(*system["omega"])
    q0 = np.array([complex(*v) for v in system["q0"]])
    p0 = np.array([complex(*v) for v in system["p0"]])
    ref = calogero.conserved_spectrum(q0, p0, g, omega)
    dt = times[1] - times[0]
    spec_err = 0.0
    # momenta from 6th-order central differences of the traced positions
    for i in range(3, len(times) - 3, 10):
        p = (-q[i - 3] + 9 * q[i - 2] - 45 * q[i - 1]
             + 45 * q[i + 1] - 9 * q[i + 2] + q[i + 3]) / (60 * dt)
        spec = calogero.conserved_spectrum(q[i], p, g, omega)
        spec_err = max(spec_err, float(np.max(np.abs(spec - ref))))
    spec_err /= 1.0 + float(np.max(np.abs(ref)))
    ok = route_err <= route_bound and spec_err <= SPECTRUM_TOL
    return ok, (f"closed vs ode S: {route_err:.2e} <= {route_bound:.2e} (ode step "
                f"error {ode_err:.2e}); cm-trace spectrum drift {spec_err:.2e} "
                f"<= {SPECTRUM_TOL:.0e}")
