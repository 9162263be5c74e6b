"""File formats: stellar-state JSON, trajectory CSV, outcome CSV.

CSV prints 17 significant digits (``fmt``), JSON the shortest round-trip repr
of each float: both give the exact double. The bytes hold for one numpy build
on one CPU only: numpy's array and scalar complex products round differently.
"""

from __future__ import annotations

import json

import numpy as np

from .states import GaussPart, PolyPart, StellarState


def fmt(x):
    """17-significant-digit decimal form of a float."""
    return f"{float(x):.17g}"


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def state_to_dict(state):
    m = state.modes
    poly = [
        {"index": list(idx), "re": c.real, "im": c.imag}
        for idx, c in sorted(state.poly.coeffs.items())
    ]
    A = [_pair(state.gauss.A[i, j]) for i in range(m) for j in range(m)]
    B = [_pair(b) for b in state.gauss.B]
    return {
        "modes": m,
        "poly": poly,
        "gauss": {"A": A, "B": B, "C": _pair(state.gauss.C)},
    }


def state_from_dict(doc):
    try:
        m = int(doc["modes"])
        coeffs = {
            tuple(int(k) for k in entry["index"]): complex(entry["re"], entry["im"])
            for entry in doc["poly"]
        }
        g = doc["gauss"]
        A = np.array(
            [complex(re, im) for re, im in g["A"]], dtype=complex
        ).reshape(m, m)
        B = np.array([complex(re, im) for re, im in g["B"]], dtype=complex)
        C = complex(g["C"][0], g["C"][1])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed stellar-state document: {exc}") from exc
    return StellarState.make(m, PolyPart.make(coeffs, modes=m), GaussPart.make(A, B, C))


def save_state(state, path):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))


def _time_table_csv(header, times, columns):
    """CSV of the times and the Re/Im parts of ``columns`` (one complex row per time)."""
    table = np.empty((len(times), 1 + 2 * columns.shape[1]))
    table[:, 0] = times
    table[:, 1::2] = columns.real
    table[:, 2::2] = columns.imag
    row = ",".join(["%.17g"] * table.shape[1])
    rows = [row % tuple(values) for values in table.tolist()]
    return "\n".join([",".join(header), *rows]) + "\n"


def trajectory_csv(traj):
    """Columns t, Re/Im of each zero, then Re/Im of a, b, c."""
    header = ["t"]
    for k in range(traj.n_zeros):
        header += [f"re_lambda{k + 1}", f"im_lambda{k + 1}"]
    header += ["re_a", "im_a", "re_b", "im_b", "re_c", "im_c"]
    return _time_table_csv(header, traj.times, np.hstack((traj.zeros.T, traj.gauss_path)))


def cm_trajectory_csv(times, positions):
    """Columns t, Re/Im of each particle position."""
    header = ["t"]
    for k in range(positions.shape[0]):
        header += [f"re_q{k + 1}", f"im_q{k + 1}"]
    return _time_table_csv(header, times, positions.T)


def outcomes_csv(rows):
    """Outcome records: shot, name, mode, kind, re, im (integers carry im=0)."""
    lines = ["shot,name,mode,kind,re,im"]
    for shot, records in rows:
        for name, kind, modes, values in records:
            for mode, value in zip(modes, values):
                if kind == "discrete":
                    lines.append(f"{shot},{name},{mode},d,{int(value)},0")
                else:
                    z = complex(value)
                    lines.append(
                        f"{shot},{name},{mode},c,{fmt(z.real)},{fmt(z.imag)}"
                    )
    return "\n".join(lines) + "\n"
