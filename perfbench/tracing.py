"""Span tracing around calls into hqcsim's layers, installed from outside.

Each traced function is replaced at every binding site: in its defining
module and in every hqcsim module that imported it by name (``circuits`` and
``sampling`` import ``norm_squared``, ``project_fock``, ``apply_gate`` and
others that way). ``_RejectionPlan`` methods are patched on the class, which
every importer shares. Spans (name, start, end, parent) stay in memory and are
written out once, when the run ends. Nothing is patched unless a ``Tracer`` is
installed, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("cli", "circuits", "multimode", "sampling", "states", "dynamics", "calogero")


def _norm_tags(args, kwargs):
    state = args[0] if args else kwargs["state"]
    tags = [f"m{min(state.modes, 3)}"]  # m3 counts every m >= 3
    if state.poly.is_zero():
        tags.append("zero_poly")
    return tags


_GATE_KINDS = {"Passive": "passive", "Displace": "displace", "Squeeze": "squeeze",
               "Shear": "shear", "Phase": "phase", "Create": "create"}


def _gate_tags(args, kwargs):
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    kind = _GATE_KINDS.get(type(gate).__name__)
    return [kind] if kind else []


def _target_points(args, kwargs):
    W = args[1] if len(args) > 1 else kwargs["W"]
    return len(W) if getattr(W, "ndim", 1) == 2 else 1


# (module, attribute, span name, tag function, points function)
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("circuits", "parse_circuit", "circuits.parse_circuit", None, None),
    ("circuits", "prepare_input", "circuits.prepare_input", None, None),
    ("circuits", "run_circuit", "circuits.run_circuit", None, None),
    ("multimode", "apply_gate", "multimode.apply_gate", _gate_tags, None),
    ("sampling", "project_coherent", "sampling.project_coherent", None, None),
    ("sampling", "project_fock", "sampling.project_fock", None, None),
    ("sampling", "_RejectionPlan.__init__", "sampling.plan_build", None, None),
    ("sampling", "_RejectionPlan.draw", "sampling.plan_draw", None, None),
    ("sampling", "_RejectionPlan.target", "sampling.target", None, _target_points),
    ("states", "norm_squared", "states.norm_squared", _norm_tags, None),
    ("states", "normalized", "states.normalized", None, None),
    ("states", "evaluate_grid", "states.evaluate_grid", None, None),
    ("states", "to_fock_array", "states.to_fock_array", None, None),
    ("dynamics", "closed_form_trajectory", "dynamics.closed_form_trajectory", None, None),
    ("dynamics", "ode_evolve", "dynamics.ode_evolve", None, None),
    ("calogero", "cm_solve_path", "calogero.cm_solve_path", None, None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
TAGS = {
    "states.norm_squared": ("m1", "m2", "m3", "zero_poly"),
    "multimode.apply_gate": tuple(_GATE_KINDS.values()),
}


class Tracer:
    """In-memory span recorder with per-name calls, busy and self time.

    ``busy_s`` counts only the outermost span of a name (``prepare_input``
    recurses), so it is wall time spent inside that function. ``self_s`` is a
    span's duration minus the time covered by its direct child spans.
    """

    def __init__(self):
        # one entry per span, in opening order
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.tag_calls = {f"{n}.{t}": 0 for n, ts in TAGS.items() for t in ts}
        self.tag_busy = dict.fromkeys(self.tag_calls, 0.0)
        # proposal points evaluated by the sampling target, in total and
        # inside draws (the rest are envelope probes of plan_build)
        self.points = {"sampling.target": 0, "sampling.target.in_draw": 0}
        self._stack = []  # indices of open spans
        self._child = []  # per span: time covered by direct children
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn, tagger=None, points=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, child, depth = self._stack, self._child, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            depth[name] += 1
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                ends[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_time[name] += dur - child[idx]
                if depth[name] == 0:
                    self.busy[name] += dur
                if parent >= 0:
                    child[parent] += dur
                if tagger is not None:
                    for tag in tagger(args, kwargs):
                        self.tag_calls[f"{name}.{tag}"] += 1
                        self.tag_busy[f"{name}.{tag}"] += dur
                if points is not None:
                    n = points(args, kwargs)
                    self.points[name] += n
                    if parent >= 0 and names[parent] == "sampling.plan_draw":
                        self.points[name + ".in_draw"] += n

        return traced

    def install(self):
        """Patch every binding site of every target in the hqcsim modules."""
        mods = {m: importlib.import_module(f"hqcsim.{m}") for m in MODULES}
        for modname, attr, name, tagger, points in TARGETS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original, tagger, points))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, tagger, points)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def layer_self_time(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, value in self.self_time.items():
            out[name.split(".")[0]] += value
        return out

    def write(self, path):
        """Write all spans as JSON: times in seconds from the first span."""
        ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        base = self.starts[0] if self.starts else 0.0
        doc = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [ids[n], round(t0 - base, 9), round(t1 - base, 9), p]
                for n, t0, t1, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
