"""hqcsim benchmark: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload boson_dv --seed 1 --seconds 16 --trace 0

Run from the repository root (the program is imported from ``src/``). One
process and one client in a closed loop: each CLI call starts after the
previous one ends, with ``--workers 1``. Generated inputs live in
``.perfbench_work/`` and are removed at the end; a traced run leaves its spans
there as ``trace-<workload>-<seed>.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
reports the per-layer metrics: every call is made twice, untraced and then
traced, and the tracing overhead is the difference of their medians. A report
comes first; the last line of standard output is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks
import workloads
from tracing import SPAN_NAMES, TAGS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBES = 3  # fresh processes per run for setup_s
MIN_LOOPS = 5  # full calls (or flow cycles) made even past --seconds
MAX_LOOP_S = 100.0  # hard stop for a loop, whatever --seconds asks

# layer(s) each workload exists to stress, and the least self-time share of
# the traced run they should take
INTENT = {
    "adaptive_cv": (("sampling", "states"), 0.80),
    "boson_dv": (("states",), 0.60),
    "gate_deep": (("multimode",), 0.50),
    "zero_flow": (("dynamics", "calogero"), 0.50),
}

WARN_SOURCES = {
    "norm_ceiling": "norm_squared hit cutoff ceiling",
    "fock_truncation": "truncation",
}


class Tally:
    """Attempted and failed work units (shots or CLI calls), digests, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = []
        self.check_ok = True
        self.check_detail = ""

    def fail_check(self, why):
        self.check_ok = False
        self.check_detail += f" {why};"


class Loop:
    """Samples of one closed-loop measurement."""

    def __init__(self):
        self.rates = []  # work units per second: one per untraced full call or cycle
        self.traced_rates = []  # the same for traced calls
        self.firsts = []  # time to the first result
        self.traced_units = 0  # shots or calls made under the tracer
        self.docs = []  # outputs of the untraced full `run` calls


def _call(cli, argv, tracer=None):
    """Wall time and exit status of one in-process CLI call.

    The tracer, if any, is installed just around the call and outside the
    timed region, so traced and untraced calls can alternate.
    """
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # the benchmark keeps measuring; the failure is counted
            traceback.print_exc(file=sys.stderr)
            rc = -1
        return time.perf_counter() - t0, rc
    finally:
        if tracer is not None:
            tracer.uninstall()


def _loop_until(seconds, body):
    """Run ``body`` at least MIN_LOOPS times and until ``seconds`` have passed."""
    start = time.perf_counter()
    n = 0
    while n < MIN_LOOPS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        body()
        n += 1


def _read_run(path):
    with open(path) as fh:
        return json.load(fh)


def _out_path(argv):
    return argv[argv.index("--out") + 1]


def _passes(tracer):
    """Untraced pass, then a traced one when tracing: both see the same load."""
    return (None, tracer) if tracer is not None else (None,)


def circuit_loop(cli, wl, seconds, tally, tracer=None):
    """Full `run` calls for ``seconds``, each with the next sampler seed.

    Untraced, each is followed by a `run --shots 1` call with the same seed,
    so both metrics sample the same stretch of machine load, and its one row
    must equal shot 0 of the full call. Traced, each full call is repeated
    under the tracer and must give the same rows.
    """
    loop = Loop()
    calls = itertools.count()

    def body():
        call = next(calls)
        full = wl.run_argv(wl.shots, call, "run.json")
        doc = None
        for tr in _passes(tracer):
            dt, rc = _call(cli, full, tr)
            tally.attempted += wl.shots
            if tr is not None:
                loop.traced_units += wl.shots
            if rc != 0:
                tally.failed += wl.shots
                return
            out = _read_run(_out_path(full))
            if tr is None:
                doc = out
                loop.rates.append(wl.shots / dt)
                loop.docs.append(doc)
            else:
                loop.traced_rates.append(wl.shots / dt)
                if out["rows"] != doc["rows"]:
                    tally.fail_check("traced call gave other rows than untraced")
        if tracer is None:
            first = wl.run_argv(1, call, "first.json")
            dt, rc = _call(cli, first)
            tally.attempted += 1
            if rc != 0:
                tally.failed += 1
                return
            loop.firsts.append(dt)
            # shot 0 draws from the same substream whatever the shot count
            if _read_run(_out_path(first))["rows"][0] != doc["rows"][0]:
                tally.fail_check("`run --shots 1` row differs from shot 0 of the full run")

    _loop_until(seconds, body)
    if loop.docs:
        tally.digests.append(checks.rows_digest(loop.docs[0]))
    return loop


def flow_loop(cli, wl, seconds, tally, tracer=None):
    """Cycles of evolve/cm-trace calls for ``seconds``; each cycle's first
    call (closed-route S trajectory) gives the time to the first result."""
    outputs = wl.params["outputs"]
    loop = Loop()

    def body():
        for tr in _passes(tracer):
            total = 0.0
            ok = True
            for i, argv in enumerate(wl.calls):
                dt, rc = _call(cli, argv, tr)
                tally.attempted += 1
                if tr is not None:
                    loop.traced_units += 1
                if rc != 0:
                    tally.failed += 1
                    ok = False
                elif i == 0 and tr is None:
                    loop.firsts.append(dt)
                total += dt
            if ok:
                rate = len(wl.calls) / total
                (loop.rates if tr is None else loop.traced_rates).append(rate)
                tally.digests.append(checks.files_digest(outputs[k] for k in sorted(outputs)))

    _loop_until(seconds, body)
    return loop


def measure(cli, wl, seconds, tally, tracer=None):
    loop = circuit_loop if wl.kind == "circuit" else flow_loop
    return loop(cli, wl, seconds, tally, tracer)


def run_checks(cli, wl, tally, docs):
    """Output checks, outside every timed region; failures fail the run."""
    if len(set(tally.digests)) > 1:
        tally.fail_check("outcome digests differ between identical calls")
    try:
        if wl.name == "adaptive_cv":
            ok, detail = checks.check_adaptive_cv(docs, wl.files["circuit"])
        elif wl.name == "boson_dv":
            ok, detail = checks.check_boson_dv(docs, wl.params["U"], wl.params["pattern"])
        elif wl.name == "gate_deep":
            ok, detail = checks.check_gate_deep(docs, wl.files["circuit"])
        else:
            p = wl.params
            if cli.main(p["fine"]) != 0:
                raise RuntimeError("the half-step ode call failed")
            ok, detail = checks.check_zero_flow(p["outputs"], p["fine_out"], p["system"])
    except Exception as exc:  # a check that cannot run counts as failed
        traceback.print_exc(file=sys.stderr)
        ok, detail = False, f"check raised {exc!r}"
    tally.check_ok = tally.check_ok and ok
    tally.check_detail = (detail + tally.check_detail).strip()
    if not tally.check_ok:
        tally.failed = tally.attempted


def setup_times(wl):
    """Median-ready set-up times from SETUP_PROBES fresh processes."""
    kind, path = ("circuit", wl.files["circuit"]) if wl.kind == "circuit" \
        else ("state", wl.files["state"])
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), kind, path],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _warning_counts(caught):
    counts = dict.fromkeys(list(WARN_SOURCES) + ["other"], 0)
    for w in caught:
        text = str(w.message)
        source = next((k for k, pat in WARN_SOURCES.items() if pat in text), "other")
        counts[source] += 1
    return counts


def end_to_end(cli, wl, seconds, tally, report):
    setups = setup_times(wl)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loop = measure(cli, wl, seconds, tally)
    run_checks(cli, wl, tally, loop.docs)
    rates, firsts = loop.rates, loop.firsts
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_per_s": (_median(rates), "1/s"),
        "first_shot_s": (_median(firsts), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    unit_name = "shots_per_s" if wl.kind == "circuit" else "trajectories_per_s"
    what = (f"`hqcsim run --shots {wl.shots}` calls" if wl.kind == "circuit"
            else f"cycles of {len(wl.calls)} evolve/cm-trace calls")
    first_what = ("`hqcsim run --shots 1` calls" if wl.kind == "circuit"
                  else "closed-route `evolve --gate S --trajectory` calls")
    work = wl.unit
    err = tally.failed / tally.attempted if tally.attempted else 1.0
    report += [
        _line(unit_name, _median(rates), "1/s", f"median of {len(rates)} {what}, "
              f"range {_range(rates)}"),
        _line("first_shot_s", _median(firsts), "s",
              f"median of {len(firsts)} {first_what}, range {_range(firsts)}"),
        _line("setup_s", _median(setups), "s",
              f"median of {len(setups)} fresh processes, range {_range(setups)}"),
        _line("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        _line("error_rate", err, "share",
              f"{tally.failed} of {tally.attempted} {work} failed"),
    ]
    _report_checks(report, tally, _warning_counts(caught), tally.attempted, work)
    return metrics


def traced(cli, wl, seconds, tally, report, seed):
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loop = measure(cli, wl, seconds, tally, tracer)
    run_checks(cli, wl, tally, loop.docs)
    WORK_ROOT.mkdir(exist_ok=True)
    trace_path = WORK_ROOT / f"trace-{wl.name}-{seed}.json"
    tracer.write(trace_path)

    units = loop.traced_units
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.busy_s"] = (tracer.busy[name], "s")
        m[f"{name}.self_s"] = (tracer.self_time[name], "s")
    for key in tracer.tag_calls:
        m[f"{key}.calls"] = (tracer.tag_calls[key], "count")
        m[f"{key}.busy_s"] = (tracer.tag_busy[key], "s")
    draws = tracer.calls["sampling.plan_draw"]
    in_draw = tracer.points["sampling.target.in_draw"]
    norm_calls = tracer.calls["states.norm_squared"]
    norm_busy = tracer.busy["states.norm_squared"]
    m["sampling.target.points"] = (tracer.points["sampling.target"], "count")
    m["sampling.plan_draw.points"] = (in_draw, "count")
    m["sampling.accept_ratio"] = (_ratio(draws, in_draw), "ratio")
    m["sampling.plan_build.per_shot"] = (
        _ratio(tracer.calls["sampling.plan_build"], units) if wl.kind == "circuit" else 0.0,
        "ratio")
    zp_calls = tracer.tag_calls["states.norm_squared.zero_poly"]
    zp_busy = tracer.tag_busy["states.norm_squared.zero_poly"]
    m["states.norm_squared.zero_poly.call_share"] = (_ratio(zp_calls, norm_calls), "ratio")
    m["states.norm_squared.zero_poly.time_share"] = (_ratio(zp_busy, norm_busy), "ratio")
    m["cli.output_s"] = (tracer.busy["cli.main"] - tracer.busy["circuits.run_circuit"], "s")
    total = tracer.busy["cli.main"]
    layer_self = tracer.layer_self_time()
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_share"] = (_ratio(value, total), "ratio")
    layers, floor = INTENT[wl.name]
    share = _ratio(sum(layer_self[k] for k in layers), total)
    m["purpose.self_share"] = (share, "ratio")
    m["purpose.ok"] = (1 if share >= floor else 0, "bool")
    untraced_rate, traced_rate = _median(loop.rates), _median(loop.traced_rates)
    overhead = 100.0 * _ratio(untraced_rate - traced_rate, untraced_rate)
    m["trace.overhead_pct"] = (overhead, "%")
    m["trace.spans"] = (len(tracer.names), "count")
    counts = _warning_counts(caught)
    for source, n in counts.items():
        m[f"health.warn.{source}"] = (n, "count")

    work = wl.unit
    report.append(f"  traced loop: {units} {work}, {len(tracer.names)} spans -> "
                  f"{trace_path.relative_to(ROOT)}")
    report.append(f"  {'function':44s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for name in SPAN_NAMES:
        report.append(f"  {name:44s} {tracer.calls[name]:9d} "
                      f"{tracer.busy[name]:10.4f} {tracer.self_time[name]:10.4f}")
        for tag in TAGS.get(name, ()):
            key = f"{name}.{tag}"
            report.append(f"    .{tag:42s} {tracer.tag_calls[key]:9d} "
                          f"{tracer.tag_busy[key]:10.4f}")
    report.append("  layer self-time shares of cli.main busy time "
                  f"({total:.3f} s): " + ", ".join(
                      f"{k} {_ratio(v, total):.3f}" for k, v in layer_self.items()))
    flag = "ok" if share >= floor else "BELOW INTENT"
    report.append(f"  purpose: {'+'.join(layers)} self share {share:.3f} "
                  f"(intent >= {floor:.2f}) {flag}")
    report.append(f"  wasted work: norm_squared on zero polynomials {zp_calls} of "
                  f"{norm_calls} calls, {zp_busy:.3f} of {norm_busy:.3f} s; "
                  f"accept ratio {draws} of {in_draw} draw points; plan_build "
                  f"{tracer.calls['sampling.plan_build']} per {units} {work}")
    report.append(f"  tracing overhead: {overhead:.2f}% ({untraced_rate:.3f} untraced "
                  f"vs {traced_rate:.3f} traced per s)")
    _report_checks(report, tally, counts, tally.attempted, work)
    return m


def _report_checks(report, tally, counts, base, work):
    digest = tally.digests[0][:16] if tally.digests else "-"
    if len(tally.digests) > 1:
        report.append(f"  outcome digest: {digest} ({len(set(tally.digests))} distinct "
                      f"over {len(tally.digests)} identical cycles)")
    else:
        report.append(f"  outcome digest of the first call's rows: {digest}")
    report.append(f"  check: {'ok' if tally.check_ok else 'FAILED'}: {tally.check_detail}")
    report.append("  warnings: " + ", ".join(f"{k} {v}" for k, v in counts.items())
                  + f" over {base} {work}")


def _ratio(num, den):
    return num / den if den else 0.0


def _range(values):
    return f"{min(values):.4g}..{max(values):.4g}" if values else "-"


def _line(name, value, unit, note):
    return f"  {name:20s} {value:12.6g} {unit:6s} {note}"


def _declared(mode_key):
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[mode_key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "hqcsim" / "cli.py").is_file():
        print(f"error: no hqcsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hqcsim.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "hqcsim":
        print(f"error: imported hqcsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        tally = Tally()
        report = [f"hqcsim benchmark: workload {wl.name}, seed {args.seed}, "
                  f"{args.seconds:g} s, trace {args.trace}"]
        if args.trace:
            metrics = traced(cli, wl, args.seconds, tally, report, args.seed)
        else:
            metrics = end_to_end(cli, wl, args.seconds, tally, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared("per_layer" if args.trace else "end_to_end")
    produced = {k: u for k, (_, u) in metrics.items()}
    if produced != declared:
        print(f"error: metrics differ from BENCHMARK.json: produced-only "
              f"{sorted(set(produced) - set(declared))}, declared-only "
              f"{sorted(set(declared) - set(produced))}, unit mismatches "
              f"{sorted(k for k in produced if k in declared and produced[k] != declared[k])}",
              file=sys.stderr)
        return 3
    print("\n".join(report))
    result = {
        "correct": bool(tally.check_ok and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
