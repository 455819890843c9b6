"""coralg benchmark: one workload per process, single thread, closed loop.

    python3 perfbench/run.py --workload cli-fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30]
    python3 perfbench/run.py --capture-golden

One caller issues the workload's items one after another, each only after
the previous one returned; a pass is every item once, in an order permuted
by the seed.  Passes repeat until ``--seconds`` have elapsed (at least
MIN_PASSES).  Every output is checked against ``golden.json`` outside the
timed region.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` ones, measured by wrapping coralg's public API (tracing.py).
A full record, with the environment, goes to ``perfbench/out/``.

``--all`` runs every workload in its own process and prints one table.
``--capture-golden`` rewrites golden.json from the current library.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, WORK_COUNTS, Tracer
from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 2
RSS_PASS = 2        # peak_rss_mb is read after this pass: the same work in every run
SETUP_REPEATS = 5   # setup_s is the median of this many set-ups
TRACED_PASSES = 2   # a traced run alternates untraced and traced passes, at least this many each

# what an untraced run prints per workload; cmd_ms_p50 and fail_ratio are not
# end_to_end metrics of BENCHMARK.json (see NOTES.md)
SUMMARY = (("wall_s", "s"), ("cmd_ms_p50", "ms"), ("cmd_ms_p90", "ms"),
           ("peak_rss_mb", "MB"), ("setup_s", "s"), ("fail_ratio", "1"))


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def import_library():
    """A fresh import of every coralg module (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "coralg" or m.startswith("coralg.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"coralg.{name}") for name in LAYERS}


def set_up(workload, workdir):
    """Import coralg and generate the workload's inputs, SETUP_REPEATS times;
    the last set-up is kept.  Returns (set-up times, lib, workload)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        lib = import_library()
        wl = make_workload(workload, lib, workdir)
        times.append(perf_counter() - t0)
    return times, lib, wl


def environment(lib, args, passes):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    scalar = lib["exactla"].QQ.one
    return {"python": platform.python_version(),
            "scalar_backend": f"{type(scalar).__module__}.{type(scalar).__qualname__}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or "unknown",
            "seed": args.seed, "passes": passes, "seconds": args.seconds,
            "trace": args.trace}


def code_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("coralg/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


class Pass:
    """One pass: wall time, per-item latencies and the output checks."""

    def __init__(self, wl, order, golden, tracer=None, first_run_id=0):
        if tracer is not None:
            tracer.install()
            tracer.start_pass()
        outputs, self.latency = [], {}
        t_pass = perf_counter()
        for i, key in enumerate(order):
            if tracer is not None:
                tracer.run_id = first_run_id + i
            t0 = perf_counter()
            outputs.append(wl.run(key))
            self.latency[key] = perf_counter() - t0
        self.wall = perf_counter() - t_pass
        self.layers = None
        if tracer is not None:
            tracer.uninstall()
            self.layers = tracer.pass_metrics(self.wall)
        self.mismatched, self.user_failed = [], []
        for key, out in zip(order, outputs):
            if key not in golden:
                self.mismatched.append(key)
                self.user_failed.append(key)
                continue
            ok, user_failure = wl.verdict(key, out, golden[key])
            if not ok:
                self.mismatched.append(key)
            if user_failure:
                self.user_failed.append(key)


def measure(args, wl, golden, tracer):
    """Run passes for args.seconds; returns (passes, rss_mb after RSS_PASS)."""
    rng = random.Random(args.seed)
    passes, rss_mb, run_id = [], None, 0
    t_start = perf_counter()
    while (len(passes) < MIN_PASSES
           or (tracer is not None and len(passes) < 2 * TRACED_PASSES)
           or perf_counter() - t_start < args.seconds):
        order = rng.sample(wl.items, len(wl.items))
        gc.collect()
        traced = tracer if len(passes) % 2 else None
        passes.append(Pass(wl, order, golden, traced, run_id))
        run_id += len(order)
        if len(passes) == RSS_PASS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb


def end_to_end(passes, setup_times, rss_mb):
    """cmd_ms_p50 is the median over items of each item's median latency:
    the item mix is fixed, so a plain sample median would sit in the gap
    between two items' latencies and jump with every reordering."""
    lat = [x for p in passes for x in p.latency.values()]
    per_item = [statistics.median(p.latency[key] for p in passes) for key in passes[0].latency]
    return {"wall_s": statistics.median(p.wall for p in passes),
            "cmd_ms_p50": statistics.median(per_item) * 1e3,
            "cmd_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1e3,
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_times)}


def per_layer(args, passes, tracer):
    """Per-layer metrics: the mean over the traced passes, plus the checks
    that every traced pass (and an earlier run of the same code and seed)
    did exactly the same work."""
    untraced = [p for p in passes if p.layers is None]
    traced = [p.layers for p in passes if p.layers is not None]
    m = {}
    for k in traced[0]:
        vals = [t[k] for t in traced]
        m[k] = vals[0] if vals.count(vals[0]) == len(vals) else statistics.fmean(vals)
    m["trace.overhead_s"] = (statistics.median(t["trace.wall_s"] for t in traced)
                             - statistics.median(p.wall for p in untraced))
    counts = {k: traced[0][k] for k in WORK_COUNTS}
    mismatches = [f"pass {i + 2}: {k}" for i, t in enumerate(traced[1:])
                  for k in WORK_COUNTS if t[k] != counts[k]]
    record = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    digest = code_digest()
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier["code"] == digest:
            mismatches += [f"earlier run: {k}" for k in WORK_COUNTS
                           if earlier["counts"][k] != counts[k]]
    record.write_text(json.dumps({"code": digest, "counts": counts}))
    if mismatches:
        print("WORK COUNTS DIFFER: the runs did different work: " + "; ".join(mismatches))
    m["trace.count_mismatches"] = len(mismatches)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz",
                       {"workload": args.workload, "seed": args.seed,
                        "run": "item sequence number within this benchmark run"})
    return m


def run_workload(args, spec, golden):
    workdir = OUT / f"ws-{os.getpid()}"
    try:
        setup_times, lib, wl = set_up(args.workload, workdir)
        tracer = Tracer(lib) if args.trace else None
        passes, rss_mb = measure(args, wl, golden, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latency) for p in passes)
    mismatched = sum(len(p.mismatched) for p in passes)
    user_failed = sum(len(p.user_failed) for p in passes)
    values = end_to_end(passes, setup_times, rss_mb)
    values["fail_ratio"] = user_failed / attempted
    kind = "end_to_end"
    if args.trace:
        values.update(per_layer(args, passes, tracer))
        kind = "per_layer"
    env = environment(lib, args, len(passes))
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    record = {"workload": args.workload, "env": env, "values": values,
              "samples": attempted, "setup_times": setup_times,
              "pass_walls": [p.wall for p in passes],
              "latencies": [p.latency for p in passes],
              "mismatched": sorted({k for p in passes for k in p.mismatched}),
              "user_failed": sorted({k for p in passes for k in p.user_failed})}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"coralg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes, {attempted} items, trace {args.trace}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    shown = [(m["name"], m["unit"]) for m in spec[kind]] if args.trace else SUMMARY
    for name, unit in shown:
        if name != "fail_ratio":
            print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {values['fail_ratio']:.6g} 1 "
          f"({user_failed} of {attempted}: {', '.join(record['user_failed']) or 'none'})")
    if mismatched:
        print(f"  OUTPUTS DIFFER FROM GOLDEN: {', '.join(record['mismatched'])}")
    print(json.dumps({"correct": mismatched == 0, "attempted": attempted,
                      "failed": mismatched, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process (peak RSS is per process); one table."""
    rows = []
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {w} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"result-{w}-seed{args.seed}-trace0.json").read_text())
        rows.append((w, result, record))
    print(f"{'workload':14s}" + "".join(f"{n:>16s}" for n, _ in SUMMARY)
          + "     items  correct")
    print(f"{'':14s}" + "".join(f"{'[' + u + ']':>16s}" for _, u in SUMMARY))
    for w, result, record in rows:
        print(f"{w:14s}" + "".join(f"{record['values'][n]:16.5g}" for n, _ in SUMMARY)
              + f"{result['attempted']:10d}  {result['correct']}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in rows[0][2]["env"].items()
                              if k not in ("passes", "trace")))


def capture_golden():
    golden = {}
    workdir = OUT / "ws-golden"
    try:
        for w in WORKLOADS:
            _, _, wl = set_up(w, workdir)
            golden[w] = {key: wl.fingerprint(key, wl.run(key)) for key in wl.items}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--capture-golden", action="store_true")
    args = p.parse_args()
    if not (SRC / "coralg" / "__init__.py").is_file():
        fail(f"no coralg sources under {SRC}")
    if not SPEC.is_file():
        fail(f"missing {SPEC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.capture_golden:
        return capture_golden()
    spec = json.loads(SPEC.read_text())
    if args.all:
        return run_all(args)
    if args.workload is None:
        fail("give --workload, --all or --capture-golden")
    if not GOLDEN.is_file():
        fail(f"missing {GOLDEN}")
    run_workload(args, spec, json.loads(GOLDEN.read_text())[args.workload])


if __name__ == "__main__":
    main()
