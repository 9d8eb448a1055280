"""focklab verification benchmark.

  python3 bench/run.py --workload finite-fock --seed 1 --seconds 35 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 35     # every workload, one table

Method: a closed loop with one client.  Every pass over a workload's units
runs in a fresh interpreter, started only after the previous one has exited,
because a `focklab --suite` user pays every cache fill on every run.  A child
reports "ready" once focklab is imported and its seeded inputs are built; the
time from spawning it until then is one set-up sample.  Passes repeat until
the next one would end after --seconds; set-up samples are topped up with
set-up-only children to SETUP_SAMPLES.

--trace 0 reports the end-to-end metrics (medians over the run):
  setup_s      process start until focklab is imported and inputs are built
  verify_s     wall time of one pass over the workload's units
  peak_rss_mb  the pass child's ru_maxrss
Both times are given at the reference speed: the machine's throughput flips
between states by up to 2x within seconds, so a thread of each pass child
samples a fixed piece of arithmetic during the pass (child.SpeedSampler), and
a time t is reported as t * REFERENCE_SAMPLE_S / mean sample (set-up uses the
run's median speed).  The raw wall times are printed on each pass line.
--trace 1 runs one untraced pass and one traced pass and reports per-layer
calls, self time and errors, the waste ratios, failed_ratio and
trace_overhead_s (traced minus untraced verify_s).

The run fails (exit 1, "correct": false) unless every unit passes, the exact
outputs match bench/references.json, every pass of the run produced the same
exact results, and the unit and evidence counts equal the recorded ones.
Without the program's sources next to the benchmark it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 7
# A child.SpeedSampler sample takes about this long on a 2-CPU 2.1 GHz x86-64
# machine; times are reported as if the machine ran at that speed.
REFERENCE_SAMPLE_S = 0.002
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (needs HERE on the path; imports no focklab)
from layertrace import LAYERS  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def spawn(workload, inputs, go=True, trace=0, check=0):
    """Run one child to completion; returns (setup_s, wall_s, result)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--inputs", json.dumps(inputs),
           "--trace", str(trace), "--check", str(check)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            raise ChildFailed(f"{workload}: child did not get ready (exit {proc.wait()})")
        proc.stdin.write("go\n" if go else "stop\n")
        proc.stdin.close()
        line = proc.stdout.readline() if go else ""
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    wall = time.perf_counter() - start
    if code != 0 or (go and not line):
        raise ChildFailed(f"{workload}: child exited with {code}")
    return setup_s, wall, json.loads(line) if go else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(workload, passes, refs):
    """Output checks over the passes of one run: list of problems."""
    problems = []
    want_units = refs["units"][workload]
    want_evidence = refs["evidence"][workload]
    for i, p in enumerate(passes, 1):
        if len(p["units"]) != want_units:
            problems.append(f"pass {i}: {len(p['units'])} units, recorded {want_units}")
        if p["evidence"] != want_evidence:
            problems.append(f"pass {i}: evidence {p['evidence']}, recorded {want_evidence}")
        for uid, status, witness in p["units"]:
            if status != "pass":
                problems.append(f"pass {i}: {uid} {status}: {witness}")
        problems.extend(f"pass {i}: {msg}" for msg in p["problems"])
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes of one run gave different exact results")
    return problems


def speed(p):
    """The machine's speed during a pass, relative to the reference speed."""
    return REFERENCE_SAMPLE_S / p["speed_sample_s"]


def end_to_end_metrics(setups, passes):
    run_speed = statistics.median(speed(p) for p in passes)
    return {
        "setup_s": {"value": statistics.median(setups) * run_speed, "unit": "s"},
        "verify_s": {"value": statistics.median(p["verify_s"] * speed(p) for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def per_layer_metrics(plain, traced, failed_ratio):
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in traced["layers"].items()}
    metrics["trace_overhead_s"] = {"value": traced["verify_s"] - plain["verify_s"], "unit": "s"}
    metrics["failed_ratio"] = {"value": failed_ratio, "unit": "ratio"}
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    metrics["trace_coverage"] = {"value": layer_sum / traced["verify_s"], "unit": "ratio"}
    return metrics


def say(msg):
    print(msg, flush=True)


def run_workload(workload, seed, seconds, trace, refs):
    inputs = workloads.make_inputs(workload, seed)
    say(f"workload {workload}  seed {seed}  inputs {json.dumps(inputs)}")
    start = time.perf_counter()
    setups, walls, passes = [], [], []

    def one_pass(**kw):
        setup_s, wall, res = spawn(workload, inputs, **kw)
        setups.append(setup_s)
        walls.append(wall)
        passes.append(res)
        failed = sum(1 for u in res["units"] if u[1] != "pass")
        say(f"  pass {len(passes)}{' (traced)' if kw.get('trace') else ''}: "
            f"wall {res['verify_s']:.3f} s at speed {speed(res):.3f}  setup wall {setup_s:.3f} s  "
            f"peak_rss_mb {res['peak_rss_mb']:.1f} MB  units {len(res['units'])}  "
            f"failed {failed}  evidence {res['evidence']}")
        for name, verdict in res.get("defects", {}).items():
            say(f"  known-defect probe (untimed) {name}: {verdict}")
        return res

    if trace:
        plain = one_pass(check=1)
        traced = one_pass(trace=1)
    else:
        one_pass(check=1)
        while time.perf_counter() - start + walls[-1] <= seconds:
            one_pass()
        while len(setups) < SETUP_SAMPLES:
            setup_s, _, _ = spawn(workload, inputs, go=False)
            setups.append(setup_s)

    problems = judge(workload, passes, refs)
    for msg in problems:
        say(f"  CHECK FAILED: {msg}")
    attempted = sum(len(p["units"]) for p in passes)
    failed = sum(1 for p in passes for u in p["units"] if u[1] != "pass")
    failed_ratio = failed / attempted if attempted else 1.0

    if trace:
        metrics = per_layer_metrics(plain, traced, failed_ratio)
        say("  per-layer self time (traced pass):")
        for layer in LAYERS:
            say(f"    {layer:<11} self_s {metrics[layer + '.self_s']['value']:9.3f} s  "
                f"calls {metrics[layer + '.calls']['value']:>9}  errors {metrics[layer + '.errors']['value']}")
        say(f"    bench       self_s {metrics['bench.self_s']['value']:9.3f} s")
        for f in traced["top_functions"][:10]:
            say(f"    top {f['name']}: self_s {f['self_s']:.3f} s, calls {f['calls']}")
        say(f"  trace_overhead_s {metrics['trace_overhead_s']['value']:.3f} s  "
            f"trace_coverage {metrics['trace_coverage']['value']:.4f}")
    else:
        metrics = end_to_end_metrics(setups, passes)
        q1, _, q3 = quartiles([p["verify_s"] * speed(p) for p in passes])
        say(f"  {workload}: setup_s {metrics['setup_s']['value']:.3f} s (median of {len(setups)})  "
            f"verify_s {metrics['verify_s']['value']:.3f} s (median of {len(passes)}; q1 {q1:.3f}, q3 {q3:.3f})  "
            f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB  "
            f"failed_ratio {failed_ratio:.4f} ({failed}/{attempted})")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "focklab", "__init__.py")):
        print(f"focklab sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "focklab"), quiet=1)
    refs = workloads.load_references()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, refs) for w in names}
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
