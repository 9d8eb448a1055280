"""One fresh interpreter of the benchmark: set up, wait, run one pass, report.

Protocol on the original standard output, one line each:
  ready                 focklab is imported and the seeded inputs are built
  {"verify_s": ...}     the pass result, after "go" arrives on standard input,
                        with the mean speed sample taken during the pass
Anything the program prints goes to standard error instead.  "stop" on
standard input ends a set-up-only child.

Run by run.py; by hand:
  python3 bench/child.py --workload curves-and-families --inputs '{"coupling": 1, "wzw_seed": 5}'
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fixed_work():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 - 6, 7)


class SpeedSampler(threading.Thread):
    """Times a fixed piece of Fraction arithmetic, in this thread's CPU time,
    every SAMPLE_EVERY_S while the pass runs.  The machine's throughput flips
    between states by up to 2x within seconds, and CPU time grows with it, so
    the mean sample tracks the speed the pass itself ran at; run.py uses it to
    report pass times at a reference speed.  The samples take about 1% of the
    interpreter and touch no focklab code."""

    SAMPLE_EVERY_S = 0.2

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(self.SAMPLE_EVERY_S):
            start = time.thread_time()
            _fixed_work()
            self.samples.append(time.thread_time() - start)

    def finish(self) -> float:
        """Stop sampling; the mean sample in seconds."""
        self._done.set()
        self.join()
        if not self.samples:  # a pass shorter than one interval
            start = time.thread_time()
            _fixed_work()
            self.samples.append(time.thread_time() - start)
        return sum(self.samples) / len(self.samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON from workloads.make_inputs")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0, help="also run the untimed output checks")
    args = ap.parse_args(argv)

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import focklab as fl
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(fl.__file__))) != SRC:
        print(f"focklab imported from {fl.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(fl, json.loads(args.inputs))
    proto.write("ready\n")
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(fl)
        tracer.start()
    sampler = SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    results = workloads.run_pass(fl, workload, state)
    verify_s = time.perf_counter() - start
    out = {"verify_s": verify_s, "speed_sample_s": sampler.finish()}
    if tracer is not None:
        wall = tracer.stop()
        out["layers"] = {k: list(v) for k, v in tracer.metrics(wall).items()}
        out["top_functions"] = tracer.top_functions()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units, evidence, digest = workloads.account_pass(fl, workload, state, results)
    out.update(units=units, evidence=evidence, digest=digest, problems=[])
    if args.check:
        values = {gid: value for gid, _, value, _ in results}
        refs = workloads.load_references()
        try:
            out["problems"] = workload.check(fl, state, values, refs)
        except workloads.FAILURES as exc:
            out["problems"] = [f"output check raised {type(exc).__name__}: {exc}"]
        out["defects"] = workloads.defect_probe(fl)
    proto.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
