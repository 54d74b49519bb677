"""One benchmark worker process: set up, then measure or trace.

Started by ``run.py``; prints ``READY`` when set-up ends (the parent times
set-up from process start to that line), then, unless it is a set-up
probe, one JSON line with the raw results.  Imports mixest from the
``src`` directory of the checkout that holds this file, and refuses to
run against any other copy.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fixed op counts of the traced run, in whole cycles per second of
# --seconds, so that its counts are exact for a given seed.
TRACE_CYCLES_PER_S = {"qubit-solve": 12.0, "highdim-solve": 2.4, "montecarlo": 5.0, "cli-pipeline": 3.7}


def import_mixest():
    sys.path.insert(0, SRC)
    import mixest

    if os.path.dirname(os.path.dirname(os.path.abspath(mixest.__file__))) != SRC:
        raise SystemExit(f"mixest imported from {mixest.__file__}, not from {SRC}")
    return mixest


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) if len(values) > 1 \
        else float(values[0])


class Runner:
    """Runs ops of one workload: make, time, check, optionally trace."""

    def __init__(self, workload, perturb=False):
        self.w = workload
        self.perturb = perturb
        self.i = 0
        self.reset()

    def reset(self):
        """Forget the ops run so far (after warm-up)."""
        self.kinds = array.array("i")  # kind index of each op
        self.latencies = array.array("d")
        self.failures = []
        self.n_failed = 0
        self.w.counts.clear()

    def _check(self, op, result):
        try:
            if self.perturb and not self.latencies:
                result = self.w.perturb(op, result)
            return self.w.check(op, result)
        except Exception as exc:  # a crash in checking is a failed op
            return [f"check raised {exc!r}"]

    def step(self, tracer=None):
        """One op; with a tracer, also the traced call and its replayed stages."""
        w = self.w
        op = w.make(self.i)
        self.i += 1
        fails = []
        result = None
        if tracer is not None and op.index % 2:
            result, fails = self._traced(op, tracer)
        t0 = time.perf_counter()
        try:
            result = w.call(op)
        except Exception as exc:
            fails.append(f"raised {exc!r}")
        dt = time.perf_counter() - t0
        if not fails:
            fails = self._check(op, result)
        if tracer is not None and not op.index % 2:
            _, more = self._traced(op, tracer)
            fails += more
        self.kinds.append(op.index % len(w.kinds))
        self.latencies.append(dt)
        if fails:
            self.n_failed += 1
            self.failures.append(f"op {op.index} ({op.kind}): {fails[0]}")

    def _traced(self, op, tracer):
        """Traced call in an op span, then each stage replayed in a child span."""
        tracer.new_op()
        try:
            with tracer.span(f"op.{self.w.name}", kind=op.kind, work=op.work) as rec:
                result = self.w.call(op)
            self.w.replay(op, result, tracer, rec["id"])
            return result, []
        except Exception as exc:
            return None, [f"traced call raised {exc!r}"]

    def run_for(self, seconds):
        """Untraced ops for ``seconds`` of wall time, ending on a whole cycle."""
        cycle = len(self.w.kinds)
        end = time.perf_counter() + seconds
        while self.i % cycle or time.perf_counter() < end:
            self.step()

    def run_cycles(self, cycles, tracer=None):
        for _ in range(cycles * len(self.w.kinds)):
            self.step(tracer)

    def result(self):
        lat = self.latencies
        return {
            "attempted": len(lat),
            "failed": self.n_failed,
            "failures": self.failures[:20],
            "op_p99_ms": percentile(lat, 99) * 1e3,
            "details": {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": statistics.median(lat) * 1e3,
                        "op_p90_ms": percentile(lat, 90) * 1e3, **self.w.details(self.kinds, lat)},
            "windows": self.windows(),
        }

    def windows(self, span_s=0.5):
        """Ops per second of timed work in consecutive chunks of about span_s:
        shows how the host's speed moved during the run."""
        out, n, acc = [], 0, 0.0
        for t in self.latencies:
            n, acc = n + 1, acc + t
            if acc >= span_s:
                out.append(n / acc)
                n, acc = 0, 0.0
        return out


def layer_metrics(tracer, runners):
    """Per-layer metrics from the spans of a traced tour."""
    from workloads import DIMS, SOLVER, Priors

    us = 1e6
    m = {}

    def mean_us(name):
        d = tracer.durations(name)
        return sum(d) / len(d) * us if d else float("nan")

    for name in ("states.validate_state", "states.commutator_norm", "bayes.effective_states",
                 "bayes.q_functional", "qubit.planar_geometry", "qubit.optimal_alpha",
                 "highdim.support_rank", "cli.load_problem", "simulate.ppt_threshold"):
        m[f"{name}.us"] = mean_us(name)
    for fam, solver in SOLVER.items():
        for d in DIMS:
            m[f"highdim.{solver}.d{d}.us"] = mean_us(f"highdim.{solver}.d{d}")
    for d in DIMS:
        m[f"highdim.aligned_basis.d{d}.us"] = mean_us(f"highdim.aligned_basis.d{d}")
    m["qubit.optimal_pvm.self_us"] = statistics.fmean(tracer.self_times("op.qubit-solve")) * us
    m["cli.solve.self_us"] = statistics.fmean(tracer.self_times("op.highdim-solve")) * us

    mc = [s for s in tracer.spans if s["name"] == "op.montecarlo"]
    mc_self = tracer.self_times("op.montecarlo")
    for kind in Priors.KINDS:
        idx = [i for i, s in enumerate(mc) if s["attrs"]["kind"].startswith(f"run_simulation/{kind}/")]
        trials = sum(mc[i]["attrs"]["work"] for i in idx)
        per_trial = sum(mc[i]["t1"] - mc[i]["t0"] for i in idx) / trials * us
        sample = [s for s in tracer.spans if s["name"] == f"bayes.sample_from_uniform.{kind}"]
        per_sample = sum((s["t1"] - s["t0"]) / s["attrs"]["calls"] for s in sample) / len(sample) * us
        glue = sum(mc_self[i] for i in idx) / trials * us
        m[f"bayes.sample_from_uniform.{kind}.us"] = per_sample
        m[f"simulate.run_simulation.{kind}.us_per_trial"] = per_trial
        m[f"simulate.sampler_self.{kind}.us_per_trial"] = glue - per_sample
    demo = [s for s in mc if s["attrs"]["kind"] == "entanglement_demo"]
    m["simulate.entanglement_demo.us_per_trial"] = \
        sum(s["t1"] - s["t0"] for s in demo) / sum(s["attrs"]["work"] for s in demo) * us
    rec = [s for s in tracer.spans if s["name"] == "simulate.run_simulation.records"]
    m["simulate.run_simulation.records.us_per_trial"] = \
        sum(s["t1"] - s["t0"] for s in rec) / sum(s["attrs"]["trials"] for s in rec) * us
    m["simulate.trials.count"] = sum(s["attrs"]["work"] for s in tracer.spans if s["name"].startswith("op.")
                                     and s["attrs"]["work"] > 1)

    cli_ops = [s for s in tracer.spans if s["name"] == "op.cli-pipeline"]
    cli_self = tracer.self_times("op.cli-pipeline")
    cli_runner = runners["cli-pipeline"]
    for kind in cli_runner.w.kinds:
        idx = [i for i, s in enumerate(cli_ops) if s["attrs"]["kind"] == kind]
        m[f"cli.{kind}.self_ms"] = statistics.fmean(cli_self[i] for i in idx) * 1e3
        m[f"cli.{kind}.bytes_written"] = cli_runner.w.counts[f"bytes.{kind}"]

    hd = runners["highdim-solve"]
    for route, count in hd.w.details(hd.kinds, hd.latencies).items():
        m[f"highdim.{route}.count" if route.startswith("route.") else f"highdim.{route}"] = count

    for name, r in runners.items():
        traced = tracer.durations(f"op.{name}")
        m[f"trace.overhead.{name}.us"] = (statistics.fmean(traced) - statistics.fmean(r.latencies)) * us
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true", help="set up, report set-up times and exit")
    ap.add_argument("--perturb", action="store_true", help="corrupt one answer (self-test)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_mixest()
    t_import = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    names = list(WORKLOADS) if args.trace else [args.workload]
    runners = {n: Runner(WORKLOADS[n](args.seed, os.path.join(args.workdir, n)), args.perturb) for n in names}
    t_inputs = time.perf_counter() - t1
    for r in runners.values():  # warm-up: one untimed cycle of every op kind
        perturb, r.perturb = r.perturb, False
        r.run_cycles(1)
        r.reset()
        r.perturb = perturb
    print("READY", flush=True)
    setup = {"import_mixest_s": t_import, "inputs_s": t_inputs}
    if args.probe:
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    if not args.trace:
        runner = runners[args.workload]
        runner.run_for(args.seconds)
        out = runner.result()
    else:
        from tracer import Tracer

        tracer = Tracer()
        tour_s = {}
        for name, r in runners.items():
            t = time.perf_counter()
            r.run_cycles(max(1, math.ceil(TRACE_CYCLES_PER_S[name] * args.seconds / 4)), tracer)
            tour_s[name] = time.perf_counter() - t
        out = {
            "tour_s": tour_s,
            "attempted": sum(len(r.latencies) for r in runners.values()),
            "failed": sum(r.n_failed for r in runners.values()),
            "failures": [f for r in runners.values() for f in r.failures][:20],
            "layers": layer_metrics(tracer, runners),
        }
        out["spans_file"] = os.path.join(args.workdir, "spans.jsonl")
        tracer.write(out["spans_file"])
    out["setup"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
