"""mixest benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload qubit-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed several times in fresh
worker processes (interpreter start, ``import mixest``, input generation,
warm-up) and its median is ``setup_s``; one more worker then measures for
``--seconds``.  With ``--trace 1`` the worker instead runs the traced tour
of every workload and reports the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qubit-solve", "highdim-solve", "montecarlo", "cli-pipeline")
SETUP_RUNS = 3  # set-up probes per run, besides the measuring worker
RUN_TIMEOUT_S = 170.0  # every worker of one workload's run ends within this
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p99_ms": "ms"}


def worker_env():
    env = dict(os.environ)
    # one caller, small matrices: keep BLAS on the calling thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same sources
    return env


def start_worker(args, workdir, probe, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if probe:
        cmd.append("--probe")
    if args.perturb:
        cmd.append("--perturb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            lines.append(line)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if setup_s is None or proc.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {''.join(lines)[-2000:]}")
    return setup_s, json.loads(lines[-1])


def run_workload(args):
    """Set-up probes plus one measuring worker; returns (result, host record)."""
    workdir = os.path.join(HERE, "_work", f"{os.getpid()}-{args.workload}")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    host = hostinfo.Drift()
    try:
        setups, probe_info = [], []
        for k in range(SETUP_RUNS):
            s, info = start_worker(args, os.path.join(workdir, f"probe{k}"), True, deadline)
            setups.append(s)
            probe_info.append(info["setup"])
        s, res = start_worker(args, os.path.join(workdir, "main"), False, deadline)
        setups.append(s)
        probe_info.append(res["setup"])
        spans = res.pop("spans_file", None)
        if spans:
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            keep = os.path.join(HERE, "results", f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(spans, keep)
            res["spans_file"] = os.path.relpath(keep, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["setup_s"] = statistics.median(setups)
    res["setup_runs_s"] = setups
    res["setup_parts"] = {k: statistics.median(p[k] for p in probe_info) for k in probe_info[0]}
    return res, host.finish(args.seed)


def metrics_of(res, trace):
    if trace:
        layers = dict(res["layers"])
        layers["setup.import_mixest_s"] = res["setup_parts"]["import_mixest_s"]
        layers["setup.inputs_s"] = res["setup_parts"]["inputs_s"]
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    return {k: {"value": res[k], "unit": unit} for k, unit in UNITS.items()}


def layer_unit(name):
    for suffix, unit in ((".us_per_trial", "us"), (".self_us", "us"), (".us", "us"), (".self_ms", "ms"),
                         ("_s", "s"), (".count", "count"), (".bytes_written", "B"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def save(args, res, host, metrics):
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": metrics, "raw": res, "host": host}, fh, indent=1)
    return path


def report(args, res, host, metrics):
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for k, m in metrics.items():
        print(f"  {k:52s} {m['value']:.6g} {m['unit']}")
    for k, v in sorted(res.get("details", {}).items()):
        print(f"  detail {k:45s} {v:.6g}")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print(f"  host {json.dumps(host)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true", help="self-test: corrupt one answer")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mixest", "__init__.py")):
        print(f"error: no mixest sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            res, host = run_workload(one)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = metrics_of(res, args.trace)
        path = save(one, res, host, metrics)
        report(one, res, host, metrics)
        print(f"  saved {os.path.relpath(path, ROOT)}")
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
