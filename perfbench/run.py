#!/usr/bin/env python3
"""Benchmark of the simplex-stdp command line: how long a verdict takes end to
end, and where the time goes per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

A workload is a fixed sequence of `simplex-stdp` scenario invocations (see
WORKLOADS). One client runs them one after another, each in a fresh child
process with the workload seed as --seed, and repeats the sequence (a pass)
for --seconds: a closed loop with one client. Each end-to-end metric is the
median over passes of a per-pass value. Every invocation's outputs are
checked: exit code 0, no `passed: false` in report.json, only finite values
in the CSV files, and the same sha256 digests in every pass.

With --trace 1 the run covers every workload once untraced and once traced,
whichever --workload names, because every traced run reports every layer and
the layers sit on different workloads. It then runs the pool probe and the
kernel sweep, and prints the per-layer metrics instead of the end-to-end
ones, with the tracing overhead of each workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A results file with the environment, every
sample and every output digest goes to .perfbench_runs/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
NPROC = len(os.sched_getaffinity(0))
MIN_PASSES = 3
# a run must exit within 180 s; stop starting passes well before that
RUN_LIMIT_S = 120.0
INVOCATION_TIMEOUT_S = 150.0


def inv(scenario, threads=1, **overrides):
    return {"scenario": scenario, "threads": threads, "set": overrides}


# Sizes are cut from the CLI defaults so that one pass takes a few seconds on
# a 2-core machine while keeping each workload's shape: batch width, d, the
# kernel branch and the thread count. Every check passes at these sizes.
WORKLOADS = {
    # the two scenarios on the gap kernel: thm22-verify with a wide batch
    # (200 x d=2) and the thread pool at nproc, then thm-corr-verify with a
    # narrow batch (50 x d=3), the correlated branch and one thread
    "gap-verify": [
        inv("thm22-verify", threads=NPROC, n_steps=24000,
            checkpoints=[0, 8000, 16000, 24000]),
        inv("thm-corr-verify", n_steps=30000, checkpoints=[0, 10000, 20000, 30000]),
    ],
    # every other scenario, none of which reaches the gap kernel: first the
    # weight-coordinate runners, then scalar dynamics, RK4 flow, spiking and
    # CSV writing
    "runners": [
        inv("alg2-verify", alpha=0.05),
        inv("fig3-algorithm1", n_steps=6000),
        inv("priming", alpha=0.005, settle_steps=8000),
        inv("fig2-trajectories"),
        inv("fig2-ensemble", n_traj=16),
        inv("correlated-figure", n_traj=12),
        inv("thm23-verify", n_cases=20),
        # 60000 triggers per threshold put the 0.01 tolerance about five
        # standard errors from the target frequencies, so no seed fails it
        inv("spiking-validate", thresholds=[5.0, 10.0], n_events=[60000, 60000]),
        inv("mirror-compare"),
        inv("landscape-grid"),
    ],
}

# --smoke sizes, the same as the determinism criterion's small overrides
SMOKE = {
    "fig2-trajectories": {"n_steps": 200, "grid_step": 0.1},
    "fig2-ensemble": {"n_steps": 300, "n_traj": 6},
    "fig3-algorithm1": {"n_steps": 500},
    "correlated-figure": {"n_steps": 300, "n_traj": 6, "grid_step": 0.1},
    "priming": {"settle_steps": 2000, "n_traj": 6},
    "thm22-verify": {"n_traj": 8, "n_steps": 2000, "checkpoints": [0, 1000, 2000]},
    "thm23-verify": {"n_cases": 6, "horizon": 2.0},
    "thm-corr-verify": {"n_traj": 4, "n_steps": 2000, "checkpoints": [0, 2000]},
    "alg2-verify": {"alpha": 0.05, "n_seeds": 10},
    "spiking-validate": {"n_events": [2000, 1000], "noise_samples": 10000,
                         "tolerance": 0.05},
    "mirror-compare": {"n_points": 10},
    "landscape-grid": {"grid_step": 0.05},
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# which end-to-end metric each layer metric should move, on which workload
# (first matching prefix wins)
MOVES = [
    ("theory.run_gap_ensemble.", "wall_s, cpu_s on gap-verify"),
    ("theory.chunk_mb", "peak_rss_mb on gap-verify"),
    ("theory.priming_experiment.", "wall_s, peak_rss_mb on runners"),
    ("multi.", "wall_s, peak_rss_mb on runners"),
    ("dynamics.", "wall_s on runners"),
    ("flow.", "wall_s on runners"),
    ("spiking.", "wall_s, peak_rss_mb on runners"),
    ("simplex.", "wall_s on runners"),
    ("cli.write_csv.", "wall_s on runners"),
    ("cli.pool.", "wall_s, cpu_s on gap-verify (thm22-verify)"),
    ("sweep.", "wall_s on gap-verify (n200.d2 thm22-verify, n50.d3 thm-corr-verify)"),
]


def moves_for(name):
    if name.startswith("cli.scenario."):
        scenario = name[len("cli.scenario."):-len(".wall_s")]
        owners = [w for w, invs in WORKLOADS.items()
                  if any(i["scenario"] == scenario for i in invs)]
        return "wall_s on " + " and ".join(owners)
    return next(text for prefix, text in MOVES if name.startswith(prefix))


def unit_for(name):
    suffix = name.rsplit(".", 1)[-1]
    if name.startswith("sweep."):
        suffix = name.split(".")[2]
    return {
        "us_per_step": "us/step", "us": "us/call", "ns_per_draw": "ns/draw",
        "ns_per_event": "ns/event", "chunk_mb": "MB", "bytes": "bytes",
        "s": "s", "wait_s": "s", "wall_s": "s", "wall_ratio": "ratio",
        "post_per_pre": "1/event", "kept_ratio": "ratio",
    }.get(suffix, "count")


def invocations(workload, smoke):
    out = []
    for item in WORKLOADS[workload]:
        item = dict(item)
        if smoke:
            item["set"] = SMOKE[item["scenario"]]
        out.append(item)
    return out


def environment(seed):
    import numpy
    from simplex_stdp import dynamics

    cpu_model = mem_total = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            mem_total = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("MemTotal")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "mem_total": mem_total,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chunk": dynamics.CHUNK,
        "commit": commit,
        "seed": seed,
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc):
    """Reap the child, killing it after the timeout; returns (code, rusage)."""
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, usage


def digest_outputs(out_dir):
    """sha256 of every output file; manifest.json without the fields that
    echo the invocation (elapsed_seconds, threads)."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("elapsed_seconds", None)
            manifest.pop("threads", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def check_outputs(out_dir):
    errors = []
    report = os.path.join(out_dir, "report.json")
    if os.path.exists(report):
        with open(report) as fh:
            if json.load(fh).get("passed") is False:
                errors.append("report.json has passed: false")
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            next(fh, None)  # header
            for line in fh:
                for cell in line.rstrip("\n").split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a label such as priming's phase column
                    if not math.isfinite(value):
                        errors.append("%s holds a non-finite value" % name)
                        break
    return errors


def run_invocation(item, seed, workdir, trace, threads=None):
    """One scenario invocation in a fresh process, timed from launch to exit."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "out")
    side = os.path.join(workdir, "side.json")
    threads = item["threads"] if threads is None else threads
    argv = [sys.executable, os.path.join(HERE, "child.py"), side, "1" if trace else "0",
            "--", item["scenario"], "--seed", str(seed), "--out", out,
            "--threads", str(threads)]
    for key, value in item["set"].items():
        argv += ["--set", "%s=%s" % (key, json.dumps(value))]
    with open(os.path.join(workdir, "log.txt"), "wb") as log:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        code, usage = _wait(proc)
        end = time.monotonic()
    rec = {
        "scenario": item["scenario"],
        "threads": threads,
        "exit_code": code,
        "wall_s": end - launch,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "errors": [],
        "digests": {},
    }
    if code != 0:
        rec["errors"].append("exit code %d" % code)
    try:
        with open(side) as fh:
            side_data = json.load(fh)
    except (OSError, ValueError):
        side_data = {}
    if side_data.get("enter") is None:
        rec["errors"].append("scenario entry was not stamped")
    else:
        rec["setup_s"] = side_data["enter"] - launch
    rec["spans"] = side_data.get("spans", [])
    rec["missing_layers"] = side_data.get("missing_layers", [])
    scenario_dir = os.path.join(out, item["scenario"])
    if os.path.isdir(scenario_dir):
        rec["digests"] = digest_outputs(scenario_dir)
        rec["errors"] += check_outputs(scenario_dir)
    else:
        rec["errors"].append("no output directory")
    return rec


def run_pass(workload, items, seed, trace, tag):
    records = []
    for i, item in enumerate(items):
        workdir = os.path.join(RUNS, "work", workload, "%d-%s%s" % (i, item["scenario"], tag))
        records.append(run_invocation(item, seed, workdir, trace))
    return records


def same_digests(records, reference, what):
    """Mark each record whose digests differ from its reference record."""
    for rec, ref in zip(records, reference):
        if rec["digests"] != ref["digests"]:
            rec["errors"].append("output digests differ from %s" % what)


def pass_metrics(records):
    return {
        "setup_s": sum(r.get("setup_s", 0.0) for r in records),
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def digest_table(records):
    return {"%s/%s" % (r["scenario"], name): sha
            for r in records for name, sha in r["digests"].items()}


def _strip_spans(passes):
    return [[{k: v for k, v in r.items() if k != "spans"} for r in recs] for recs in passes]


def measured_run(args):
    items = invocations(args.workload, args.smoke)
    passes = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        records = run_pass(args.workload, items, args.seed, False, "")
        if passes:
            same_digests(records, passes[0][0], "pass 1")
        passes.append((records, time.monotonic() - t0))
        elapsed = time.monotonic() - started
        typical = statistics.median(p[1] for p in passes)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    all_records = [r for recs, _ in passes for r in recs]
    per_pass = [pass_metrics(recs) for recs, _ in passes]
    failed = sum(1 for r in all_records if r["errors"])
    metrics = {}
    print("workload %s: %d invocation(s) per pass, closed loop, 1 client, "
          "%d passes in %.1f s" % (args.workload, len(items), len(passes),
                                   time.monotonic() - started))
    for name, unit in END_TO_END:
        values = [p[name] for p in per_pass]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-12s %12.6g %-3s  median of %d passes (min %.6g, max %.6g)"
              % (name, value, unit, len(values), min(values), max(values)))
    print("  %-12s %12s  failed/attempted invocations"
          % ("fail_ratio", "%d/%d" % (failed, len(all_records))))
    report_failures(all_records)
    digests = digest_table(passes[0][0])
    print_digests(args.workload, args.seed, digests)
    results = {
        "per_pass": per_pass,
        "fail_ratio": failed / len(all_records),
        "digests": digests,
        "passes": _strip_spans([recs for recs, _ in passes]),
    }
    return metrics, len(all_records), failed, results


def report_failures(records):
    for r in records:
        for error in r["errors"]:
            print("  FAILED %s: %s" % (r["scenario"], error))


def print_digests(workload, seed, digests):
    print("digests of %s outputs, seed %d:" % (workload, seed))
    for name, sha in sorted(digests.items()):
        print("  %s  %s" % (sha, name))


def run_sweep(seed, smoke):
    argv = [sys.executable, os.path.join(HERE, "sweep.py"), str(seed)]
    if smoke:
        argv.append("--smoke")
    path = os.path.join(RUNS, "work", "sweep.json")
    with open(path, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, cwd=ROOT, env=_child_env())
        code, _ = _wait(proc)
    if code != 0:
        return None
    with open(path) as fh:
        return json.load(fh)


def traced_run(args):
    import spans as spans_mod

    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    all_records = []
    traced_spans = []
    overhead = {}
    digests = {}
    corr_traced = None
    for workload in order:
        items = invocations(workload, args.smoke)
        plain = run_pass(workload, items, args.seed, False, "")
        traced = run_pass(workload, items, args.seed, True, "-traced")
        same_digests(traced, plain, "the untraced run")
        all_records += plain + traced
        traced_spans += [r["spans"] for r in traced]
        overhead[workload] = {
            "traced_wall_s": pass_metrics(traced)["wall_s"],
            "untraced_wall_s": pass_metrics(plain)["wall_s"],
        }
        overhead[workload]["overhead_s"] = (overhead[workload]["traced_wall_s"]
                                            - overhead[workload]["untraced_wall_s"])
        digests[workload] = digest_table(plain)
        if workload == "gap-verify":
            corr_traced = next(r for r in traced if r["scenario"] == "thm-corr-verify")

    # pool probe: the thm-corr-verify invocation again, at two threads (never
    # above nproc)
    corr_item = next(i for i in invocations("gap-verify", args.smoke)
                     if i["scenario"] == "thm-corr-verify")
    probe = run_invocation(corr_item, args.seed,
                           os.path.join(RUNS, "work", "pool-probe"), True,
                           threads=min(2, NPROC))
    same_digests([probe], [corr_traced], "the one-thread run")
    all_records.append(probe)
    probe_summary = spans_mod.summarize([probe["spans"]])

    summary = spans_mod.summarize(traced_spans)
    layers = spans_mod.layer_metrics(summary)
    for scenario in SMOKE:
        row = summary.get("cli.scenario." + scenario, {})
        layers["cli.scenario.%s.wall_s" % scenario] = (row.get("s", 0.0), False)
    layers["cli.pool.wall_ratio"] = (probe["wall_s"] / corr_traced["wall_s"], False)
    layers["cli.pool.wait_s"] = (
        probe_summary.get("theory.run_gap_ensemble", {}).get("wait_s", 0.0), False)

    attempted = len(all_records) + 1
    failed = sum(1 for r in all_records if r["errors"])
    sweep = run_sweep(args.seed, args.smoke)
    if sweep is None:
        failed += 1
        print("  FAILED kernel sweep")
    else:
        for name, point in sweep.items():
            layers[name] = (point["value"], False)

    print("traced run: every workload once untraced and once traced, "
          "pool probe at %d threads, kernel sweep" % min(2, NPROC))
    metrics = {}
    for name, (value, computed) in layers.items():
        unit = unit_for(name)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-48s %12.6g %-8s %-9s -> %s" % (
            name, value, unit, "computed" if computed else "", moves_for(name)))
    print("self time per span (s), summed over the traced invocations:")
    for name, row in sorted(summary.items()):
        print("  %-40s calls %6d  total %9.4f  self %9.4f  waiting %9.4f"
              % (name, row["calls"], row["s"], row["self_s"], row["wait_s"]))
    print("tracing overhead (traced wall_s - untraced wall_s):")
    for workload, row in overhead.items():
        print("  %-14s %+.4f s (%.4f s traced, %.4f s untraced)" % (
            workload, row["overhead_s"], row["traced_wall_s"], row["untraced_wall_s"]))
    report_failures(all_records)
    missing = sorted({m for r in all_records for m in r.get("missing_layers", [])})
    if missing:
        print("layers not found in this version of the package: " + ", ".join(missing))
    for workload in order:
        print_digests(workload, args.seed, digests[workload])
    results = {
        "layers": {name: {"value": v, "unit": unit_for(name), "computed": c,
                          "moves": moves_for(name)} for name, (v, c) in layers.items()},
        "spans": summary,
        "overhead": overhead,
        "sweep": sweep,
        "digests": digests,
        "missing_layers": missing,
        "records": _strip_spans([all_records])[0],
    }
    return metrics, attempted, failed, results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the harness itself")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "simplex_stdp", "cli.py")):
        print("perfbench: no simplex-stdp sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(RUNS, "work"), exist_ok=True)
    run = traced_run if args.trace else measured_run
    metrics, attempted, failed, results = run(args)
    results.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "invocations": invocations(args.workload, args.smoke),
        "metrics": metrics, "attempted": attempted, "failed": failed,
    })
    name = "%s.seed%d.trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         ".smoke" if args.smoke else "")
    with open(os.path.join(RUNS, name), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
