"""Spans around calls into simplex-stdp's modules, recorded from outside.

`install` replaces module attributes that the CLI looks up at call time
(`cli.theory.run_gap_ensemble`, `cli.run_trajectory`, `cli.SCENARIOS[name]`,
...) with wrappers that record one span per call: name, start, end, parent
span, the calling thread's CPU time and a few work counts derived from the
call's arguments and result. No package code changes.

`summarize` turns the spans of many invocations into per-layer totals and
self times; `layer_metrics` turns those into the benchmark's per-layer
metrics.
"""

import functools
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

from simplex_stdp.dynamics import CHUNK

MB = float(1 << 20)


def _gap_counts(a, result):
    d = len(a["p0"])
    pairs = d * (d - 1) // 2 if a["gamma"] is not None else 0
    steps = int(a["n_steps"])
    return {
        "steps": steps,
        "traj_steps": int(a["n_traj"]) * steps,
        "chunk_bytes": int(a["n_traj"]) * min(CHUNK, steps) * (1 + d + pairs) * 8,
    }


def _priming_counts(a, result):
    d = len(a["w0"])
    steps = int(a["n_steps"])
    return {
        "steps": steps,
        "traj_steps": int(a["n_traj"]) * steps,
        "chunk_bytes": int(a["n_traj"]) * min(CHUNK, steps) * (1 + d) * 8,
    }


def _sequential_counts(a, result):
    d = len(a["w0"])
    k = int(a["k_per_column"])
    return {
        "steps": d * k,
        "traj_steps": int(a["n_seeds"]) * d * k,
        "chunk_bytes": int(a["n_seeds"]) * min(CHUNK, k) * (1 + d) * 8,
    }


def _joint_counts(a, result):
    return {"steps": int(a["config"].n_steps), "clip_events": int(result.clip_events)}


def _trajectory_counts(a, result):
    return {"steps": int(a["config"].n_steps)}


def _integrate_counts(a, result):
    spec = a["spec"]
    return {"steps": int(round(spec.horizon / spec.dt))}


def _trains_counts(a, result):
    return {"events": sum(int(t.size) for t in result.times)}


def _membrane_counts(a, result):
    return {
        "events": sum(int(t.size) for t in a["trains"].times),
        "post": int(result.trigger_ids.size),
    }


def _collect_counts(a, result):
    return {"kept": int(result.size)}


def _grid_counts(a, result):
    return {"points": int(len(result[0]))}


def _csv_counts(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (attribute owner relative to the cli module, attribute, span name, counts)
LAYERS = [
    ("theory", "run_gap_ensemble", "theory.run_gap_ensemble", _gap_counts),
    ("theory", "priming_experiment", "theory.priming_experiment", _priming_counts),
    ("multi_mod", "sequential_success_ensemble", "multi.sequential_success_ensemble",
     _sequential_counts),
    ("multi_mod", "joint_run", "multi.joint_run", _joint_counts),
    (None, "run_trajectory", "dynamics.run_trajectory", _trajectory_counts),
    (None, "integrate", "flow.integrate", _integrate_counts),
    ("spiking_mod", "collect_triggers", "spiking.collect_triggers", _collect_counts),
    ("spiking_mod", "gen_poisson_trains", "spiking.gen_poisson_trains", _trains_counts),
    ("spiking_mod", "simulate_membrane", "spiking.simulate_membrane", _membrane_counts),
    (None, "landscape_grid", "simplex.landscape_grid", _grid_counts),
    (None, "write_csv", "cli.write_csv", _csv_counts),
]


class Tracer:
    """Keeps the spans of one process in memory until it exits."""

    def __init__(self):
        self.spans = []
        self.enter = None
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # spans opened on worker threads have no parent on their own stack;
        # they belong to the scenario span that started the pool
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counts=None, root=False):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else self._root}
            if root:
                self._root = span["id"]
            stack.append(span["id"])
            cpu0 = time.thread_time()
            span["start"] = time.monotonic()
            if root:
                self.enter = span["start"]
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                span["thread_cpu_s"] = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                # a changed signature or result type loses the counts, not the run
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(counts(bound.arguments, result))
                except (KeyError, TypeError, AttributeError) as exc:
                    span["count_error"] = repr(exc)
            return result

        return traced

    def install(self, cli, scenario):
        """Wrap every layer the CLI reaches, and the scenario entry point."""
        for owner_name, attr, name, counts in LAYERS:
            owner = cli if owner_name is None else getattr(cli, owner_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts))
        if scenario in cli.SCENARIOS:
            cli.SCENARIOS[scenario] = self.wrap(
                cli.SCENARIOS[scenario], "cli.scenario." + scenario, root=True
            )


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def summarize(invocations):
    """Per-span-name totals over the spans of several invocations.

    `invocations` is a list of span lists, one per child process. Self time
    is a span's duration minus the part of it that its child spans cover."""
    out = defaultdict(lambda: defaultdict(float))
    for spans in invocations:
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        for s in spans:
            dur = s["end"] - s["start"]
            kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in children[s["id"]]]
            row = out[s["name"]]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - _covered([k for k in kids if k[1] > k[0]])
            row["wait_s"] += dur - s["thread_cpu_s"]
            row["chunk_bytes_max"] = max(row["chunk_bytes_max"], s.get("chunk_bytes", 0))
            for key in ("steps", "traj_steps", "clip_events", "events", "post", "kept",
                        "points", "bytes"):
                row[key] += s.get(key, 0)
    return {name: dict(row) for name, row in out.items()}


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(summary):
    """Per-layer metrics from `summarize` output: {name: (value, computed)}.

    `computed` marks quantities derived from array sizes rather than timed."""
    def row(name):
        return summary.get(name, defaultdict(float))

    m = {}
    for name in ("theory.run_gap_ensemble", "theory.priming_experiment",
                 "multi.sequential_success_ensemble"):
        r = row(name)
        m[name + ".us_per_step"] = (1e6 * _div(r.get("s", 0.0), r.get("steps", 0)), False)
        m[name + ".traj_steps"] = (r.get("traj_steps", 0), False)
    r = row("theory.run_gap_ensemble")
    m["theory.run_gap_ensemble.wait_s"] = (r.get("wait_s", 0.0), False)
    m["theory.chunk_mb"] = (r.get("chunk_bytes_max", 0) / MB, True)
    for name in ("theory.priming_experiment", "multi.sequential_success_ensemble"):
        m[name + ".chunk_mb"] = (row(name).get("chunk_bytes_max", 0) / MB, True)
    r = row("multi.joint_run")
    m["multi.joint_run.us_per_step"] = (1e6 * _div(r.get("s", 0.0), r.get("steps", 0)), False)
    m["multi.joint_run.steps"] = (r.get("steps", 0), False)
    m["multi.joint_run.clip_events"] = (r.get("clip_events", 0), False)
    r = row("dynamics.run_trajectory")
    m["dynamics.run_trajectory.us_per_step"] = (
        1e6 * _div(r.get("s", 0.0), r.get("steps", 0)), False)
    m["dynamics.run_trajectory.calls"] = (r.get("calls", 0), False)
    m["dynamics.run_trajectory.steps"] = (r.get("steps", 0), False)
    r = row("flow.integrate")
    m["flow.integrate.us_per_step"] = (1e6 * _div(r.get("s", 0.0), r.get("steps", 0)), False)
    m["flow.integrate.steps"] = (r.get("steps", 0), False)
    mem = row("spiking.simulate_membrane")
    m["spiking.simulate_membrane.ns_per_event"] = (
        1e9 * _div(mem.get("s", 0.0), mem.get("events", 0)), False)
    m["spiking.simulate_membrane.events"] = (mem.get("events", 0), False)
    r = row("spiking.gen_poisson_trains")
    m["spiking.gen_poisson_trains.s"] = (r.get("s", 0.0), False)
    m["spiking.gen_poisson_trains.events"] = (r.get("events", 0), False)
    m["spiking.post_per_pre"] = (_div(mem.get("post", 0), mem.get("events", 0)), False)
    m["spiking.kept_ratio"] = (
        _div(row("spiking.collect_triggers").get("kept", 0), mem.get("post", 0)), False)
    r = row("simplex.landscape_grid")
    m["simplex.landscape_grid.s"] = (r.get("s", 0.0), False)
    m["simplex.landscape_grid.points"] = (r.get("points", 0), False)
    r = row("cli.write_csv")
    m["cli.write_csv.s"] = (r.get("s", 0.0), False)
    m["cli.write_csv.bytes"] = (r.get("bytes", 0), False)
    return m
