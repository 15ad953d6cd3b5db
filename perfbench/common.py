"""Shared pieces of the benchmark: run state, statistics, child
processes, output fingerprints and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working files of every run, inside the checkout (git-ignored).
OUT = ROOT / ".bench_out"

#: Setup runs at least SETUP_REPEATS times per run, and until SETUP_MIN_S
#: have been spent on it; ``setup_s`` is the fastest build.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: A child process or server call that takes longer than this fails.
CHILD_TIMEOUT_S = 60.0


def _declared(kind):
    """``name -> unit`` of the ``kind`` metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: Every workload reports each end-to-end metric under ``--trace 0``
#: (README.md maps them to each workload's operations), and each
#: per-layer metric under ``--trace 1``, as 0 where it does not exercise
#: that layer.
END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")

_children = []


class Run:
    """One benchmark invocation: its arguments and what it measured."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.metrics = {}
        self.layers = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None

    def metric(self, name, value):
        self.metrics[name] = float(value)

    def layer(self, name, value):
        self.layers[name] = float(value)

    def note(self, line):
        self.lines.append(line)

    def report(self, name, value, unit, detail=""):
        """A metric under its workload-specific name (req_per_s, ...)."""
        self.note(f"report {name} = {value} {unit}" + (f" ({detail})" if detail else ""))

    def ops(self, count):
        self.attempted += count

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def verify(self, condition, message):
        """A check that is not one operation; counts as one attempt."""
        self.attempted += 1
        if not condition:
            self.fail(message)
        return condition


def percentile(values, q):
    """Nearest-rank percentile; failed samples are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeated_setup(run, build, close):
    """Build the workload's state again and again, closing all but the
    last build; ``setup_s`` is the fastest.  Other tenants of the machine
    slow it for a second or so at a time and only ever slow a build down,
    so the fastest of builds spread over a few seconds filters them, as
    the best pass does for the sweep and EPTAS timings."""
    times = []
    state = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        if state is not None:
            close(state)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    run.metric("setup_s", min(times))
    return state


def repeat_passes(seconds, one_pass):
    """Run ``one_pass`` until ``seconds`` have passed, at least twice."""
    start = time.perf_counter()
    passes = [one_pass(), one_pass()]
    while time.perf_counter() - start < seconds:
        passes.append(one_pass())
    return passes


def start_child(argv, **kwargs):
    """Start a child in the repository root; :func:`stop_children` reaps it."""
    proc = subprocess.Popen(argv, cwd=ROOT, **kwargs)
    _children.append(proc)
    return proc


def stop_children():
    """Kill and reap every child of this run that is still alive."""
    for proc in _children:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def peak_rss_mb(pid=None):
    """Peak resident memory of a live process, or of this one."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"process {pid} reports no VmHWM")


def environment():
    info = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "missing"
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def source_id():
    """Short hash of the program's and the benchmark's sources: names the
    code a run measured."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _record_fingerprint(run, code):
    """Every run of one code and seed must produce the same outputs; an
    earlier code that produced different ones is named beside the numbers."""
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{run.workload}/seed={run.seed}"
    seen = known.setdefault(key, {})
    run.note(f"fingerprint {key} {run.fingerprint} code={code}")
    if code in seen:
        run.verify(seen[code] == run.fingerprint,
                   f"fingerprint {run.fingerprint} differs from an earlier run "
                   f"of the same code ({seen[code]})")
    for other, digest in sorted(seen.items()):
        if other != code and digest != run.fingerprint:
            run.note(f"fingerprint differs from code={other}: {digest}")
    seen.setdefault(code, run.fingerprint)
    staged = store.with_name(store.name + ".tmp")
    staged.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(staged, store)


def finish(run):
    """Print the run's lines and, last, its JSON result."""
    code = source_id()
    # A run that failed a check may have hashed partial outputs: it neither
    # sets nor tests the stored fingerprint.
    if run.fingerprint is not None and not run.problems:
        _record_fingerprint(run, code)
    fail_share = run.failed / max(run.attempted, 1)
    run.metric("ok_share", 1.0 - fail_share)
    print(f"perfbench workload={run.workload} seed={run.seed} "
          f"seconds={run.seconds} trace={int(run.trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items())
          + f" code={code}")
    for line in run.lines:
        print(line)
    print(f"report fail_share = {fail_share} ratio "
          f"({run.failed} of {run.attempted} failed)")
    for name, unit in END_TO_END.items():
        if name in run.metrics:
            print(f"metric {name} = {run.metrics[name]} {unit}")
    if run.trace:
        for name, unit in PER_LAYER.items():
            print(f"layer {name} = {run.layers.get(name, 0.0)} {unit}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    values, units = (run.layers, PER_LAYER) if run.trace else (run.metrics, END_TO_END)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
