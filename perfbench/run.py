"""Benchmark for multiport: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src/``
and is not installed.  Every operation is a fresh process, as a user
runs it: ``python -m multiport.cli ...`` for the CLI workloads, and
``perfbench/child.py kernel`` for ``kernel_n14``, which calls the library
directly.  Each operation's output goes through the correctness gate in
``gate.py``; a wrong output or a nonzero exit counts as a failed operation.

``--trace 0`` repeats the workload's pass (its sequence of operations)
for ``--seconds`` seconds with tracing off, after measuring set-up time,
and reports the end-to-end metrics as medians over passes.  Times are
scaled to a host of fixed speed: runs of fixed stdlib work (``child.py
ref``) come before and after each pass and set-up probe, and a time t
measured between reference runs of r1 and r2 seconds is reported as
t * REFERENCE_S / ((r1 + r2) / 2).  The raw times are printed as
``raw.*`` and kept in the record.  ``--trace 1``
runs one pass in-process at ``--jobs 1`` without spans and one with spans
around the package's public functions (see ``child.py``), and reports
per-layer metrics from the spans; the difference between the two passes
is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print
every metric by name and unit.  A full record (versions, commit, exact
commands, samples) and the spans go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark's own files
import gate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
CHILD = BENCH / "child.py"

# A run must exit within 180 s; children still running at this point are killed.
HARD_LIMIT_S = 165.0
SETUP_REPS = 7
# On a shared host, speed drifts by 20-50% over seconds to minutes (other
# tenants on the same cores).  Runs of fixed stdlib work (child.py ref) come
# before and after each timed pass and set-up probe, whose times are scaled
# to a host on which that work takes REFERENCE_S:
# value * REFERENCE_S / (mean of the two reference times).
REFERENCE_S = 0.4

KERNEL_N = 14
KERNEL_Q0_CLASSES = 4
KERNEL_QNZ_CLASSES = 2


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One operation: a CLI command (args) or, for kernel_n14, a class sample."""

    name: str
    check: Callable[[str], list[str]]
    tamper: Callable[[str], str]
    args: list[str] = field(default_factory=list)
    sample: list[list[int]] | None = None
    role: str = ""


@dataclass
class Workload:
    name: str
    setup_calls: list[str]
    ops: list[Op]
    uses_cache: bool = False


def _bump_last_csv_field(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{int(last) + 1}"
    return "\n".join(lines) + "\n"


def _bump_last_enhancement(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{Fraction(last) + 1}"
    return "\n".join(lines) + "\n"


def _bump_first_quantum(text: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[0]["quantum"] = repr(float(rows[0]["quantum"]) + 1e-6)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _bump_first_quantum_json(text: str) -> str:
    doc = json.loads(text)
    doc["rows"][0]["p_quantum"] += 1e-6
    return json.dumps(doc)


def _double_z(text: str) -> str:
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        rec["z"] = str(2 * int(rec["z"]))
        out.append(json.dumps(rec))
    return "\n".join(out) + "\n"


def _canonical_class(s: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation or reflection of s."""
    rev = s[::-1]
    return min(t[i:] + t[:i] for t in (s, rev) for i in range(len(s)))


def kernel_sample(seed: int, n: int = KERNEL_N) -> list[list[int]]:
    """Q = 0 and Q != 0 classes drawn uniformly over compositions, plus the
    worst case (1,)*n and the fully bunched (n,0,...,0)."""
    rng = random.Random(seed)
    q0: list[tuple[int, ...]] = []
    qnz: list[tuple[int, ...]] = []
    while len(q0) < KERNEL_Q0_CLASSES or len(qnz) < KERNEL_QNZ_CLASSES:
        bars = sorted(rng.sample(range(2 * n - 1), n - 1))
        edges = [-1] + bars + [2 * n - 1]
        s = _canonical_class(tuple(edges[i + 1] - edges[i] - 1 for i in range(n)))
        bucket, want = (q0, KERNEL_Q0_CLASSES) if gate.suppression_q(s) == 0 else (qnz, KERNEL_QNZ_CLASSES)
        if len(bucket) < want and s not in bucket:
            bucket.append(s)
    fixed = [(1,) * n, (n,) + (0,) * (n - 1)]
    return [list(s) for s in q0 + qnz + fixed]


# Sizes keep one pass under ~8 s on a 2-core Xeon, so that a 20 s run holds
# several passes: table1 up to n = 11 alone takes ~26 s there, and the
# n = 11 dist sequence ~15 s.
def make_workload(name: str, seed: int) -> Workload:
    if name == "census":
        n_max = 10
        return Workload(
            name,
            [f"exact:{n}" for n in range(2, n_max + 1)],
            [Op("table1", lambda t: gate.check_table1(t, n_max), _bump_last_csv_field,
                ["table1", "--n-max", str(n_max), "--mode", "exact", "--jobs", "2"])],
        )
    if name == "classes_exact":
        n = 10
        return Workload(
            name,
            [f"exact:{n}"],
            [Op("classes", lambda t: gate.check_classes_exact(t, n), _bump_last_enhancement,
                ["classes", "--n", str(n), "--mode", "exact", "--jobs", "2"])],
        )
    if name == "dist_cached":
        n = 10
        dist = ["dist", "--n", str(n), "--kind"]
        return Workload(
            name,
            [f"float:{n}"],
            [
                Op("dist occupied-ports", lambda t: gate.check_dist(t, n, "occupied-ports"),
                   _bump_first_quantum, dist + ["occupied-ports"], role="miss"),
                Op("dist port-occupancy", lambda t: gate.check_dist(t, n, "port-occupancy"),
                   _bump_first_quantum, dist + ["port-occupancy"], role="hit"),
                Op("dist port-occupancy at-least-one",
                   lambda t: gate.check_dist(t, n, "port-occupancy", "at-least-one"),
                   _bump_first_quantum, dist + ["port-occupancy", "--variant", "at-least-one"], role="hit"),
                Op("dist classical-classes", lambda t: gate.check_dist(t, n, "classical-classes"),
                   _bump_first_quantum, dist + ["classical-classes"], role="hit"),
                Op("classes json", lambda t: gate.check_classes_json(t, n), _bump_first_quantum_json,
                   ["classes", "--n", str(n), "--format", "json"], role="hit"),
            ],
            uses_cache=True,
        )
    if name == "kernel_n14":
        sample = kernel_sample(seed)
        return Workload(
            name,
            [f"exact:{KERNEL_N}", f"float:{KERNEL_N}"],
            [Op("kernel sample", lambda t: gate.check_kernel(t, sample), _double_z, sample=sample)],
        )
    raise ValueError(name)


WORKLOAD_NAMES = ("census", "classes_exact", "dist_cached", "kernel_n14")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    out: str
    err: str


class Runner:
    """Starts children under one deadline and measures each with wait4."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.commands: list[list[str]] = []
        env = {k: v for k, v in os.environ.items()
               if k not in ("MULTIPORT_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # A bytecode cache of the benchmark's own, so set-up time does not
        # depend on whether src/**/__pycache__ exists.
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        # One BLAS thread: the package's matrices are at most 2^14 x 14, and
        # on a 2-core box a BLAS thread pool adds start-up and spin-waiting
        # to every process and makes wall time depend on the other core.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env = env

    def run(self, cmd: list[str], extra_env: dict | None = None) -> Proc:
        self.count += 1
        out_path = self.tmp / f"out{self.count}"
        err_path = self.tmp / f"err{self.count}"
        env = dict(self.env, **(extra_env or {}))
        self.commands.append([f"{k}={v}" for k, v in (extra_env or {}).items()] + cmd)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(0.0, 0.0, 0.0, -1, "", "not started: run deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Proc(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit=proc.returncode,
            out=out_path.read_text(encoding="utf-8", errors="replace"),
            err=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        return result


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "multiport.cli", *args]


def child_cmd(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(CHILD), mode, *args]


def with_jobs(args: list[str], jobs: int) -> list[str]:
    out = list(args)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = str(jobs)
    return out


def reference_s(runner: Runner) -> float:
    """Time of the fixed stdlib work in child.py ref, as the host runs now."""
    p = runner.run(child_cmd("ref"))
    if p.exit != 0:
        raise RuntimeError(f"reference run failed ({p.exit}): {p.err.strip()[-400:]}")
    return json.loads(p.out.splitlines()[-1])["ref_s"]


def measure_setup(runner: Runner, workload: Workload) -> tuple[list[float], list[float], dict]:
    """Interpreter start + import multiport.cli + first kernel calls, which
    build the per-n tables.  CLOCK_MONOTONIC is shared by all processes.
    Returns the raw times and the reference times around them."""
    samples, refs, info = [], [reference_s(runner)], {}
    for _ in range(SETUP_REPS):
        t_spawn = time.monotonic()
        p = runner.run(child_cmd("setup", *workload.setup_calls))
        if p.exit != 0:
            raise RuntimeError(f"set-up probe failed ({p.exit}): {p.err.strip()[-400:]}")
        info = json.loads(p.out.splitlines()[-1])
        samples.append(info["ready_at"] - t_spawn)
        refs.append(reference_s(runner))
    return samples, refs, info


def scales(refs: list[float]) -> list[float]:
    """Scale factor of each timed step from the reference runs around it."""
    return [2 * REFERENCE_S / (before + after) for before, after in zip(refs, refs[1:])]


def scaled(values: list[float], refs: list[float]) -> list[float]:
    return [v * k for v, k in zip(values, scales(refs))]


# ---------------------------------------------------------------------------
# passes


@dataclass
class OpResult:
    op: Op
    proc: Proc
    problems: list[str]
    meta: dict | None = None


def _cache_snapshot(cache_dir: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in cache_dir.iterdir()}


def run_pass(runner: Runner, workload: Workload, trace: int | None, jobs: int | None = None) -> list[OpResult]:
    """One pass over the workload's operations.

    trace=None runs the program as a user does; trace=0/1 runs it in-process
    in child.py without/with spans, at --jobs `jobs`.
    """
    results = []
    cache_dir = Path(tempfile.mkdtemp(prefix="cache", dir=runner.tmp)) if workload.uses_cache else None
    extra_env = {"MULTIPORT_CACHE_DIR": str(cache_dir)} if cache_dir else None
    after_miss = None
    try:
        for op in workload.ops:
            meta_path = runner.tmp / f"meta{runner.count + 1}.json"
            if op.sample is not None:
                sample_path = runner.tmp / "sample.json"
                sample_path.write_text(json.dumps(op.sample), encoding="utf-8")
                cmd = child_cmd("kernel", "--trace", str(trace or 0), "--meta", str(meta_path),
                                "--sample", str(sample_path))
            elif trace is None:
                cmd = cli_cmd(op.args)
            else:
                args = op.args if jobs is None else with_jobs(op.args, jobs)
                cmd = child_cmd("cli", "--trace", str(trace), "--meta", str(meta_path), "--", *args)
            proc = runner.run(cmd, extra_env)
            problems = [] if proc.exit == 0 else [f"exit {proc.exit}: {proc.err.strip()[-400:]}"]
            if proc.exit == 0:
                problems += op.check(proc.out)
            if "warning" in proc.err.lower():
                problems.append(f"warning on stderr: {proc.err.strip()[-400:]}")
            if cache_dir is not None:
                snap = _cache_snapshot(cache_dir)
                if op.role == "miss":
                    after_miss = snap
                    if len(snap) != 1:
                        problems.append(f"cache holds {len(snap)} entries after the miss, expected 1")
                elif snap != after_miss:
                    problems.append("cache entry written again: the command missed the cache")
            meta = None
            if meta_path.is_file():
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                meta_path.unlink()
            results.append(OpResult(op, proc, problems, meta))
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return results


def attempted_failed(results: list[OpResult]) -> tuple[int, int]:
    """A kernel sample counts each class as one operation."""
    attempted = failed = 0
    for r in results:
        size = len(r.op.sample) if r.op.sample is not None else 1
        attempted += size
        if r.problems:
            failed += size if r.proc.exit != 0 else min(size, len(r.problems))
    return attempted, failed


def gate_self_check(results: list[OpResult]) -> list[str]:
    """The gate must find a problem in a tampered copy of each output that
    it did not find in the output itself."""
    failures = []
    for r in results:
        if r.proc.exit != 0:
            failures.append(f"{r.op.name}: no output to tamper with")
        elif not set(r.op.check(r.op.tamper(r.proc.out))) - set(r.problems):
            failures.append(f"gate accepted a tampered output of {r.op.name}")
    return failures


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1 - pct / 100) >= 10:
            rank = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
            out[f"p{pct:g}"] = ordered[rank]
            break
    return out


def describe(name: str, values: list[float], unit: str) -> str:
    s = summary(values)
    tail = "".join(f", {k} {v:.6g} {unit}" for k, v in s.items() if k.startswith("p"))
    return f"{name:<34} median {s['median']:.6g} {unit}{tail} (n={s['n']})"


# ---------------------------------------------------------------------------
# per-layer metrics from spans

EXACT_SPANS = (
    "scattering.exact_quantum_probability",
    "scattering.is_suppressed_exact",
    "scattering.exact_integer_amplitude",
)
FLOAT_SPAN = "scattering.batch_quantum_probability"

LAYER_UNITS = {
    "arrangements.enumerate_s": "s",
    "arrangements.us_per_arrangement": "us",
    "arrangements.arrangements_scanned": "count",
    "arrangements.classes_found": "count",
    "arrangements.kept_ratio": "ratio",
    "scattering.exact_s": "s",
    "scattering.exact_calls": "count",
    "scattering.exact_ms.q0": "ms",
    "scattering.exact_ms.qnz": "ms",
    "scattering.exact_ms.max": "ms",
    "scattering.exact_useful_ratio": "ratio",
    "scattering.float_s": "s",
    "scattering.float_ms": "ms",
    "scattering.first_call_ms": "ms",
    "cyclotomic.reduce_s": "s",
    "cyclotomic.reduce_calls": "count",
    "statistics.class_row_self_s": "s",
    "statistics.table_sort_s": "s",
    "statistics.table1_self_s": "s",
    "statistics.dist_s.occupied-ports": "s",
    "statistics.dist_s.port-occupancy": "s",
    "statistics.dist_s.classical-classes": "s",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.corrupt": "count",
    "cli.cache.load_s": "s",
    "cli.cache.store_s": "s",
    "cli.cache.entry_bytes": "bytes",
    "cli.rows_decode_s": "s",
    "cli.pool.efficiency": "ratio",
    "cli.emit_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class SpanSet:
    """Spans of one process: [name, parent, start, end, attrs]."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent is not None:
                self.child_time[parent] += t1 - t0

    def self_time(self, i: int) -> float:
        _, _, t0, t1, _ = self.spans[i]
        return t1 - t0 - self.child_time[i]

    def row_phase(self) -> float:
        """Time compute_class_rows spends on rows: its span minus the
        enumeration and the final sort, which run in the calling process."""
        total = 0.0
        for i, dt, _ in self.named("cli.compute_class_rows"):
            total += dt - sum(t1 - t0 for name, parent, t0, t1, _ in self.spans
                              if parent == i and name != "statistics.compute_class_row")
        return total

    def has_ancestor(self, i: int, names) -> bool:
        parent = self.spans[i][1]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][1]
        return False

    def named(self, *names, outermost: bool = False):
        for i, (name, _, t0, t1, attrs) in enumerate(self.spans):
            if name in names and not (outermost and self.has_ancestor(i, names)):
                yield i, t1 - t0, attrs


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _first_call_ms(calls: list[tuple[str, int, float]]) -> float:
    """Sum over (kernel, n) of the first call's time minus the median call."""
    groups: dict[tuple[str, int], list[float]] = {}
    for kind, n, ms in calls:
        groups.setdefault((kind, n), []).append(ms)
    return sum(ms[0] - statistics.median(ms) for ms in groups.values() if len(ms) > 1)


def layer_metrics(traced: list[OpResult], pool_wall: float | None, jobs: int, overhead: float) -> dict:
    m = {k: 0.0 for k in LAYER_UNITS}
    exact_ms = {True: [], False: []}
    float_ms = []
    first_calls: list[tuple[str, int, float]] = []
    busy = 0.0
    row_phase = 0.0
    for r in traced:
        if r.meta is None:
            continue
        m["cli.startup_s"] += r.meta["import_s"]
        ss = SpanSet(r.meta["spans"])
        for _, dt, a in ss.named("arrangements.enumerate_quantum_classes"):
            m["arrangements.enumerate_s"] += dt
            m["arrangements.arrangements_scanned"] += a["scanned"]
            m["arrangements.classes_found"] += a["classes"]
        for _, dt, a in ss.named(*EXACT_SPANS, outermost=True):
            m["scattering.exact_s"] += dt
            exact_ms[a["q0"]].append(dt * 1e3)
            first_calls.append(("exact", a["n"], dt * 1e3))
        for _, dt, a in ss.named(FLOAT_SPAN, outermost=True):
            m["scattering.float_s"] += dt
            float_ms.append(dt * 1e3)
            first_calls.append(("float", a["n"], dt * 1e3))
        for _, dt, _ in ss.named("cyclotomic.reduce"):
            m["cyclotomic.reduce_s"] += dt
            m["cyclotomic.reduce_calls"] += 1
        for i, dt, _ in ss.named("statistics.compute_class_row"):
            m["statistics.class_row_self_s"] += ss.self_time(i)
            busy += dt
        for i, _, _ in ss.named("statistics.class_probability_table"):
            m["statistics.table_sort_s"] += ss.self_time(i)
        for i, _, _ in ss.named("statistics.table1"):
            m["statistics.table1_self_s"] += ss.self_time(i)
        for i, _, a in ss.named("statistics.distribution"):
            m[f"statistics.dist_s.{a['kind']}"] += ss.self_time(i)
        for _, dt, a in ss.named("cli.cache_load"):
            m["cli.cache.load_s"] += dt
            key = {"hit": "hits", "miss": "misses", "corrupt": "corrupt"}[a["outcome"]]
            m[f"cli.cache.{key}"] += 1
            m["cli.cache.entry_bytes"] = max(m["cli.cache.entry_bytes"], a["bytes"])
        for _, dt, a in ss.named("cli.cache_store"):
            m["cli.cache.store_s"] += dt
            m["cli.cache.entry_bytes"] = max(m["cli.cache.entry_bytes"], a["bytes"])
        for _, dt, _ in ss.named("cli.rows_decode"):
            m["cli.rows_decode_s"] += dt
        for _, dt, _ in ss.named("cli.emit"):
            m["cli.emit_s"] += dt
        row_phase += ss.row_phase()
    scanned = m["arrangements.arrangements_scanned"]
    if scanned:
        m["arrangements.us_per_arrangement"] = m["arrangements.enumerate_s"] / scanned * 1e6
        m["arrangements.kept_ratio"] = m["arrangements.classes_found"] / scanned
    all_exact = exact_ms[True] + exact_ms[False]
    m["scattering.exact_calls"] = len(all_exact)
    m["scattering.exact_ms.q0"] = _median_or_zero(exact_ms[True])
    m["scattering.exact_ms.qnz"] = _median_or_zero(exact_ms[False])
    m["scattering.exact_ms.max"] = max(all_exact, default=0.0)
    if all_exact:
        m["scattering.exact_useful_ratio"] = len(exact_ms[True]) / len(all_exact)
    m["scattering.float_ms"] = _median_or_zero(float_ms)
    m["scattering.first_call_ms"] = _first_call_ms(first_calls)
    # Busy time of the rows (measured at --jobs 1) over the pool's capacity:
    # jobs times the row phase of compute_class_rows at the workload's --jobs.
    wall = pool_wall if pool_wall is not None else row_phase
    if busy and wall:
        m["cli.pool.efficiency"] = busy / (jobs * wall)
    m["trace.overhead_s"] = overhead
    return m


def pool_row_phase(results: list[OpResult]) -> float:
    return sum(SpanSet(r.meta["spans"]).row_phase() for r in results if r.meta is not None)


# ---------------------------------------------------------------------------
# record


def _git(*args: str) -> str | None:
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workload: str, setup_info: dict) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": setup_info.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "kernel_n14_sample": kernel_sample(seed) if workload == "kernel_n14" else None,
    }


# ---------------------------------------------------------------------------
# main


def run_end_to_end(runner: Runner, workload: Workload, seconds: float, lines: list[str]) -> tuple[dict, list, dict, dict]:
    setup, setup_refs, setup_info = measure_setup(runner, workload)
    passes: list[list[OpResult]] = []
    refs = [reference_s(runner)]
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(runner, workload, trace=None))
        refs.append(reference_s(runner))
        now = time.monotonic()
        # Passes start until --seconds have gone, so a long pass still gets
        # more than one sample; the deadline keeps the run under its limit.
        if now - start >= seconds or now > runner.deadline - 2 * (now - t0):
            break
    walls = [sum(r.proc.wall for r in p) for p in passes]
    cpus = [sum(r.proc.cpu for r in p) for p in passes]
    rss = [max(r.proc.rss_mb for r in p) for p in passes]
    metrics = {
        "wall_s": (scaled(walls, refs), "s"),
        "cpu_s": (scaled(cpus, refs), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (scaled(setup, setup_refs), "s"),
    }
    for name, (values, unit) in metrics.items():
        lines.append(describe(name, values, unit))
    extra = {
        "raw.wall_s": (walls, "s"),
        "raw.cpu_s": (cpus, "s"),
        "raw.setup_s": (setup, "s"),
        "reference_s": (refs + setup_refs, "s"),
    }
    # Per-operation latencies, scaled like the pass they belong to.
    miss, hit, class_ms, max_per_pass = [], [], [], []
    for scale, p in zip(scales(refs), passes):
        for r in p:
            if r.op.role == "miss":
                miss.append(r.proc.wall * scale)
            elif r.op.role == "hit":
                hit.append(r.proc.wall * scale)
            if r.op.sample is not None:
                ms = [json.loads(line)["exact_ms"] * scale for line in r.proc.out.splitlines() if line.strip()]
                class_ms += ms
                if ms:
                    max_per_pass.append(max(ms))
    if workload.uses_cache:
        extra["miss_s"] = (miss, "s")
        extra["hit_s"] = (hit, "s")
    if workload.name == "kernel_n14":
        extra["class_ms.p50"] = (class_ms, "ms")
        extra["class_ms.max"] = (max_per_pass, "ms")
    for name, (values, unit) in extra.items():
        if values:
            lines.append(describe(name, values, unit))
    reported = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in metrics.items()}
    samples = {k: v for k, (v, _) in {**metrics, **extra}.items()}
    results = [r for p in passes for r in p]
    return reported, results, samples, setup_info


def run_traced(runner: Runner, workload: Workload, lines: list[str]) -> tuple[dict, list, dict]:
    untraced = run_pass(runner, workload, trace=0, jobs=1)
    traced = run_pass(runner, workload, trace=1, jobs=1)
    overhead = sum(r.proc.wall for r in traced) - sum(r.proc.wall for r in untraced)
    jobs = max((int(op.args[op.args.index("--jobs") + 1]) for op in workload.ops if "--jobs" in op.args),
               default=1)
    pool_wall = None
    probe: list[OpResult] = []
    if jobs > 1 and pool_row_phase(traced) > 0:
        probe = run_pass(runner, workload, trace=1, jobs=jobs)
        pool_wall = pool_row_phase(probe)
    m = layer_metrics(traced, pool_wall, jobs if pool_wall is not None else 1, overhead)
    for name, value in m.items():
        lines.append(f"{name:<40} {value:.6g} {LAYER_UNITS[name]}")
    reported = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in m.items()}
    spans = {f"{label}:{r.op.name}": r.meta["spans"] for label, group in
             (("traced", traced), ("pool", probe)) for r in group if r.meta is not None}
    return reported, untraced + traced + probe, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multiport benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "multiport" / "cli.py").is_file():
        print(f"error: no multiport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + HARD_LIMIT_S
    workload = make_workload(ns.workload, ns.seed)
    WORK.mkdir(exist_ok=True)
    lines = [f"workload {workload.name} (seed {ns.seed}, trace {ns.trace})"]
    with tempfile.TemporaryDirectory(prefix="run", dir=WORK) as tmp:
        runner = Runner(Path(tmp), deadline)
        # Fill the bytecode cache so no timed process compiles.
        warm = runner.run(child_cmd("setup"))
        if warm.exit != 0:
            print(f"error: cannot import multiport from src: {warm.err.strip()[-400:]}", file=sys.stderr)
            return 2
        setup_info = json.loads(warm.out.splitlines()[-1])
        spans = None
        if ns.trace:
            reported, results, spans = run_traced(runner, workload, lines)
            samples = {}
        else:
            reported, results, samples, setup_info = run_end_to_end(runner, workload, ns.seconds, lines)
        commands = runner.commands

    attempted, failed = attempted_failed(results)
    problems = [f"{r.op.name}: {p}" for r in results for p in r.problems]
    self_check = gate_self_check(results[:len(workload.ops)])
    correct = failed == 0 and not self_check
    lines.append(f"{'error_rate':<34} {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    lines.append(f"gate self-check: {'tampered output rejected' if not self_check else '; '.join(self_check)}")
    for p in problems[:20]:
        lines.append(f"FAILED {p}")

    record = {
        "environment": environment(ns.seed, workload.name, setup_info),
        "commands": commands,
        "samples": samples,
        "problems": problems,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported},
    }
    stem = f"{workload.name}-seed{ns.seed}-trace{ns.trace}"
    (WORK / "records").mkdir(exist_ok=True)
    (WORK / "records" / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (WORK / "traces").mkdir(exist_ok=True)
        (WORK / "traces" / f"{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
