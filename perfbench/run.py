"""Benchmark of the qcells CLI: end-to-end metrics per workload, or a traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --record-reference [--workload NAME]

Each workload is one fixed CLI invocation, run as a child process from the
source tree next to this directory (``src/``).  One process drives the load
and runs children one after another, never two at once.  Every child's
stdout must match the reference digest in ``reference.json`` (recorded at
the commit that added the benchmark), with the same exit code and no
mismatched or capped instance; any deviation or timeout is a failed run.

With ``--trace 0`` the run repeats the workload, at least once and then
while another round fits in ``--seconds``, and reports medians of the
end-to-end metrics, with set-up time measured in separate children.
Every time is scaled by the measured speed of the CPU the child ran on
(see ``SpeedSampler``); the unscaled medians are printed too.
With ``--trace 1`` it alternates untraced children with children run
through ``tracer.py`` and reports the per-layer metrics.  The inputs are deterministic enumerations fixed by the CLI
contract; the seed only orders the children (and the workloads, for
``all``).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# A child's timeout is cut so that a listed workload's run ends within
# RUN_LIMIT_S even when the program hangs.
RUN_LIMIT_S = 170.0
MIN_SETUPS = 11

# The cores of a shared host do not run at one speed.  On a 2-core VM one
# core at a time ran Python about 1.8x slower than the other, and which core
# was slow changed within seconds; steal time and CPU time do not show it.  So while a
# child runs, a sampler thread finds, every PROBE_PERIOD_S, the CPU each of
# the child's running threads is on and times a fixed probe loop there, in
# thread CPU time.  A child's speed is the mean of REF_PROBE_S / probe time
# over its samples, and its times are reported scaled by that speed: seconds
# on a core that runs the probe loop in REF_PROBE_S (an uncontended core of a
# 2-core x86 VM with Python 3.11).  The unscaled times are printed as well.
PROBE_PERIOD_S = 0.1
REF_PROBE_S = 4.3e-4


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    timeout_s: float
    listed: bool = True  # listed in BENCHMARK.json


WORKLOADS = {
    # many cheap instances sharing modules; feigin_matrix_coeff dominates
    "sweep_c3": Workload(
        ("sweep", "--cartan", "C3", "--max-length", "8", "--format", "json"), 75.0
    ),
    # the only workload on the thread pool and the per-datum build lock; its
    # wall time turns on whether the scheduler puts the two threads on one
    # core or two, which changes for minutes at a time, so it is run by name
    # only and is not in BENCHMARK.json
    "sweep_a4_jobs2": Workload(
        ("sweep", "--cartan", "A4", "--max-length", "6", "--jobs", "2"), 45.0, listed=False
    ),
    # one needed exact build of V(2,1), dim 189, plus the pairing route
    "minor_g2_21": Workload(
        ("feigin-minor", "--cartan", "G2", "--word", "1,2,1,2,1,2", "--lambda", "2,1"),
        30.0,
    ),
    # the lam' search rejects V(1,1,0), V(0,2,0), V(0,1,1) before V(0,0,2)
    "verify_b3_3232": Workload(("verify", "--cartan", "B3", "--word", "3,2,3,2"), 10.0),
    # the ROADMAP's headline target; one run takes minutes, so it is run by
    # name only and is not in BENCHMARK.json
    "g2_full": Workload(("sweep", "--cartan", "G2"), 900.0, listed=False),
    # a second-long smoke workload for the benchmark's own checks
    "smoke_a2": Workload(("sweep", "--cartan", "A2"), 10.0, listed=False),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

RAW_UNITS = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s", "cpu_speed": "ratio"}

PER_LAYER_UNITS = {
    "cli.instances": "count",
    "cli.cores_busy": "ratio",
    "cartan.enumerate_s": "s",
    "cartan.words_enumerated": "count",
    "cells.instance_p50_ms": "ms",
    "cells.instance_p90_ms": "ms",
    "cells.find_presentation_self_s": "s",
    "cells.feigin_matrix_coeff_self_s": "s",
    "cells.feigin_matrix_coeff_calls": "count",
    "cells.twist_inverse_image_s": "s",
    "cells.feigin_minor_s": "s",
    "cells.chamber_ansatz_s": "s",
    "cells.candidates_tried": "count",
    "cells.candidates_rejected": "count",
    "cells.candidate_accept_ratio": "ratio",
    "hwmod.get_module_calls": "count",
    "hwmod.module_builds": "count",
    "hwmod.module_cache_hit_ratio": "ratio",
    "hwmod.build_self_s": "s",
    "hwmod.built_dim_total": "count",
    "hwmod.rejected_build_s": "s",
    "hwmod.rejected_build_frac": "ratio",
    "hwmod.exact_rebuilds": "count",
    "hwmod.act_f_divided_s": "s",
    "hwmod.act_f_divided_calls": "count",
    "hwmod.contravariant_form_s": "s",
    "hwmod.contravariant_form_calls": "count",
    "hwmod.extremal_vector_s": "s",
    "hwmod.lock_wait_s": "s",
    "linalg.solve_square_multi_s": "s",
    "linalg.solve_square_multi_calls": "count",
    "linalg.max_block_dim": "count",
    "linalg.column_rank_profile_calls": "count",
    "linalg.solve_linear_s": "s",
    "linalg.solve_linear_calls": "count",
    "scalars.laurent_mul_self_s": "s",
    "scalars.laurent_mul_calls": "count",
    "scalars.exact_div_self_s": "s",
    "scalars.exact_div_calls": "count",
    "scalars.scalar_mul_self_s": "s",
    "scalars.scalar_mul_calls": "count",
    "scalars.scalar_add_self_s": "s",
    "scalars.scalar_add_calls": "count",
    "scalars.inverse_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Child:
    """One finished child process."""

    kind: str  # "work", "setup" or "traced"
    started: float  # unix time
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool
    ok: bool = True
    reason: str = ""
    records: int = 0
    layer: dict = field(default_factory=dict)
    speed: float = 1.0  # mean CPU speed while it ran, relative to REF_PROBE_S

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "started": round(self.started, 3),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "speed": self.speed,
            "peak_rss_mb": self.rss_mb,
            "exit": self.exit_code,
            "ok": self.ok,
            "reason": self.reason,
        }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # time the CLI as an installed one runs: with its bytecode cached
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _probe_loop() -> int:
    """Small dense convolutions and dict rebuilds of Python ints, the kind of
    work the program's scalar layer does; independent of the program."""
    a = [(i * 7919) % 1009 - 500 for i in range(24)]
    b = [(i * 104729) % 1013 - 500 for i in range(24)]
    acc = 0
    for _ in range(6):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        d = {e: c for e, c in enumerate(out) if c}
        acc += sum(d.values()) % 1000003
        a = out[: len(a)]
    return acc


def probe_cpu(cpu: int | None) -> float:
    """Thread CPU seconds the probe loop takes on ``cpu`` (where the calling
    thread runs, when None or when it cannot be pinned)."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
    t0 = time.thread_time()
    _probe_loop()
    return max(time.thread_time() - t0, 1e-6)


def _stat_fields(path: str) -> list[str]:
    with open(path, encoding="ascii", errors="replace") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def child_cpus(pid: int) -> list[int | None]:
    """CPUs that ``pid``'s running threads are on; if none is running, the
    CPU its main thread last ran on, or [None] when /proc cannot tell."""
    running = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                fields = _stat_fields(f"/proc/{pid}/task/{tid}/stat")
            except OSError:
                continue
            if fields[0] == "R":
                running.append(int(fields[36]))
        return running or [int(_stat_fields(f"/proc/{pid}/stat")[36])]
    except (OSError, IndexError, ValueError):
        return [None]


class SpeedSampler(threading.Thread):
    """Samples the speed of the CPUs a child runs on until ``finish``."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.speeds: list[float] = []
        self._halt = threading.Event()
        self.start()

    def sample(self) -> None:
        cpus = child_cpus(self.pid)
        self.speeds.append(statistics.fmean(REF_PROBE_S / probe_cpu(c) for c in cpus))

    def run(self) -> None:
        while not self._halt.wait(PROBE_PERIOD_S):
            self.sample()

    def finish(self) -> float:
        """Stop sampling; call before the child is reaped.  A child shorter
        than one period gets one sample, taken on the CPU it ended on."""
        self._halt.set()
        self.join()
        if not self.speeds:
            self.sample()
        return statistics.fmean(self.speeds)


def spawn(args: list[str], timeout_s: float, kind: str) -> Child:
    """Run ``python3 args...`` to completion; wall time is spawn to exit and
    CPU and peak RSS come from the child's own rusage.  The speed of the CPUs
    it ran on is sampled while it runs."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2)]
    started = time.time()
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], _child_env(), file_actions=actions
        )
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    timed_out = False
    reaped = False
    sampler = SpeedSampler(pid)
    speed = 1.0
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            deadline = t0 + timeout_s
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0 and not timed_out:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                for key, _ in sel.select(None if timed_out else left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        speed = sampler.finish()
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            sampler.finish()
            os.waitpid(pid, 0)
        os.close(out_r)
        os.close(err_r)
    return Child(
        kind=kind,
        started=started,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if timed_out else os.waitstatus_to_exitcode(status),
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
        timed_out=timed_out,
        speed=speed,
    )


_TEXT_SUMMARY = re.compile(
    r"^\S+: (\d+) instances, (\d+) equal, (\d+) mismatched, (\d+) capped$"
)


def summary_counts(stdout: bytes) -> dict[str, int]:
    """Instance counts as the CLI reports them: the sweep summary line, the
    per-instance status of ``verify``, or the verdict of ``feigin-minor``."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    last = lines[-1] if lines else ""
    if last.startswith('{"summary"'):
        s = json.loads(last)["summary"]
        return {k: s[k] for k in ("instances", "equal", "mismatched", "capped")}
    m = _TEXT_SUMMARY.match(last)
    if m:
        total, equal, mismatched, capped = map(int, m.groups())
        return {"instances": total, "equal": equal, "mismatched": mismatched, "capped": capped}
    if last.startswith("equal: "):
        ok = last == "equal: yes"
        return {"instances": 1, "equal": int(ok), "mismatched": int(not ok), "capped": 0}
    counts = {"instances": 0, "equal": 0, "mismatched": 0, "capped": 0}
    for line in lines:
        status = re.search(r" k=\d+: (ok|MISMATCH|CAP)\b", line)
        if status:
            counts["instances"] += 1
            key = {"ok": "equal", "MISMATCH": "mismatched", "CAP": "capped"}
            counts[key[status.group(1)]] += 1
    return counts


def check(child: Child, ref: dict) -> Child:
    """Mark the child failed on a timeout, a different exit code or digest,
    or any mismatched or capped instance; count its verified records."""
    reasons = []
    if child.timed_out:
        reasons.append("timeout")
    else:
        if child.exit_code != ref["exit"]:
            reasons.append(f"exit {child.exit_code} != {ref['exit']}")
        digest = hashlib.sha256(child.stdout).hexdigest()
        if digest != ref["sha256"]:
            reasons.append("stdout digest differs from the reference")
        counts = summary_counts(child.stdout)
        if counts["mismatched"] or counts["capped"]:
            reasons.append(f"{counts['mismatched']} mismatched, {counts['capped']} capped")
        child.records = counts["equal"]
    if child.kind == "traced" and not child.timed_out:
        try:
            child.layer = json.loads(child.stderr.decode().splitlines()[-1])["metrics"]
        except (IndexError, ValueError, KeyError):
            reasons.append("traced run wrote no metrics")
    child.ok = not reasons
    child.reason = "; ".join(reasons)
    if not child.ok:
        child.records = 0
    return child


class Runner:
    """Runs one workload's children in sequence and keeps every result."""

    def __init__(self, name: str, ref: dict, seconds: float, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.ref = ref
        self.seconds = seconds
        self.rng = random.Random(f"{seed}:{name}")
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S if self.wl.listed else float("inf")
        self.children: list[Child] = []

    def _timeout(self) -> float:
        return max(1.0, min(self.wl.timeout_s, self.deadline - time.perf_counter()))

    def work(self, traced: bool = False) -> Child:
        script = [str(HERE / "tracer.py")] if traced else ["-m", "qcells.cli"]
        kind = "traced" if traced else "work"
        child = check(spawn(script + list(self.wl.argv), self._timeout(), kind), self.ref)
        self.children.append(child)
        if not child.ok:
            print(f"{self.name}: {kind} run failed: {child.reason}", file=sys.stderr)
        return child

    def setup(self) -> Child:
        child = spawn([str(HERE / "setup_child.py"), *self.wl.argv], self._timeout(), "setup")
        if child.exit_code != 0:
            raise RuntimeError(
                f"{self.name}: set-up child failed: {child.stderr.decode()[-2000:]}"
            )
        self.children.append(child)
        return child

    def repeat(self, one_round) -> None:
        """Run rounds while the next one, as long as the median round so far,
        would still end within --seconds; always at least one."""
        rounds: list[float] = []
        while True:
            t0 = time.perf_counter()
            one_round()
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - self.start
            if elapsed + statistics.median(rounds) > self.seconds:
                return

    def of(self, kind: str) -> list[Child]:
        return [c for c in self.children if c.kind == kind]

    def counted(self) -> list[Child]:
        return [c for c in self.children if c.kind != "setup"]


def run_untraced(r: Runner) -> dict[str, float]:
    # one set-up child compiles bytecode and warms the file cache untimed
    r.setup()
    r.children.clear()

    def one_round() -> None:
        steps = [r.setup, r.work]
        r.rng.shuffle(steps)
        for step in steps:
            step()

    r.repeat(one_round)
    while len(r.of("setup")) < MIN_SETUPS:
        r.setup()
    work = r.of("work")
    med = statistics.median
    return {
        "wall_s": med(c.ref_wall_s for c in work),
        "instances_per_s": med(c.records / c.ref_wall_s for c in work),
        "cpu_s": med(c.ref_cpu_s for c in work),
        "peak_rss_mb": med(c.rss_mb for c in work),
        "setup_s": med(c.ref_wall_s for c in r.of("setup")),
        "ok_frac": sum(c.ok for c in work) / len(work),
    }


def unscaled(r: Runner) -> dict[str, float]:
    """The measured times before scaling by CPU speed, and the speed."""
    work = r.of("work")
    med = statistics.median
    return {
        "raw_wall_s": med(c.wall_s for c in work),
        "raw_cpu_s": med(c.cpu_s for c in work),
        "raw_setup_s": med(c.wall_s for c in r.of("setup")),
        "cpu_speed": med(c.speed for c in work),
    }


def run_traced(r: Runner) -> dict[str, float]:
    r.setup()
    r.children.clear()

    def one_round() -> None:
        traced_first = r.rng.random() < 0.5
        for traced in (traced_first, not traced_first):
            r.work(traced)

    r.repeat(one_round)
    med = statistics.median
    plain = r.of("work")
    layers = [c.layer for c in r.of("traced") if c.layer]
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        values = [layer[name] for layer in layers if name in layer]
        metrics[name] = med(values) if values else 0.0
    plain_wall = med(c.ref_wall_s for c in plain)
    traced_wall = med(c.ref_wall_s for c in r.of("traced"))
    metrics["cli.cores_busy"] = med(c.cpu_s / c.wall_s for c in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return metrics


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_record(seed: int, seconds: float, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": round(time.time(), 3),
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference(names: list[str]) -> None:
    ref = load_reference() if REFERENCE.exists() else {}
    for name in names:
        wl = WORKLOADS[name]
        child = spawn(["-m", "qcells.cli", *wl.argv], wl.timeout_s, "work")
        if child.timed_out:
            raise RuntimeError(f"{name}: timed out while recording the reference")
        ref[name] = {
            "argv": ["qcells", *wl.argv],
            "exit": child.exit_code,
            "sha256": hashlib.sha256(child.stdout).hexdigest(),
            "bytes": len(child.stdout),
            "counts": summary_counts(child.stdout),
            "wall_s": round(child.wall_s, 2),
        }
        print(f"{name}: exit {child.exit_code}, {ref[name]['counts']}, {child.wall_s:.1f} s")
    ref = dict(sorted(ref.items()))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


def _print_metrics(name: str, metrics: dict, units: dict) -> None:
    for key, value in metrics.items():
        print(f"{name:>16}  {key:<36} {value:>14.6g} {units[key]}")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full run record here")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="run each workload once and store its output digest as the reference",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qcells" / "cli.py").is_file():
        print(f"error: no qcells sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)

    if args.workload == "all":
        names = [n for n, wl in WORKLOADS.items() if wl.listed]
        random.Random(args.seed).shuffle(names)
    else:
        names = [args.workload]
    if args.record_reference:
        record_reference(names)
        return 0
    reference = load_reference()

    record = run_record(args.seed, args.seconds, args.trace)
    print(json.dumps({"run": record}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    results = {}
    attempted = failed = 0
    for name in names:
        r = Runner(name, reference[name], args.seconds, args.seed)
        metrics = run_traced(r) if args.trace else run_untraced(r)
        counted = r.counted()
        bad = sum(not c.ok for c in counted)
        attempted += len(counted)
        failed += bad
        results[name] = metrics
        record.setdefault("workloads", {})[name] = {
            "metrics": metrics,
            "children": [c.summary() for c in r.children],
        }
        _print_metrics(name, metrics, units)
        print(f"{name:>16}  {'failed_frac':<36} {bad / len(counted):>14.6g} ratio")
        if not args.trace:
            raw = unscaled(r)
            record["workloads"][name]["unscaled"] = raw
            _print_metrics(name, raw, RAW_UNITS)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{n}/{k}": v for n, m in results.items() for k, v in m.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]} for k, v in flat.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
