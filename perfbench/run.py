"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload scan-q2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (perfbench/workloads.py), one at a time: a closed loop with one
client and the package's default worker counts.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it records the environment, the per-repetition samples and the reasons
for any metric reported as absent.

--trace 0 reports the end-to-end metrics: setup_s and run_s at the
reference speed (see scaled and run_time), peak_rss_mb and ok_ratio.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see workloads.layer_metrics), with
trace.overhead_s the difference between their median wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

ROOT = wl.HERE.parent
MIN_REPS = 3  # timed repetitions per untraced run, whatever --seconds says
SETUPS_PER_REP = 1  # set-up-only repetitions made before each timed one
TIME_LIMIT = 170.0  # seconds; no child is started or left running past this
REF_S = 0.004  # a reference pass on a 2-vCPU Sapphire Rapids host, unloaded


class Run:
    """The children of one benchmark run and everything they reported."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *flags: str) -> dict | None:
        cmd = [sys.executable, str(wl.HERE / "workloads.py"), *flags]
        if "--speedup" not in flags:
            cmd += ["--workload", self.workload, "--seed", str(self.seed)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, TIME_LIMIT - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return self._crashed(f"{' '.join(flags)}: timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._crashed(f"{' '.join(flags)}: exit {proc.returncode}: {proc.stderr[-500:]}")
        out = json.loads(lines[-1])
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.failures += out["failures"]
        return out

    def _crashed(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)
        return None

    def another(self, durations: list[float], seconds: float, min_reps: int) -> bool:
        """Whether to start one more repetition, given those made so far."""
        if not durations:
            return True
        typical = statistics.median(durations)
        if self.elapsed() + typical > TIME_LIMIT - 10:
            return False
        return len(durations) < min_reps or self.elapsed() + typical <= seconds


def timed(run: Run, *flags: str) -> tuple[dict | None, float]:
    start = time.monotonic()
    out = run.child(*flags)
    return out, time.monotonic() - start


def scaled(seconds: float, refs: list[float]) -> float:
    """Wall `seconds` at the reference speed: as long as they would have
    taken on a host where a reference pass (workloads.reference) takes
    REF_S, given the passes `refs` timed around them.

    On a shared host the wall time of the same calls drifts by up to 2x
    between runs a few minutes apart, with the share of time the host spends
    in its slow state.  The reference passes sample that share all through
    the run, so the scaled time moves with the package's speed and hardly
    with the host's.
    """
    return seconds * REF_S / statistics.fmean(refs)


def run_time(reps: list[dict]) -> float:
    """run_s: the mean wall time of a repetition's package calls, scaled by
    every reference pass of the run, set-up-only repetitions included."""
    work = [sum(rep["calls"].values()) for rep in reps if "calls" in rep]
    return scaled(statistics.fmean(work), [t for rep in reps for t in rep["refs"]])


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    reps: list[dict] = []
    durations: list[float] = []
    while run.another(durations, seconds, MIN_REPS):
        start = time.monotonic()
        # set-up-only repetitions spread over the run, so setup_s is a
        # median of many samples that are not all taken in one burst
        for _ in range(SETUPS_PER_REP):
            reps.append(run.child("--setup-only"))
        reps.append(run.child())
        durations.append(time.monotonic() - start)
    reps = [rep for rep in reps if rep]
    full = [rep for rep in reps if "calls" in rep]
    samples = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "calls_s": [sum(rep["calls"].values()) for rep in full],
        "ref_mean_s": [statistics.fmean(rep["refs"]) for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in full],
    }
    metrics = {}
    if full:
        metrics = {
            "setup_s": (statistics.median(scaled(rep["setup_s"], rep["refs"]) for rep in reps), "s"),
            "run_s": (run_time(reps), "s"),
            "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
            "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        }
    return metrics, samples


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    units = wl.layer_metrics()
    absent: dict[str, str] = {}
    speedup = None
    if run.workload == "scan-q2":
        out = run.child("--speedup")
        if out:
            speedup = out["speedup"]
            if speedup is None:
                absent["code.scan_speedup_nproc"] = "weight_distribution takes no workers argument"
    else:
        absent["code.scan_speedup_nproc"] = "measured only in the scan-q2 workload"
    plain, traced, layers = [], [], []
    durations: list[float] = []
    while run.another(durations, seconds, 1):
        a, took_a = timed(run)
        b, took_b = timed(run, "--trace")
        durations.append(took_a + took_b)
        if a and b:
            plain.append(a["run_s"])
            traced.append(b["run_s"])
            layers.append(b["layers"])
            absent.update(b["absent"])
    metrics = {}
    if layers:
        for name, unit in units.items():
            values = [rep[name] for rep in layers if name in rep]
            metrics[name] = (statistics.median(values) if values else 0.0, unit)
        metrics["code.scan_speedup_nproc"] = (speedup or 0.0, units["code.scan_speedup_nproc"])
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {"run_s": plain, "traced_run_s": traced}, absent


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": h.hexdigest(),
    }


def refusal() -> str | None:
    """Why this run must not start, checked before any work."""
    caps = sorted(k for k in os.environ if k.startswith("AGCODES_") and k.endswith("_CAP"))
    if caps:
        return f"refusing to run with {', '.join(caps)} set: the benchmark uses the default caps"
    if not (ROOT / "src" / "agcodes" / "__init__.py").is_file():
        return f"no package source at {ROOT / 'src' / 'agcodes'}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    why = refusal()
    if why:
        print(why, file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    run.child("--setup-only")  # warm-up: compiles bytecode, not measured
    if args.trace:
        metrics, samples, absent = measure_traced(run, args.seconds)
    else:
        (metrics, samples), absent = measure(run, args.seconds), {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "samples": samples,
        "absent": absent,
        "failures": run.failures[:20],
    }
    print(json.dumps(detail))
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
