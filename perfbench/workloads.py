"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N [--trace] [--setup-only]
    python3 perfbench/workloads.py --speedup

Prints one JSON object on stdout: set-up and run time, the wall time of
each package call and of the reference passes between them, peak memory,
the correctness comparisons made and failed, and with --trace the per-layer
breakdown.  perfbench/run.py starts these processes one after another; a
fresh interpreter per repetition means the package's lru caches start cold,
as they do for every command-line invocation.

Workloads call only the package's documented entry points, with default
worker counts.  The seed only shuffles the order of codes and scan modes;
every order is checked against the same closed forms and digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

# Codes are (q, l, lp); Grassmann codes are (l, m, q).  Each scan code is
# scanned once per mode, on its own LinearCode, so no mode reuses a result
# cached by another.
SCAN_CODES = {
    "scan-q2": ((2, 3, 3),),
    # one code per field kind: 2^e, odd prime, odd p^e
    "scan-field": ((4, 2, 2), (7, 1, 3), (9, 1, 2)),
}
MODES = ("min", "dist", "words")
CONSTRUCT_AFFINE = ((2, 3, 4), (2, 2, 6), (4, 2, 3), (9, 2, 2))
CONSTRUCT_GRASSMANN = ((2, 5, 3), (3, 6, 2))
ACCEPTANCE_FIELDS = (2, 3, 4)
SPEEDUP_CODE = (2, 3, 3)
WORKLOADS = ("scan-q2", "scan-field", "acceptance", "construct")

# Traced layer boundaries: metric prefix, module, attribute ("Class.method"
# for a method).  GF.add and GF.mul are left out on purpose: the acceptance
# workload calls them millions of times and a wrapper would dominate.
TARGETS = (
    ("fields.field_make", "agcodes.fields", "field_make"),
    ("matrices.minor", "agcodes.matrices", "MatrixGF.minor"),
    ("matrices.rank", "agcodes.matrices", "MatrixGF.rank"),
    ("matrices.det", "agcodes.matrices", "MatrixGF.det"),
    ("minors.det_product_expansion", "agcodes.minors", "det_product_expansion"),
    ("minors.specialize_row", "agcodes.minors", "specialize_row"),
    ("minors.row_vanishing_locus", "agcodes.minors", "row_vanishing_locus"),
    ("minors.evaluate", "agcodes.minors", "MinorCombination.evaluate"),
    ("code.points", "agcodes.code", "points"),
    ("code.build", "agcodes.code", "build"),
    ("code.scan_min", "agcodes.code", "min_distance"),
    ("code.scan_dist", "agcodes.code", "weight_distribution"),
    ("code.scan_words", "agcodes.code", "min_weight_codewords"),
    ("code.encode", "agcodes.code", "LinearCode.encode"),
    ("code.contains", "agcodes.code", "LinearCode.contains"),
    ("group.enumerate_group", "agcodes.group", "enumerate_group"),
    ("group.permutation", "agcodes.group", "permutation"),
    ("group.compose", "agcodes.group", "compose"),
    ("group.act_on_poly", "agcodes.group", "act_on_poly"),
    ("group.min_weight_witness", "agcodes.group", "min_weight_witness"),
    ("group.generate_min_weight_polys", "agcodes.group", "generate_min_weight_polys"),
    ("grassmann.build", "agcodes.grassmann", "build_grassmann_code"),
    ("grassmann.cell_compare", "agcodes.grassmann", "cell_restriction_compare"),
)
SCAN_MODE_OF = {"code.scan_min": "min", "code.scan_dist": "dist", "code.scan_words": "words"}
# verify.ACCEPTANCE entries by function name without the "check_" prefix.
CHECKS = (
    "example_code",
    "min_distance_grid",
    "min_weight_census",
    "min_weight_characterization",
    "automorphism_suite",
    "algebra_identities",
    "grassmann_bridge",
    "formula_grid",
)
FIELD_KINDS = ("q2", "p", "2e", "pe")


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}_calls"] = "count"
        out[f"{name}_s"] = "s"
    out["code.msgs"] = "count"
    for kind in FIELD_KINDS:
        out[f"code.us_per_msg.{kind}"] = "us"
    out["code.scan_speedup_nproc"] = "ratio"
    for check in CHECKS:
        out[f"verify.check.{check}_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


# -- closed forms, kept here so the gate does not trust the package's own --


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def gaussian(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def min_distance_of(q: int, l: int, lp: int) -> int:
    return q ** (l * lp - l * l) * gl_order(l, q)


def min_weight_count_of(q: int, l: int, lp: int) -> int:
    return (q - 1) * q ** (l * l) * gaussian(lp, l, q)


def field_kind(p: int, e: int) -> str:
    if p == 2:
        return "q2" if e == 1 else "2e"
    return "p" if e == 1 else "pe"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def digest_key(kind: str, c) -> str:
    return f"{kind}/" + ",".join(map(str, c))


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


# -- the correctness gate --


class Gate:
    """Counts correctness comparisons; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def check_min(gate: Gate, c, d: int) -> None:
    expect = min_distance_of(*c)
    gate.expect(d == expect, f"{c}: blind d = {d}, closed form {expect}")


def check_dist(gate: Gate, c, dist: dict[int, int], digests: dict[str, str]) -> None:
    q, l, lp = c
    d, a_d = min_distance_of(*c), min_weight_count_of(*c)
    positive = [w for w, n in dist.items() if w > 0 and n]
    gate.expect(dist.get(d, 0) == a_d, f"{c}: A_d = {dist.get(d, 0)}, closed form {a_d}")
    gate.expect(sum(dist.values()) == q ** comb(l + lp, l), f"{c}: distribution does not sum to q^k")
    gate.expect(bool(positive) and min(positive) == d, f"{c}: smallest positive weight != {d}")
    got = digest(sorted(dist.items()))
    gate.expect(got == digests.get(digest_key("dist", c)), f"{c}: distribution digest {got[:12]} differs")


def check_words(gate: Gate, c, words) -> None:
    d, a_d = min_distance_of(*c), min_weight_count_of(*c)
    gate.expect(len(words) == a_d, f"{c}: {len(words)} minimum words, closed form {a_d}")
    heavy = sum(1 for w in words if sum(1 for x in w if x) != d)
    gate.expect(heavy == 0, f"{c}: {heavy} minimum words without weight {d}")


# -- workloads: set-up (timed as setup_s) and the timed work (run_s) --


def setup(workload: str):
    import agcodes

    if workload in SCAN_CODES:
        return [(c, agcodes.build(agcodes.CodeParams(*c))) for c in SCAN_CODES[workload]]
    if workload == "acceptance":
        for q in ACCEPTANCE_FIELDS:
            agcodes.CodeParams(q, 1, 1).field()
        return None
    for c in CONSTRUCT_AFFINE:
        agcodes.CodeParams(*c).field()
    return {g: agcodes.CodeParams(g[2], g[0], g[1] - g[0]).field() for g in CONSTRUCT_GRASSMANN}


# -- the host-speed gauge --

REF_PASSES = 5  # reference passes before each package call and after the last


def reference() -> None:
    """A fixed piece of pure-Python work of the kind the package does: small
    tuples, dict updates and integer popcounts, about 4-8 ms."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(6000):
        key = (i & 7, (i * 5) & 15, i % 11)
        counts[key] = counts.get(key, 0) + bin(i * 2654435761 & 0xFFFFF).count("1")


class Clock:
    """Times the package calls of one repetition, and the reference passes
    made between them.

    The host is shared and switches, every few seconds, between a fast state
    and one up to 2x slower, in proportions that drift over minutes.  The
    reference passes sample that state all through the repetition, so a
    call's time can be read against them (see run.scaled).
    """

    def __init__(self) -> None:
        self.calls: dict[str, float] = {}
        self.refs: list[float] = []

    def gauge(self) -> None:
        for _ in range(REF_PASSES):
            start = time.perf_counter()
            reference()
            self.refs.append(time.perf_counter() - start)

    def call(self, label: str, fn, *args):
        self.gauge()
        start = time.perf_counter()
        result = fn(*args)
        self.calls[label] = time.perf_counter() - start
        return result


def run(workload: str, state, gate: Gate, rng: random.Random, clock: Clock) -> None:
    """The timed work: each package call goes through `clock`, under a label
    that names the call and its code."""
    import agcodes

    call = clock.call
    if workload in SCAN_CODES:
        scans = {
            "min": agcodes.min_distance,
            "dist": agcodes.weight_distribution,
            "words": agcodes.min_weight_codewords,
        }
        digests = load_digests()
        tasks = [(c, code, mode) for c, code in state for mode in MODES]
        rng.shuffle(tasks)
        for c, code, mode in tasks:
            fresh = agcodes.LinearCode(code.gf, code.generator, params=code.params)
            result = call(digest_key(mode, c), scans[mode], fresh)
            if mode == "min":
                check_min(gate, c, result)
            elif mode == "dist":
                check_dist(gate, c, result, digests)
            else:
                check_words(gate, c, result)
    elif workload == "acceptance":
        from agcodes import verify

        # the host is gauged before each criterion too, so that the samples
        # cover the whole call; their time is taken out of the call's
        def gauged(fn):
            def criterion():
                clock.gauge()
                return fn()

            return criterion

        criteria = getattr(verify, "ACCEPTANCE", ())
        verify.ACCEPTANCE = tuple((n, gauged(fn)) for n, fn in criteria)
        before = len(clock.refs)
        results = call("run_acceptance", verify.run_acceptance)
        clock.calls["run_acceptance"] -= sum(clock.refs[before + REF_PASSES:])
        gate.expect(bool(results), "run_acceptance returned no checks")
        for res in results:
            gate.expect(res.ok, f"{res.name}: {res.detail}")
    else:
        digests = load_digests()
        tasks = [("affine", c) for c in CONSTRUCT_AFFINE]
        tasks += [("grassmann", g) for g in CONSTRUCT_GRASSMANN]
        rng.shuffle(tasks)
        for kind, c in tasks:
            if kind == "affine":
                q, l, lp = c
                code = call(digest_key("build", c), agcodes.build, agcodes.CodeParams(*c))
                n, k = q ** (l * lp), comb(l + lp, l)
            else:
                l, m, q = c
                code = call(digest_key("grassmann", c), agcodes.build_grassmann_code, l, m, state[c])
                n, k = gaussian(m, l, q), comb(m, l)
                report = call(digest_key("cells", c), agcodes.cell_restriction_compare, l, m, state[c])
                cell = q ** (l * (m - l))
                gate.expect(report.cell_size == cell, f"{c}: cell {report.cell_size}, expected {cell}")
                gate.expect(len(report.matches) == k, f"{c}: {len(report.matches)} matches, expected {k}")
            gate.expect((code.n, code.k) == (n, k), f"{kind} {c}: [{code.n}, {code.k}], expected [{n}, {k}]")
            key = digest_key(kind, c)
            got = digest(code.generator)
            gate.expect(got == digests.get(key), f"{key}: generator digest {got[:12]} differs")


# -- tracing --


def install_tracing(workload: str):
    """Patch every traced boundary; returns the tracer and the scan log.

    The scan log holds (span index, field kind, messages) for each call that
    scans: the first blind call of a mode on a code object.  A blind scan
    covers all q^k - 1 nonzero messages.
    """
    from spans import Tracer

    tracer = Tracer()
    scans: list[tuple[int, str, int]] = []
    seen: dict[tuple[int, str], object] = {}  # holds the codes, so ids stay unique

    def scan_hook(mode):
        def hook(span, args, kwargs):
            code = args[0] if args else kwargs.get("code")
            if kwargs.get("early_exit_at") is not None or (id(code), mode) in seen:
                return
            seen[(id(code), mode)] = code
            scans.append((span, field_kind(code.gf.p, code.gf.e), code.gf.q**code.k - 1))

        return hook

    for name, module, attr in TARGETS:
        mode = SCAN_MODE_OF.get(name)
        tracer.patch(name, module, attr, on_call=scan_hook(mode) if mode else None)
    if workload == "acceptance":
        from agcodes import verify

        verify.ACCEPTANCE = tuple(
            (number, tracer.wrap("verify.check." + fn.__name__.removeprefix("check_"), fn))
            for number, fn in verify.ACCEPTANCE
        )
    return tracer, scans


def layer_report(tracer, scans) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced repetition, and reasons for absences."""
    from spans import aggregate

    selfs = tracer.self_times()
    totals = aggregate(tracer.names, tracer.span_name, selfs)
    absent = dict(tracer.absent)
    out: dict[str, float] = {}
    for name, _, _ in TARGETS:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}_calls"] = calls
        out[f"{name}_s"] = self_s
    msgs = dict.fromkeys(FIELD_KINDS, 0)
    busy = dict.fromkeys(FIELD_KINDS, 0.0)
    for span, kind, count in scans:
        msgs[kind] += count
        busy[kind] += selfs[span]
    out["code.msgs"] = sum(msgs.values())
    for kind in FIELD_KINDS:
        metric = f"code.us_per_msg.{kind}"
        out[metric] = 1e6 * busy[kind] / msgs[kind] if msgs[kind] else 0.0
        if not msgs[kind]:
            absent[metric] = "no code over this kind of field is scanned in this workload"
    inclusive: dict[str, float] = {}
    for nid, s, e in zip(tracer.span_name, tracer.start, tracer.end):
        name = tracer.names[nid]
        if name.startswith("verify.check."):
            inclusive[name] = inclusive.get(name, 0.0) + (e - s)
    for check in CHECKS:
        name = f"verify.check.{check}"
        out[f"{name}_s"] = inclusive.get(name, 0.0)
        if name not in inclusive:
            absent[f"{name}_s"] = "no such acceptance check ran in this workload"
    return out, absent


def speedup(gate: Gate) -> float | None:
    """weight_distribution time at 1 worker over its time at nproc workers,
    or None when the workers argument is gone."""
    import inspect

    import agcodes

    if "workers" not in inspect.signature(agcodes.weight_distribution).parameters:
        return None
    nproc = os.cpu_count() or 1
    code = agcodes.build(agcodes.CodeParams(*SPEEDUP_CODE))
    digests = load_digests()
    elapsed = {}
    for workers in (1, nproc):
        fresh = agcodes.LinearCode(code.gf, code.generator, params=code.params)
        start = time.perf_counter()
        dist = agcodes.weight_distribution(fresh, workers=workers)
        elapsed[workers] = time.perf_counter() - start
        check_dist(gate, SPEEDUP_CODE, dist, digests)
    return elapsed[1] / elapsed[nproc]


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--speedup", action="store_true")
    args = ap.parse_args(argv)
    gate = Gate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import agcodes

    if not Path(agcodes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported agcodes from {agcodes.__file__}, not from {SRC}")
    if args.speedup:
        out = {"speedup": speedup(gate)}
    else:
        if args.workload == "acceptance":
            import agcodes.verify  # noqa: F401  (imported before patching)
        traced = install_tracing(args.workload) if args.trace else None
        state = setup(args.workload)
        setup_done = time.perf_counter()
        out = {"setup_s": setup_done - start}
        clock = Clock()
        if args.setup_only:
            clock.gauge()  # one more sample of the host's state, between repetitions
        else:
            try:
                run(args.workload, state, gate, random.Random(args.seed), clock)
            except Exception as exc:  # a raise (CapExceeded too) is a failed run
                where = traceback.extract_tb(exc.__traceback__)[-1]
                gate.expect(False, f"raised {exc!r} at {where.filename}:{where.lineno}")
            clock.gauge()
            out["run_s"] = time.perf_counter() - setup_done
            out["calls"] = clock.calls
        out["refs"] = clock.refs
        if traced is not None:
            out["layers"], out["absent"] = layer_report(*traced)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=gate.attempted, failed=gate.failed, failures=gate.failures)
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
