"""Command line front end.

Subcommands cover the everyday questions: closed-form parameters, the
generator matrix, blind scans (minimum distance, weight distribution,
minimum weight words), randomized self-checks, the projective relatives,
and the full acceptance run.  Output is deterministic for a fixed invocation
so runs can be diffed byte for byte; JSON output uses sorted keys and
compact separators.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from itertools import chain
from typing import Callable, Iterable

from . import __version__, limits, verify
from .code import build, ensure_scannable, min_distance, min_weight_codewords, weight, weight_distribution
from .fields import field_for_order
from .grassmann import VerificationError, build_grassmann_code, cell_restriction_compare
from .minors import minor_basis
from .params import (
    CodeParams,
    dimension_formula,
    group_order_formula,
    min_distance_formula,
    min_weight_count_formula,
    stabilizer_order_formula,
)
from .verify import identity_suites, run_acceptance, run_params_suite

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    _stream((text,), out)


def _stream(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces in order, to stdout or to the file out, without
    joining them first."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _params_of(args) -> CodeParams:
    return CodeParams(args.q, args.l, args.lp)


def _add_params_args(sub) -> None:
    sub.add_argument("--q", type=int, required=True, help="field size, a prime power")
    sub.add_argument("--l", type=int, required=True, help="number of matrix rows")
    sub.add_argument("--lp", type=int, required=True, help="number of matrix columns (>= rows)")


def _group_order_digits(p: CodeParams) -> int:
    """The decimal digits of group_order_formula(p) = q^delta * prod_{j=1..lp}
    q^lp (1 - q^-j), from logarithms; factors with j > 64 round to 1, and
    the slack lets an exact power of ten (GL(1, 11) has order 10) count."""
    log = (p.delta + p.lp * p.lp) * math.log10(p.q)
    log += sum(math.log10(1 - p.q**-j) for j in range(1, min(p.lp, 64) + 1))
    return int(log + 1e-9) + 1


def _cmd_params(args) -> int:
    p = _params_of(args)
    # the group order is the largest value printed; refuse before computing
    # anything if the interpreter could not print it
    # (Python before 3.10.7 has no limit and no getter)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _group_order_digits(p)
    if limit and digits > limit:
        raise ValueError(
            f"the group order of {p} has {digits} digits, above the interpreter's "
            f"{limit}-digit limit for printing an integer (sys.get_int_max_str_digits())"
        )
    data = {
        "q": p.q,
        "l": p.l,
        "lp": p.lp,
        "n": p.npoints,
        "k": dimension_formula(p),
        "d": min_distance_formula(p),
        "min_weight_count": min_weight_count_formula(p),
        "group_order": group_order_formula(p),
        "stabilizer_order": stabilizer_order_formula(p),
    }
    if args.format == "json":
        _emit(_json(data), args.out)
    else:
        width = max(len(key) for key in data)
        lines = [f"{key.ljust(width)}  {value}" for key, value in data.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_build(args) -> int:
    p = _params_of(args)
    code = build(p)
    if args.format == "json":
        data = {
            "q": p.q,
            "l": p.l,
            "lp": p.lp,
            "n": code.n,
            "k": code.k,
            "field": str(code.gf),
            "basis": [str(mi) for mi in minor_basis(p)],
            "point_order": "flat row-major base-q integers, entry (1,1) least significant",
            "rows": [list(row) for row in code.generator],
        }
        _emit(_json(data), args.out)
    else:
        lines = [f"{p.q} {p.l} {p.lp} {code.n} {code.k}"]
        lines += [" ".join(str(x) for x in row) for row in code.generator]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mindist(args) -> int:
    p = _params_of(args)
    ensure_scannable(p)
    code = build(p)
    d = min_distance(code)
    if args.format == "json":
        _emit(_json({"d": d}), args.out)
    else:
        _emit(f"{d}\n", args.out)
    if args.check and d != min_distance_formula(p):
        print(f"check failed: scanned {d}, closed form {min_distance_formula(p)}", file=sys.stderr)
        return 1
    return 0


def _cmd_weightdist(args) -> int:
    p = _params_of(args)
    ensure_scannable(p)
    code = build(p)
    dist = weight_distribution(code)
    if args.format == "json":
        _emit(_json({"n": code.n, "weights": {str(w): c for w, c in dist.items()}}), args.out)
    else:
        lines = [f"{w} {c}" for w, c in sorted(dist.items())]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_minwords(args) -> int:
    p = _params_of(args)
    ensure_scannable(p)
    code = build(p)
    words = min_weight_codewords(code)
    names = [str(x) for x in range(p.q)]

    def entries(word, sep: str) -> str:
        return sep.join(map(names.__getitem__, word))

    # a word at a time, byte for byte what joining all the lines would give
    if args.format == "json":  # _json({"count": ..., "words": [list(w) for w in words]})
        body = (("," if i else "") + "[" + entries(w, ",") + "]" for i, w in enumerate(words))
        _stream(chain([f'{{"count":{len(words)},"words":['], body, ["]}\n"]), args.out)
    else:
        _stream(chain([f"{len(words)}\n"], (entries(w, " ") + "\n" for w in words)), args.out)
    if args.verify:
        d = min_distance_formula(p)
        expected = min_weight_count_formula(p)
        bad = sum(1 for w in words if weight(w) != d)
        if len(words) != expected or bad:
            print(
                f"verify failed: {len(words)} words ({bad} of wrong weight), closed form {expected}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_autocheck(args) -> int:
    results = identity_suites(_params_of(args), args.seed, args.trials)
    for res in results:
        print(f"{'ok' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(res.ok for res in results) else 1


def _cmd_grassmann(args) -> int:
    gf = field_for_order(args.q)
    if args.mindist and 0 <= args.l <= args.m:
        # k = C(m, l); the build itself refuses any other l and m
        what = f"scanning the Grassmann code of ({args.l}, {args.m}) over GF({args.q})"
        limits.ensure_power("messages", args.q, math.comb(args.m, args.l), what)
    code = build_grassmann_code(args.l, args.m, gf)
    data = {
        "q": args.q,
        "l": args.l,
        "m": args.m,
        "n": code.n,
        "k": code.k,
    }
    lines = [f"n {code.n}", f"k {code.k}"]
    if args.mindist:
        data["d"] = min_distance(code)
        lines.append(f"d {data['d']}")
    if args.compare_cell:
        report = cell_restriction_compare(args.l, args.m, gf)
        data["cell_size"] = report.cell_size
        data["matches"] = [
            {"pluecker": list(match.pluecker_index), "minor": str(match.minor_index), "sign": match.sign}
            for match in report.matches
        ]
        lines.append(f"cell {report.cell_size}")
        for match in report.matches:
            cols = ",".join(str(c) for c in match.pluecker_index)
            lines.append(f"match ({cols}) ~ {match.minor_index} sign {match.sign}")
    if args.format == "json":
        _emit(_json(data), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify_all(args) -> int:
    # text lines are printed as each check ends, JSON objects once all have
    write = print if args.format == "text" else None
    if args.q is not None or args.l is not None or args.lp is not None:
        if None in (args.q, args.l, args.lp):
            print("error: verify-all needs all of --q --l --lp, or none", file=sys.stderr)
            return 2
        results = run_params_suite(CodeParams(args.q, args.l, args.lp), write=write)
        numbers = range(1, len(results) + 1)
    else:
        results = run_acceptance(write=write)
        numbers = [number for number, _ in verify.ACCEPTANCE]
    if args.format == "json":
        for number, res in zip(numbers, results):
            sys.stdout.write(_json({"number": number, **asdict(res)}))
    return 0 if all(res.ok for res in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="agcodes",
        description="codes of matrix minors: build, scan, and verify",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    handlers: dict[str, Callable] = {}

    def register(name: str, help_text: str, handler: Callable, *, with_params=True) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        if with_params:
            _add_params_args(sub)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        sub.add_argument("--out", default=None, help="write output to this file instead of stdout")
        handlers[name] = handler
        return sub

    register("params", "closed-form parameters of one code", _cmd_params)
    register("build", "emit the generator matrix", _cmd_build)

    sub = register("mindist", "blind minimum distance by exhaustive scan", _cmd_mindist)
    sub.add_argument("--check", action="store_true", help="exit 1 if the scan disagrees with the closed form")

    register("weightdist", "full weight distribution by exhaustive scan", _cmd_weightdist)

    sub = register("minwords", "all minimum weight codewords", _cmd_minwords)
    sub.add_argument("--verify", action="store_true", help="exit 1 unless count and weights match the closed forms")

    sub = subs.add_parser("autocheck", help="randomized identity checks for one parameter set")
    _add_params_args(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=100)
    handlers["autocheck"] = _cmd_autocheck

    sub = register("grassmann", "the projective relative on the same field", _cmd_grassmann, with_params=False)
    sub.add_argument("--l", type=int, required=True, help="subspace dimension")
    sub.add_argument("--m", type=int, required=True, help="ambient dimension")
    sub.add_argument("--q", type=int, required=True, help="field size, a prime power")
    sub.add_argument("--mindist", action="store_true", help="also scan the minimum distance")
    sub.add_argument("--compare-cell", action="store_true", help="match the big cell against the affine generator")

    sub = subs.add_parser("verify-all", help="run the acceptance checks (or a focused suite with --q --l --lp)")
    sub.add_argument("--q", type=int)
    sub.add_argument("--l", type=int)
    sub.add_argument("--lp", type=int)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    handlers["verify-all"] = _cmd_verify_all

    args = parser.parse_args(argv)
    try:
        return handlers[args.command](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except limits.CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
