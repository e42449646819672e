"""Regenerate perfbench/digests.json, the reference outputs the gate compares.

    python3 perfbench/record_digests.py

Each weight distribution is scanned twice, with workers=1 and workers=2, on
fresh code objects; its digest is written only when both runs agree and the
distribution passes the closed-form checks.  Generator matrices are digested
as built.  Run it only when a change of output is intended and has been
confirmed by an independent route.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import refusal


def main() -> int:
    why = refusal()
    if why:
        print(why, file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import agcodes

    out: dict[str, str] = {}
    gate = wl.Gate()
    scan_codes = sorted({c for codes in wl.SCAN_CODES.values() for c in codes} | {wl.SPEEDUP_CODE})
    for c in scan_codes:
        code = agcodes.build(agcodes.CodeParams(*c))
        dists = [
            agcodes.weight_distribution(
                agcodes.LinearCode(code.gf, code.generator, params=code.params), workers=w
            )
            for w in (1, 2)
        ]
        if dists[0] != dists[1]:
            print(f"{c}: workers=1 and workers=2 disagree", file=sys.stderr)
            return 1
        out[wl.digest_key("dist", c)] = wl.digest(sorted(dists[0].items()))
        wl.check_dist(gate, c, dists[0], out)
        print(c, dists[0], file=sys.stderr)
    for c in wl.CONSTRUCT_AFFINE:
        out[wl.digest_key("affine", c)] = wl.digest(agcodes.build(agcodes.CodeParams(*c)).generator)
    for l, m, q in wl.CONSTRUCT_GRASSMANN:
        gf = agcodes.CodeParams(q, l, m - l).field()
        out[wl.digest_key("grassmann", (l, m, q))] = wl.digest(agcodes.build_grassmann_code(l, m, gf).generator)
    if gate.failed:
        print("\n".join(gate.failures), file=sys.stderr)
        return 1
    wl.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
