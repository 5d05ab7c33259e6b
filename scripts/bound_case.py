#!/usr/bin/env python3
"""Time a negative decision whose witness needs the alternating probe.

The input is ``gen_interfering_measure(5, N, 10)``: an origin-odd
full-order part plus a Dirac mass at ``(0, 1, ..., 1)``, decided on the
symmetric class (the origin reflection even) over all support sets, as a
point measure and, radially projected, as a sphere measure.  Every
full-order condition fails and the lower-order atom interferes, so the
witness is the parity basis measure times the probe, with ``4**N`` atoms.

Prints one line per setting: the time of the decision, the atom counts of
the measure and the witness, and the SHA-256 of the report JSON.

    PYTHONPATH=src python scripts/bound_case.py --dim 6
"""

import argparse
import hashlib
import json
import time

from multconv import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    decide_universal_rn,
    decide_universal_sphere,
    radial_project,
)
from multconv.harness import gen_interfering_measure


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dim", type=int, default=6)
    n = parser.parse_args().dim
    nu = gen_interfering_measure(5, n, 10)
    pair = GeneratingPair.make(n, evens=[SubsetMask.full(n)])
    support = list(all_subsets(n))
    cases = (
        ("point", nu, decide_universal_rn, support),
        ("sphere", radial_project(nu), decide_universal_sphere, [e for e in support if e.size]),
    )
    for setting, mu, decide, family in cases:
        start = time.perf_counter()
        report = decide(mu, family, pair)
        elapsed = time.perf_counter() - start
        text = json.dumps(report.to_json(), separators=(",", ":"))
        witness = report.witness.atom_count() if report.witness is not None else 0
        print(
            f"{setting:6s} n={n} universal={report.universal} time={elapsed:.2f}s "
            f"atoms={mu.atom_count()} witness_atoms={witness} "
            f"report_sha256={hashlib.sha256(text.encode()).hexdigest()[:16]}"
        )


if __name__ == "__main__":
    main()
