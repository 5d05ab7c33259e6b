#!/usr/bin/env python3
"""Time what a fresh process pays to load multconv and answer one request.

Three cases, each timed inside a fresh interpreter from just before the
import to just after the work, so interpreter start-up is left out:

- ``import multconv``;
- ``import multconv.cli``;
- a cold cli request: ``from multconv.cli import main`` and one
  ``main(["convolve", a, b])`` on two small point measures, its output
  discarded.

Each source directory given (the repository's ``src`` by default) is timed
in rounds that alternate which directory goes first, so two trees, say a
parent and a change, share the machine's drift.  The children run with
``-B``: no bytecode is written, so with no ``__pycache__`` in a tree every
run compiles the modules it loads, as a fresh checkout does.

Prints one line per case and directory: the median and quartiles in ms
over the runs, and the ``multconv`` modules that case loaded.

    python scripts/import_cost.py [--runs 11] [SRC ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

PROBE = """import sys, time
t = time.perf_counter()
{body}
t = time.perf_counter() - t
sys.stdout = sys.__stdout__
print(t, *sorted(m for m in sys.modules if m.split(".")[0] == "multconv"))
"""
CASES = {
    "import multconv": "import multconv",
    "import multconv.cli": "import multconv.cli",
    "cold cli convolve": "import io\nfrom multconv.cli import main\nsys.stdout = io.StringIO()\n"
                         "main(['convolve', {a!r}, {b!r}])",
}
MEASURES = (
    {"dim": 2, "atoms": [{"point": ["1/2", "-1"], "weight": [["1", 1]]}, {"point": ["2", "3"], "weight": [["-1/3", 1]]}]},
    {"dim": 2, "atoms": [{"point": ["-2", "1/3"], "weight": [["2", 1]]}, {"point": ["1", "1"], "weight": [["1", 2]]}]},
)


def probe(src: str, body: str) -> tuple[float, list[str]]:
    proc = subprocess.run([sys.executable, "-B", "-c", PROBE.format(body=body)], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    seconds, *modules = proc.stdout.split()
    return float(seconds), modules


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11, help="runs per case and directory")
    parser.add_argument("src", nargs="*", default=[os.path.join(os.path.dirname(HERE), "src")])
    args = parser.parse_args()
    srcs = [os.path.abspath(s) for s in args.src]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, payload in enumerate(MEASURES):
            paths.append(os.path.join(tmp, f"m{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        bodies = {name: body.format(a=paths[0], b=paths[1]) for name, body in CASES.items()}
        times = {(name, src): [] for name in CASES for src in srcs}
        loaded = {}
        for r in range(args.runs):
            order = srcs[r % len(srcs):] + srcs[:r % len(srcs)]
            for name, body in bodies.items():
                for src in order:
                    seconds, loaded[name, src] = probe(src, body)
                    times[name, src].append(seconds)
    for (name, src), ts in times.items():
        q1, median, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        print(f"{name:<20} {src}  median {median * 1e3:.1f} ms  quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"
              f"  ({len(ts)} runs)  loads {' '.join(loaded[name, src])}")


if __name__ == "__main__":
    main()
