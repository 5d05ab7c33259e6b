"""Benchmark for multconv: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload decide-rn --seed 3 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``multconv`` from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details (raw wall times, sample counts, input shares, failures by
name).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a profiled pass.  See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import sysconfig  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

GC_THRESHOLD = gc.get_threshold()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0

# Reference kernel: fixed pure-Python Fraction arithmetic, about 1.6 ms when
# the 2-core KVM guest this was tuned on runs fast and about 3 ms when it
# runs slow.  Every reported time is wall * KERNEL_REF_S / kernel,
# with the kernel timed right before and right after the op: the guest's
# speed drifts on time scales from a tenth of a second to about ten seconds,
# and the correction cancels the part of that drift the op and the kernel
# share.
KERNEL_STEPS = 400
KERNEL_REF_S = 0.0017
SETUP_SAMPLES = 5
LAP_S = 0.05
WARMUP_ROUNDS = 2


def reference_kernel() -> float:
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(KERNEL_STEPS):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
    return time.perf_counter() - t


def refuse_if_tampered() -> None:
    """Refuse to time when the kernel's speed could be altered from outside."""
    problems = []
    if sys.gettrace() is not None or sys.getprofile() is not None:
        problems.append("a trace or profile hook is set")
    if not gc.isenabled() or gc.get_threshold() != GC_THRESHOLD:
        problems.append(f"gc is disabled or its thresholds changed ({gc.get_threshold()} vs {GC_THRESHOLD})")
    import fractions
    import multconv.scalars

    stdlib = os.path.realpath(sysconfig.get_paths()["stdlib"])
    if os.path.dirname(os.path.realpath(fractions.__file__)) != stdlib:
        problems.append(f"fractions is not the stdlib module ({fractions.__file__})")
    if Fraction is not fractions.Fraction or multconv.scalars.Fraction is not fractions.Fraction:
        problems.append("Fraction is not fractions.Fraction")
    for attr, value in vars(fractions.Fraction).items():
        code = getattr(getattr(value, "__func__", value), "__code__", None)
        if code is not None and os.path.realpath(code.co_filename) != os.path.realpath(fractions.__file__):
            problems.append(f"Fraction.{attr} is defined outside fractions.py")
    if problems:
        raise SystemExit("refusing to run: " + "; ".join(problems))


def percentile(sorted_values: list, q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def order_gap(sorted_values: list, q: float) -> float:
    """Relative gap between the two order statistics around quantile ``q``."""
    lo = int(q * (len(sorted_values) - 1))
    hi = min(lo + 1, len(sorted_values) - 1)
    return (sorted_values[hi] - sorted_values[lo]) / sorted_values[lo]


class Checker:
    """Judges each op's result; digests of the first pass anchor later ones."""

    def __init__(self, ops, workload: str, seed: int):
        self.ops = ops
        self.failures: Counter = Counter()
        self.wrong = 0
        self.attempted = 0
        self.first: list = [None] * len(ops)
        self.first_error: list = [None] * len(ops)
        self.conditions = [0] * len(ops)
        self.negative = [False] * len(ops)
        self.escaped: set = set()
        self.expected = None
        if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                self.expected = json.load(fh).get(workload)
            if self.expected is not None and len(self.expected) != len(ops):
                raise SystemExit(f"{DIGESTS} holds {len(self.expected)} digests for {workload}, expected {len(ops)}")

    def __call__(self, index: int, result, error: str | None) -> None:
        op = self.ops[index]
        self.attempted += 1
        if error is None:
            first_pass = self.first[index] is None
            d = workloads.digest(op.render(result))
            if first_pass:
                self.first[index] = d
                self.conditions[index] = op.conditions(result)
                self.negative[index] = op.negative(result)
                error = op.check(result)
                if error is None and self.expected is not None and self.expected[index] != d:
                    error = "digest-mismatch"
                self.first_error[index] = error
            else:
                # an unchanged result is judged as it was on the first pass
                error = self.first_error[index] if d == self.first[index] else "nondeterministic-output"
        if error is not None:
            if error.startswith("escaped:"):
                self.escaped.add(index)
            self.failures[f"{op.label.split(':', 1)[1]}:{error}" if op.malformed else error] += 1
            # an exception escaping on malformed input is a counted failure;
            # anything else means a wrong answer
            if not (op.malformed and error.startswith("escaped:")):
                self.wrong += 1

    def shares(self) -> dict:
        n = len(self.ops)
        out = {
            "ops": n,
            "negative_share": sum(self.negative) / n,
            "mean_atoms_per_op": sum(op.atoms for op in self.ops) / n,
            "mean_conditions_per_op": sum(self.conditions) / n,
        }
        settings = Counter(op.setting for op in self.ops)
        for setting in ("point", "sphere"):
            out[f"{setting}_share"] = settings[setting] / n
        out["malformed_share"] = sum(op.malformed for op in self.ops) / n
        return out


def run_op(op):
    try:
        return op.call(), None
    except Exception as exc:  # counted as a failure of this op
        return None, f"raised:{type(exc).__name__}"


def measure_op(op, profile=None):
    """Time one op between two kernels; returns (wall, factor, result, error).

    The op starts from a full collection, so it pays for exactly the garbage
    collection its own allocations trigger.
    """
    gc.collect()
    k_before = reference_kernel()
    t0 = time.perf_counter()
    result, error = profile.run(lambda: run_op(op)) if profile else run_op(op)
    wall = time.perf_counter() - t0
    k_after = reference_kernel()
    return wall, KERNEL_REF_S / ((k_before + k_after) / 2), result, error


def timed_passes(ops, seconds: float, judge, profile=None):
    """Closed loop over ``ops``; whole passes until ``seconds`` is spent.

    Returns per-op corrected and raw times (seconds), pooled over passes,
    and the number of passes.  A profiled run makes exactly one pass.
    """
    corrected, raw = [], []
    began = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            wall, factor, result, error = measure_op(op, profile)
            corrected.append(wall * factor)
            raw.append(wall)
            if profile:
                profile.collect(factor)
            judge(index, result, error)
        passes += 1
        last = time.perf_counter() - pass_start
        if profile or time.perf_counter() - began + last > seconds:
            return corrected, raw, passes


class SetupClock:
    """Speed-corrected set-up time since the start of this process.

    Set-up is timed in laps of about ``LAP_S``.  Each lap's wall time is
    scaled by the mean of the reference kernels timed right before and right
    after it, so that a change of the guest's speed during set-up is
    corrected lap by lap rather than by one reading at the end.
    """

    def __init__(self):
        self.corrected = 0.0
        self.raw = 0.0
        self.skipped = 0.0
        self._start = START
        self._kernel = None

    def skip(self, fn) -> None:
        """Run ``fn`` outside the set-up time, recording its wall time.

        Used for writing the cli input files: on the guest this was tuned on,
        creating files in a watched or busy directory costs several times
        more kernel CPU than elsewhere and grows from run to run, which no
        CPU reference kernel can correct, and none of it is multconv's work.
        """
        self.lap()
        t = time.perf_counter()
        fn()
        self.skipped += time.perf_counter() - t
        self._start = time.perf_counter()

    def tick(self) -> None:
        """Lap once the current phase has run for ``LAP_S``."""
        if time.perf_counter() - self._start >= LAP_S:
            self.lap()

    def lap(self) -> None:
        end = time.perf_counter()
        kernel = statistics.median(reference_kernel() for _ in range(3))
        ref = kernel if self._kernel is None else (self._kernel + kernel) / 2
        self.corrected += (end - self._start) * KERNEL_REF_S / ref
        self.raw += end - self._start
        self._kernel = kernel
        self._start = time.perf_counter()


def set_up(workload: str, seed: int, workdir: str, clock: SetupClock):
    """Build the op list, write the cli input files and warm up."""
    files = workloads.Files(workdir)
    ops = []
    for op in workloads.build(workload, seed, files):
        ops.append(op)
        clock.tick()
    warm = workloads.warmup(workload, files) * WARMUP_ROUNDS
    clock.skip(files.write)
    for op in warm:
        op.call()
        clock.tick()
    clock.lap()
    return ops


def setup_probe_samples(workload: str, seed: int, count: int) -> list[tuple[float, float, float]]:
    """Corrected and raw set-up times and file-writing times of fresh
    processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        out.append(tuple(float(x) for x in proc.stdout.split()))
    return out


def end_to_end(ops, args, checker, clock: SetupClock) -> tuple[dict, dict]:
    samples = setup_probe_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
    samples.append((clock.corrected, clock.raw, clock.skipped))
    refuse_if_tampered()
    corrected, raw, passes = timed_passes(ops, args.seconds, checker)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    c, r = sorted(corrected), sorted(raw)
    metrics = {
        "ops_per_s": (len(c) / sum(c), "1/s"),
        "latency_p50_ms": (percentile(c, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(c, 0.9) * 1e3, "ms"),
        "success_frac": ((checker.attempted - sum(checker.failures.values())) / checker.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(s[0] for s in samples), "s"),
    }
    details = {
        "passes": passes,
        "latency_samples": len(c),
        "samples_beyond_p90": sum(1 for x in c if x > percentile(c, 0.9)),
        "order_gap_p50": order_gap(c, 0.5),
        "order_gap_p90": order_gap(c, 0.9),
        "raw_ops_per_s": len(r) / sum(r),
        "raw_latency_p50_ms": percentile(r, 0.5) * 1e3,
        "raw_latency_p90_ms": percentile(r, 0.9) * 1e3,
        "raw_setup_s": statistics.median(s[1] for s in samples),
        "setup_file_writes_s": statistics.median(s[2] for s in samples),
        "setup_samples_s": [s[0] for s in samples],
    }
    return metrics, details


def per_layer(ops, args, checker) -> tuple[dict, dict]:
    from layers import LayerProfile

    refuse_if_tampered()
    untraced = timed_passes(ops, 0, checker)[0]
    profile = LayerProfile(os.path.join(SRC, "multconv"))
    traced = timed_passes(ops, 0, checker, profile)[0]
    values = profile.metrics()
    conditions = sum(checker.conditions)
    pairs = values["measures.mconv.pairs"] + values["sphere.sconv.pairs"]
    values["universality.conditions"] = conditions
    values["universality.pairs_per_condition"] = pairs / conditions if conditions else 0.0
    values["cli.escaped"] = len(checker.escaped)
    values["trace.overhead"] = sum(traced) / sum(untraced)
    units = {"universality.pairs_per_condition": "pairs/condition", "trace.overhead": "x"}
    metrics = {
        name: (value, units.get(name, "ms" if name.endswith("_ms") else "count"))
        for name, value in values.items()
    }
    return metrics, {"untraced_s": sum(untraced), "traced_s": sum(traced)}


def write_digests(ops, workload: str) -> None:
    found = []
    for op in ops:
        result, error = run_op(op)
        found.append(workloads.digest(op.render(result)) if error is None else error)
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = found
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help=f"record the output digests of seed {DEFAULT_SEED} in {os.path.basename(DIGESTS)}")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "multconv", "__init__.py")):
        print(f"error: no multconv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    clock = SetupClock()
    clock.lap()
    global workloads
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import multconv
    import workloads

    clock.lap()

    if os.path.realpath(os.path.dirname(multconv.__file__)) != os.path.realpath(os.path.join(SRC, "multconv")):
        print(f"error: imported multconv from {multconv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        ops = set_up(args.workload, args.seed, workdir, clock)
        if args.setup_probe:
            print(clock.corrected, clock.raw, clock.skipped)
            return 0
        if args.write_digests:
            write_digests(ops, args.workload)
            return 0
        checker = Checker(ops, args.workload, args.seed)
        if args.trace:
            metrics, details = per_layer(ops, args, checker)
        else:
            metrics, details = end_to_end(ops, args, checker, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    details.update(checker.shares())
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   digests_checked=checker.expected is not None,
                   failures=dict(sorted(checker.failures.items())))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": sum(checker.failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
