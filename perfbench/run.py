"""Seeded closed-loop benchmark for agcalc.

    python3 perfbench/run.py --workload {invert,lab,cli} --seed N --seconds S --trace {0,1}

One client, one process, one item at a time.  With ``--trace 0`` the run
measures the end-to-end metrics: it loops over the workload's items until
the timed item calls add up to ``--seconds`` of CPU time, checks every
output outside the timed region, and prints one JSON object as its last
line of stdout.  Its times are CPU seconds scaled to the host's nominal
speed (see ``Calibration``).
With ``--trace 1`` it runs a fixed prefix of the items twice, untraced and
then under the tracer, and prints the per-layer metrics; the prefix is
fixed so that two traced runs on one seed give identical work counts.
``--corrupt`` bumps one coefficient (or flips one verdict) of every output
before its check, to show that the gate fails.

Run it from the root of a checkout that holds ``src/agcalc``; it writes
only under ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = workloads.ROOT / ".perfbench"
SETUP_PROBES = 5   # fresh processes whose set-up time gives setup_s (median)
IMPORT_PROBES = 5  # fresh interpreters whose `import agcalc.cli` gives cli.import_s
ERROR_LAYERS = ("inversion.", "lab.", "cli.main")
MIN_SAMPLES = 110  # the loop runs on past --seconds until p90 has >= 10 samples beyond it
WALL_CAP = 1.3     # ... but stops at this many times --seconds of wall time, whatever it has
SETUP_CAL_SAMPLES = 7  # kernel calls that calibrate each set-up probe


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("invert", "lab", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt every output before its check (gate self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workdir(args) -> Path:
    return OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"


def cpu_s() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    Every time the benchmark reports is a difference of this clock.  On a
    shared virtual machine wall time also counts the time the scheduler or
    the host gives the vCPU to someone else; CPU time does not.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Calibration:
    """The host's speed, from a fixed kernel that shares no code with agcalc.

    The kernel is exact rational arithmetic on big coefficients, as agcalc's
    is once coefficients grow: it sums 400 products of fixed fractions with
    400-bit numerators and denominators, so the running sum grows to
    thousands of digits.  It is timed in CPU seconds, with the garbage
    collector off, once per ``EVERY_S`` of item time.  A factor is
    ``NOMINAL_S`` over a median sample, so a CPU time multiplied by it reads
    as on the host at its nominal speed.  ``scale`` takes the median of the
    whole run; ``scales`` gives each item the median of the ``WINDOW``
    samples taken before it and the ``WINDOW`` after, so that an item timed
    while the host was slow is scaled by how slow it was then.

    On a shared virtual machine the CPU time of fixed work drifts by up to
    60% over minutes as other tenants come and go.  Of the kernels tried
    (small-coefficient polynomial products, the reference composer, big
    integer gcd, integer loops, and mixes of these with this one), none
    followed the drift of the workloads' items clearly better.
    """

    NOMINAL_S = 0.05  # median kernel call on 2 vCPUs of a 2.0 GHz Xeon, CPython 3.11
    EVERY_S = 0.5
    FIRST = 3  # samples taken up front, so a short run is calibrated too
    WINDOW = 4

    def __init__(self) -> None:
        rng = random.Random(3)
        self.fractions = [Fraction(rng.getrandbits(400) + 1, rng.getrandbits(400) + 1)
                          for _ in range(40)]
        self.samples: list[float] = []
        self.at: list[int] = []  # items timed before each sample
        self.items = 0
        self.owed = 0.0
        self._kernel()  # warm-up
        for _ in range(self.FIRST):
            self._sample()

    def _kernel(self) -> float:
        was = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            total = Fraction(0)
            for x in self.fractions:
                for y in self.fractions[:10]:
                    total += x * y
            return time.process_time() - start
        finally:
            if was:
                gc.enable()

    def _sample(self) -> None:
        self.at.append(self.items)
        self.samples.append(self._kernel())

    def after(self, item_s: float) -> None:
        """Count one item; sample once the items since the last sample add up to EVERY_S."""
        self.items += 1
        self.owed += item_s
        if self.owed >= self.EVERY_S:
            self.owed = 0.0
            self._sample()

    def scale(self) -> float:
        return self.NOMINAL_S / statistics.median(self.samples)

    def scales(self) -> list[float]:
        """The factor of each item counted so far, from the samples around it."""
        out = []
        for i in range(self.items):
            j = bisect.bisect_right(self.at, i)  # samples taken before item i
            near = self.samples[max(0, j - self.WINDOW):j + self.WINDOW]
            out.append(self.NOMINAL_S / statistics.median(near))
        return out


def setup_probe(args) -> int:
    """Child side of setup_s: import agcalc, build the inputs, report CPU used."""
    import agcalc  # noqa: F401  (the import is part of set-up)
    wl = workloads.make(args.workload, workdir(args))
    wl.setup(args.seed)
    done = cpu_s()  # from process start: interpreter start-up counts too
    shutil.rmtree(workdir(args), ignore_errors=True)
    cal = Calibration()
    for _ in range(SETUP_CAL_SAMPLES - Calibration.FIRST):
        cal.after(Calibration.EVERY_S)
    print(repr(done), repr(cal.scale()))
    return 0


def measure_setup(args) -> float:
    """Median, over fresh processes, of CPU time from process start to inputs ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workloads.ROOT,
                              env=workloads.child_env(), timeout=workloads.CHILD_TIMEOUT_S, check=True)
        done, scale = map(float, proc.stdout.split())
        times.append(done * scale)
    return statistics.median(times)


def measure_import() -> float:
    code = "import time; t = time.process_time(); import agcalc.cli; print(time.process_time() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=workloads.child_env(), timeout=workloads.CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


class Pass:
    """Latencies and verdicts of one sequence of items."""

    def __init__(self, cal: Calibration | None = None) -> None:
        self.latencies: list[float] = []
        self.passed: list[bool] = []
        self.cal = cal

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def items_per_s(self, latencies: list[float] | None = None) -> float:
        """Verified items per second of timed calls, of `latencies` if given."""
        busy = self.busy if latencies is None else sum(latencies)
        return (self.attempted - self.failed) / busy

    def record(self, wl, idx, item, run, corrupt) -> None:
        start = cpu_s()
        try:
            out = run(item)
            reason = None
        except Exception as err:  # an item that raises counts as failed
            reason = f"raised {type(err).__name__}: {err}"
        self.latencies.append(cpu_s() - start)
        if self.cal is not None:
            self.cal.after(self.latencies[-1])
        if reason is None:
            try:
                reason = wl.check(idx, item, out, corrupt)
            except Exception as err:  # a malformed output fails its check
                reason = f"check raised {type(err).__name__}: {err}"
        self.passed.append(reason is None)
        if reason is not None:
            if self.failed <= 5:
                print(f"item {idx} failed: {reason}", file=sys.stderr)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_measured(args) -> int:
    setup_s = measure_setup(args)
    wl = workloads.make(args.workload, workdir(args))
    items = wl.setup(args.seed)
    cal = Calibration()
    p = Pass(cal)
    i = 0
    wall_end = time.monotonic() + WALL_CAP * args.seconds
    while ((p.busy < args.seconds or p.attempted < MIN_SAMPLES)
           and (time.monotonic() < wall_end or not p.attempted)):
        idx = i % len(items)
        p.record(wl, idx, items[idx], wl.run, args.corrupt)
        i += 1
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024
    lat = p.latencies
    scaled = [x * f for x, f in zip(lat, cal.scales())]
    tail = p90(scaled)
    print(f"# {args.workload} seed={args.seed}: {p.attempted} samples, "
          f"{sum(1 for x in scaled if x > tail)} beyond p90, "
          f"failed_ratio={p.failed / p.attempted:.4f}, busy {p.busy:.3f} CPU s; "
          f"unscaled: items_per_s {p.items_per_s():.4f} p50 {statistics.median(lat):.5f} "
          f"p90 {p90(lat):.5f}, scale {cal.scale():.4f} from {len(cal.samples)} samples")
    print(result_line(p.failed == 0, p.attempted, p.failed, {
        "setup_s": (setup_s, "s"),
        "items_per_s": (p.items_per_s(scaled), "1/s"),
        "item_s_p50": (statistics.median(scaled), "s"),
        "item_s_p90": (tail, "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }))
    return 0


def merge_child(totals: dict, spans: list, dump: Path) -> None:
    if not dump.exists():  # the child died before dumping; its item already failed
        return
    data = json.loads(dump.read_text(encoding="utf-8"))
    dump.unlink()
    for key in ("calls", "errors", "self_s"):
        for name, v in data["summary"][key].items():
            totals[key][name] += v
    for name, v in data["summary"]["counts"].items():
        if name.endswith("peak_terms"):
            totals["counts"][name] = max(totals["counts"][name], v)
        else:
            totals["counts"][name] += v
    offset = len(spans)
    for name, start, end, parent, item in data["spans"]:
        spans.append([name, start, end, parent + offset if parent >= 0 else -1, item])


def run_traced(args) -> int:
    wl = workloads.make(args.workload, workdir(args))
    tr = tracing.Tracer()
    tr.install()
    tr.assert_covered()
    items = wl.setup(args.seed)  # traced as item -1, so gen_corpus shows
    tr.uninstall()
    prefix = list(enumerate(items[:wl.trace_items]))

    plain = Pass()
    for idx, item in prefix:
        plain.record(wl, idx, item, wl.run, args.corrupt)

    traced = Pass()
    dumps = OUT / f"dumps-{os.getpid()}"
    if args.workload == "cli":  # each child traces itself and dumps what it saw
        dumps.mkdir(parents=True, exist_ok=True)
    else:
        tr.install()
        tr.assert_covered()
    for idx, item in prefix:
        tr.item = idx
        run = wl.run
        if args.workload == "cli":
            run = functools.partial(wl.run, traced_dump=dumps / f"{idx}.json", item_id=idx)
        traced.record(wl, idx, item, run, args.corrupt)
    tr.uninstall()

    summary = tr.summary()
    totals = {key: defaultdict(float if key == "self_s" else int, summary[key])
              for key in ("calls", "errors", "self_s", "counts")}
    spans = tr.spans
    if args.workload == "cli":
        for idx, _ in prefix:
            merge_child(totals, spans, dumps / f"{idx}.json")
        dumps.rmdir()
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(spans, OUT / f"spans-{args.workload}-seed{args.seed}.tsv")

    metrics: dict[str, tuple] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals["calls"][name], "count")
        metrics[f"{name}.self_s"] = (totals["self_s"][name], "s")
        if name.startswith(ERROR_LAYERS):
            metrics[f"{name}.errors"] = (totals["errors"][name], "count")
    counts = totals["counts"]
    for key in ("poly.mul.trunc.pairs", "poly.mul.trunc.pairs_in_window",
                "poly.mul.trunc.terms_out", "poly.mul.full.pairs", "poly.mul.full.terms_out",
                "poly.mul.peak_terms", "inversion.fixed_point.passes",
                "weyl.lambda_apply.terms_in", "report.bytes_out"):
        metrics[key] = (counts[key], "count")
    pairs = counts["poly.mul.trunc.pairs"]
    metrics["poly.mul.trunc.window_ratio"] = (
        counts["poly.mul.trunc.pairs_in_window"] / pairs if pairs else 0.0, "ratio")
    metrics["cli.import_s"] = (measure_import(), "s")
    metrics["trace.items_per_s_untraced"] = (plain.items_per_s(), "1/s")
    metrics["trace.items_per_s_traced"] = (traced.items_per_s(), "1/s")
    metrics["trace.overhead_items_per_s"] = (plain.items_per_s() - traced.items_per_s(), "1/s")
    failed = plain.failed + traced.failed
    attempted = plain.attempted + traced.attempted
    print(f"# {args.workload} seed={args.seed} traced: {len(prefix)} items twice, "
          f"{len(spans)} spans, failed {failed}/{attempted}")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "agcalc" / "__init__.py").is_file():
        print(f"error: no agcalc sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    # on SIGTERM unwind like on an exception: subprocess.run then kills and
    # waits for the child it is running, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        return setup_probe(args)
    try:
        return run_traced(args) if args.trace else run_measured(args)
    finally:
        shutil.rmtree(workdir(args), ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
