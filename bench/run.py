"""End-to-end and per-layer benchmark of the ``iwa`` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``iwa`` from ``src/`` there.
One process, one thread, one closed-loop caller: the next op starts when the
previous one returns.  Inputs come only from ``--seed``.  Every op's output
is checked; the run exits 1 if any check failed.

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with no wrapper installed; with
``--trace 1`` they are the per-layer ones, from spans recorded on every
other cycle of ops (see README.md).  The line before it is the run record:
interpreter, commit, gmpy2 presence, core count, seed and the raw figures
the metrics were derived from.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer stats, per traced op, as <prefix>.<stat>; see spans.py for the names
LAYER_STATS = {
    "distributions.divide_exact": ("calls", "total_s", "self_s", "rejects"),
    "series.divide_series": ("calls", "total_s", "self_s"),
    "scalars.PadicScalar": ("new",),
    "scalars.QuadExtScalar": ("new",),
    "scalars.teichmuller": ("calls",),
    "series.remainder_mod_cyclotomic": ("calls", "total_s"),
    "pollack.pollack_log": ("calls",),
    "pollack.pollack_log.plus": ("total_s",),
    "pollack.pollack_log.minus": ("total_s",),
    "pollack.pollack_log.full": ("total_s",),
    "pollack": ("factors",),
    "pollack.log_identity_check": ("total_s", "self_s"),
    "kernel.polymul": ("calls", "self_s", "bytes"),
    "kernel.polypow": ("calls", "self_s"),
    "kernel.geometric_sum": ("calls", "self_s"),
    "series.Series.mul": ("calls", "total_s"),
    "series.compose_affine": ("calls", "total_s"),
    "series.IwasawaElement.twist": ("calls", "total_s"),
    "lfunctions.kl_series_report": ("calls", "total_s", "self_s"),
    "lfunctions.gen_bernoulli": ("calls", "total_s", "self_s"),
    "lfunctions.smoothed_moment": ("calls", "total_s", "self_s"),
    "signed.synthesize": ("total_s", "self_s"),
    "signed.factor_signed": ("total_s", "self_s"),
    "signed.factor_report": ("total_s", "self_s"),
    "dieudonne.change_of_basis": ("calls", "total_s"),
}


def _layer_unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s/op"
    if stat == "bytes":
        return "B-computed/op"
    return "count/op"


PER_LAYER = {
    f"{prefix}.{stat}": _layer_unit(stat)
    for prefix, stats in LAYER_STATS.items()
    for stat in stats
}
PER_LAYER.update({
    # fewest trusted p-adic digits in a checked output, floored or not;
    # negative at this commit on roundtrip, see README.md
    "check.digits_kept": "digits",
    # fewest digits a floored output kept above its floor; below 0 fails the op
    "check.digits_over_floor": "digits",
    "trace.op_mean_s": "s",  # mean traced op time: the base of the layer shares
    "trace.op_p50_s": "s",
    "trace.overhead_s": "s",  # traced minus untraced op_p50_s
    "setup.pollack.pollack_log.calls": "count",
    "setup.pollack.pollack_log.total_s": "s",
})

# Seconds the reference work takes on the machine the baseline was taken on
# (a 2-core x86-64 VM, Python 3.11.7, when quiet).  Each timed interval is
# scaled by REFERENCE_S / (the reference time around it); see reference_work.
REFERENCE_S = 0.035
REF_REPEATS = 3  # a reference sample is the median of this many timings

CHILD_SETUP = (
    "import sys; sys.path[:0] = sys.argv[1:3]; sys.dont_write_bytecode = True; "
    "from run import cold_setup; print(*cold_setup(sys.argv[3])[:2])"
)


class Op(NamedTuple):
    case: int
    cycle: int
    seconds: float
    traced: bool
    problems: list
    digits: dict  # checked output -> trusted p-adic digits
    ref: float  # mean of the reference samples taken just before and after

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / self.ref


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def reference_work() -> float:
    """Seconds taken by fixed work shaped like iwa's: big-integer products and
    reductions, Fraction arithmetic, small objects and integer loops.

    On a shared machine the speed drifts by up to a fifth over minutes as
    other tenants load it; ops slow down with this work, so timing it just
    before and after each op and scaling the op by it keeps runs comparable.
    It shares no code with iwa.  The collector is off while it runs, so its
    time does not depend on how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_body()
    finally:
        if enabled:
            gc.enable()


def reference_sample() -> float:
    return statistics.median(reference_work() for _ in range(REF_REPEATS))


def _reference_body() -> float:
    start = perf_counter()
    x, y, m = 3**20000, 7**15000, 5**9000
    for _ in range(10):
        x * y % m
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 1) * Fraction(3, i)
    total = 0
    for i in range(20000):
        cell = _Cell(i, i % 5, i * 3)
        total += cell.a * cell.c % 1000003
    return perf_counter() - start


def cold_setup(name: str, tracer=None):
    """Import every iwa module, then build the workload's first-use state.

    Meant for a fresh interpreter, where both steps start cold.  Returns
    (import seconds, build seconds, the warmed workload).
    """
    start = perf_counter()
    import iwa
    for mod in pkgutil.iter_modules(iwa.__path__):
        importlib.import_module(f"iwa.{mod.name}")
    from workloads import WORKLOADS
    mid = perf_counter()
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]()
    if tracer is None:
        workload.warm()
    else:
        with tracer.installed():
            workload.warm()
    return mid - start, perf_counter() - mid, workload


def child_setup(name: str) -> tuple[float, float]:
    """cold_setup in a fresh interpreter, which is waited for."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD_SETUP, str(BENCH), str(SRC), name],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    imp, build = done.stdout.split()
    return float(imp), float(build)


def call_timed(fn, *args):
    """(output, error text or None, seconds) for one call."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception:  # a failed op is counted and reported, not fatal
        return None, traceback.format_exc(limit=4), perf_counter() - start
    return out, None, perf_counter() - start


def run_ops(workload, rng, seconds: float, tracers=None):
    """The closed loop; returns the ops and the reference samples taken
    before the first op and after each.  Untraced, it stops at the first op
    after ``seconds`` once a whole cycle is done.  With ``tracers`` (one per
    case), odd cycles run under them and it stops at a cycle boundary once
    both kinds ran."""
    ops: list[Op] = []
    refs = [reference_sample()]
    start = perf_counter()
    cycle = 0
    while True:
        traced = tracers is not None and cycle % 2 == 1
        for index, case in enumerate(workload.cases):
            inp = workload.prepare(case, rng)
            if traced:
                tracer = tracers[index]
                with tracer.installed(), tracer.span("op"):
                    out, err, dt = call_timed(workload.op, case, inp)
            else:
                out, err, dt = call_timed(workload.op, case, inp)
            if err is None:
                try:
                    problems, digits = workload.check(case, inp, out)
                except Exception:  # a malformed output fails its check
                    problems = [f"check raised:\n{traceback.format_exc(limit=4)}"]
                    digits = {}
            else:
                problems, digits = [f"raised:\n{err}"], {}
            inp = out = None  # the reference runs with the op's data released
            refs.append(reference_sample())
            ref = (refs[-2] + refs[-1]) / 2
            ops.append(Op(index, cycle, dt, traced, problems, digits, ref))
            if tracers is None and cycle >= 1 and perf_counter() - start >= seconds:
                return ops, refs
        cycle += 1
        if perf_counter() - start >= seconds and cycle >= (1 if tracers is None else 2):
            return ops, refs


def latency_stats(ops: list[Op], scaled: bool = False) -> dict:
    """Median and tail latency that do not depend on the case mix.

    op_p50_s is the mean over cases of each case's median latency, raw or
    (with ``scaled``) each op scaled by the reference around it.  For the
    tail every latency is divided by its case's median, and the pooled
    ratios give the highest whole percentile with TAIL_BEYOND ops beyond
    it; op_tail_s is that ratio times op_p50_s.  A run of fewer than
    2 * TAIL_BEYOND ops has no such percentile above the median, and its
    op_tail_s is op_p50_s.
    """
    def seconds(o):
        return o.scaled if scaled else o.seconds

    by_case = defaultdict(list)
    for o in ops:
        by_case[o.case].append(seconds(o))
    medians = {c: statistics.median(v) for c, v in sorted(by_case.items())}
    p50 = statistics.fmean(medians.values())
    ratios = sorted(seconds(o) / medians[o.case] for o in ops)
    n = len(ratios)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return {
        "p50": p50,
        "tail": p50 * max(1.0, ratios[rank - 1]),
        "tail_percentile": pct,
        "ops_beyond_tail": n - rank,
        "case_medians_s": list(medians.values()),
    }


def end_to_end(ops: list[Op], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, every interval scaled by the reference around
    it; ``setups`` are (seconds, reference) pairs.  See REFERENCE_S."""
    # throughput over whole cycles only, so the case mix is the same each run
    per_cycle = Counter(o.cycle for o in ops)
    n_cases = len({o.case for o in ops})
    counted = [o for o in ops if per_cycle[o.cycle] == n_cases]
    good = [o for o in counted if not o.problems]

    def figures(scaled: bool) -> dict:
        lat = latency_stats(ops, scaled)
        return {
            "setup_s": statistics.median(
                sec * REFERENCE_S / ref if scaled else sec for sec, ref in setups
            ),
            "op_p50_s": lat["p50"],
            "op_tail_s": lat["tail"],
            "ops_per_s": len(good) / sum(o.scaled if scaled else o.seconds for o in counted),
        }

    metrics = figures(scaled=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = latency_stats(ops, scaled=True)
    del lat["p50"], lat["tail"]
    lat["raw"] = figures(scaled=False)
    lat["slowdown"] = statistics.median(o.ref for o in ops) / REFERENCE_S
    return metrics, lat


def digits_kept(ops: list[Op], workload) -> tuple[int | None, int | None, list]:
    """Fewest trusted digits over all checked outputs; fewest digits above
    the floor over the floored ones; and, per case, each output's fewest."""
    per_case = [defaultdict(list) for _ in workload.cases]
    over_floor = []
    for o in ops:
        for label, kept in o.digits.items():
            if kept is None:
                continue
            per_case[o.case][label].append(kept)
            floor = workload.digit_floor(workload.cases[o.case], label)
            if floor is not None:
                over_floor.append(kept - floor)
    by_case = [{label: min(v) for label, v in case.items()} for case in per_case]
    kept = min((d for case in by_case for d in case.values()), default=None)
    return kept, min(over_floor, default=None), by_case


def per_layer(ops: list[Op], workload, tracers, setup_tracer) -> tuple[dict, dict]:
    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    by_case = [t.summary() for t in tracers]
    summary = Counter()
    for case_summary in by_case:
        summary.update(case_summary)
    metrics = {name: summary[name] / len(traced) for name in PER_LAYER}
    per_case_ops = Counter(o.case for o in traced)
    rejects = [
        case_summary.get("distributions.divide_exact.rejects", 0) / per_case_ops[c]
        for c, case_summary in enumerate(by_case)
    ]
    lat_traced, lat_plain = latency_stats(traced), latency_stats(plain)
    setup = setup_tracer.summary()
    kept, over_floor, _ = digits_kept(ops, workload)
    metrics.update({
        "check.digits_kept": kept,
        "check.digits_over_floor": over_floor,
        "trace.op_mean_s": statistics.fmean(o.seconds for o in traced),
        "trace.op_p50_s": lat_traced["p50"],
        "trace.overhead_s": lat_traced["p50"] - lat_plain["p50"],
        "setup.pollack.pollack_log.calls": setup.get("pollack.pollack_log.calls", 0),
        "setup.pollack.pollack_log.total_s": setup.get("pollack.pollack_log.total_s", 0),
    })
    return metrics, {
        "untraced_op_p50_s": lat_plain["p50"],
        "traced_ops": len(traced),
        "divide_exact_rejects_per_op_by_case": rejects,
    }


def run_record(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iwa" / "__init__.py").is_file():
        print(f"no iwa package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    record = run_record(args)
    rng = random.Random(args.seed)
    # the reference before the first set-up needs nothing from iwa
    refs = [reference_sample()]
    if args.trace:
        import spans

        setup_tracer = spans.Tracer()
        _, _, workload = cold_setup(args.workload, setup_tracer)
    else:
        # this process's own set-up is the first of SETUP_REPEATS samples
        imp, build, workload = cold_setup(args.workload)
        samples = [(imp, build)]
        refs.append(reference_sample())
        for _ in range(SETUP_REPEATS - 1):
            samples.append(child_setup(args.workload))
            refs.append(reference_sample())
    workload.build_inputs()

    if args.trace:
        tracers = [spans.Tracer() for _ in workload.cases]
        ops, op_refs = run_ops(workload, rng, args.seconds, tracers)
        metrics, extra = per_layer(ops, workload, tracers, setup_tracer)
        units = PER_LAYER
    else:
        ops, op_refs = run_ops(workload, rng, args.seconds)
        setups = [(i + b, (r0 + r1) / 2) for (i, b), r0, r1 in zip(samples, refs, refs[1:])]
        metrics, extra = end_to_end(ops, setups)
        extra.update(setup_samples_s=samples)
        units = END_TO_END
    extra["reference_median_s"] = statistics.median(refs + op_refs)
    extra["op_s"] = [round(o.seconds, 4) for o in ops]

    failed = [o for o in ops if o.problems]
    kept, over_floor, kept_by_case = digits_kept(ops, workload)
    record.update(extra, ops=len(ops), fail_frac=len(failed) / len(ops),
                  digits_kept=kept, digits_over_floor=over_floor,
                  digits_kept_by_case=kept_by_case)
    print(json.dumps({"record": record}))
    for o in failed:
        print(f"FAILED {workload.name} case {workload.cases[o.case]}:", file=sys.stderr)
        for problem in o.problems:
            print(f"  {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
