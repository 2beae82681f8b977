#!/usr/bin/env python3
"""Per-call latency of sparseconv's three engines on fixed n/k workloads.

Run from the repository root:

    python3 perfbench/run.py --workload n17-k64 --seed 1 --seconds 30 --trace 0

`--seed` fixes the inputs (`generate_instance` with that seed); call i
of each engine uses engine seed i. One process and one thread make
closed-loop library calls, one at a time:

1. Set-up, three times (twice in fresh child processes, once in this
   one): import sparseconv, generate the inputs, build the oracle, and
   warm up with one call of `fft_convolve` and one of
   `approx_sparse_convolve`, which fill the prime sieve and the FFT
   bit-reversal and twiddle tables. `setup_s` is the median of the
   three. Exact is not warmed up: at n >= 2^17 one exact call costs
   more than the rest of the set-up, its bootstrap reuses approx's
   tables, and its remaining cold cost (the level sieve and level
   transform tables) lands in its first measured call.
2. Measurement: engines take turns; each gets a third of `--seconds` and
   at least one call. Every result is checked against an oracle built
   with `numpy.fft`, independent of the code under test (and
   cross-checked against `naive_convolve` for n <= 2^14).

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` every sample is run twice with the same engine seed, once
plain and once under the layer trace (see layertrace.py), in alternating
order; the two results must be identical, and the last line holds the
per-layer metrics, the traced and untraced medians and the overhead.
Layer timings are medians over traced calls; counts and ratios come from
the first traced call of each engine, so they repeat exactly for a seed.

The full report (samples, fingerprints, spans) is written to
`.perfbench/<workload>-seed<seed>-trace<t>.json`; compare.py reads it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from layertrace import COUNT_UNITS, METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("dense", "approx", "exact")
WARM_UP = ("dense", "approx")
SETUP_REPS = 3
DELTA = 0.1
C1 = 0.5
APPROX_TOL = 0.01
DENSE_TOL = 1e-6
NAIVE_CHECK_MAX_N = 2**14
CHILD_TIMEOUT_S = 170
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
LAYER_TIMES = ("fft.self_ms", "hashing.self_ms", "sketch.self_ms", "sketch.extract_ms", "approx.self_ms", "exact.self_ms")


@dataclass(frozen=True)
class Workload:
    """n: input length; s: significant entries planted in a and in b,
    so the product has k = s*s significant entries."""

    name: str
    n: int
    s: int

    @property
    def k(self) -> int:
        return self.s * self.s


# Layer shares below are from a profile of one call per engine on a
# 2-core x86 box (numbers in BENCHMARK.json's `why`).
WORKLOADS = {
    w.name: w
    for w in (
        # Per-call overhead: every sketch takes the dense route and the FFT
        # is at most 20% of a call. Extraction, folds (all identity at the
        # exact levels) and the residual subtraction dominate. No-change
        # control for FFT and sketch-route changes. Not in BENCHMARK.json:
        # its calls last 10-200 ms, and on a shared 2-core VM the medians of
        # 20 s runs spread 0.30 over ten seeds, beyond the largest bound.
        Workload("n14-k64", 2**14, 8),
        # Transform-bound: 75 cyclic sketches of length <= 2^17, ~95% of
        # approx in transforms. Exact repeats approx's profile in its
        # bootstrap; it is measured so every workload reports exact_ms.
        Workload("n17-k64", 2**17, 8),
        # Fold-bound hashing of long inputs (fold ~50% of approx), the
        # largest dense product (2^21 points) and exact's cyclic-route
        # correction levels. The one regime where approx beats dense.
        Workload("n20-k16", 2**20, 4),
    )
}


def fix_allocator() -> None:
    """Keep freed memory in this process's heap.

    By default glibc serves arrays of 128 KiB and up from fresh mmap'd
    pages and moves that threshold as the process runs, so the same call
    pays a different number of page faults from one run to the next, and
    in a virtual machine page faults are slow and vary with host load
    (approx at n=2^14 ranged 30-125 ms per call). Fixed thresholds make
    repeated calls reuse memory, which steadies every timing; costs that
    come from allocating fresh pages are therefore not measured.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to fix
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)


def import_library():
    """Import sparseconv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sparseconv

    if not Path(sparseconv.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sparseconv imported from {sparseconv.__file__}, not {src}")
    return sparseconv


class Oracle:
    """Reference product by numpy's real FFT, and the per-engine checks."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        out_len = 2 * len(a) - 1
        size = 1 << (out_len - 1).bit_length()
        spectrum = np.fft.rfft(a, size) * np.fft.rfft(b, size)
        self.product = np.fft.irfft(spectrum, size)[:out_len]
        self.rounded = np.rint(self.product)
        self.support = set(np.flatnonzero(self.product >= C1).tolist())

    def check(self, engine: str, result) -> str | None:
        """None when `result` passes; otherwise why it failed."""
        if engine == "dense":
            result = np.asarray(result)
            if result.shape != self.product.shape:
                return f"shape {result.shape} != {self.product.shape}"
            diff = float(np.max(np.abs(result - self.product)))
            return None if diff <= DENSE_TOL else f"max abs diff {diff:.3g} > {DENSE_TOL}"
        got = result.entries
        if set(got) != self.support:
            missing = sorted(self.support - set(got))
            extra = sorted(set(got) - self.support)
            return f"support differs: missing {missing[:5]} extra {extra[:5]}"
        if engine == "approx":
            err = max((abs(got[j] - self.product[j]) for j in got), default=0.0)
            return None if err <= APPROX_TOL else f"max value error {err:.3g} > {APPROX_TOL}"
        wrong = [j for j in got if got[j] != self.rounded[j]]
        return None if not wrong else f"{len(wrong)} values differ from the rounded oracle"

    def residual(self, result) -> int:
        """Significant indices a sparse result gets wrong or misses, plus
        indices it reports that are not significant (values rounded)."""
        got = result.entries
        return sum(
            1 for j in self.support | set(got) if np.rint(got.get(j, 0.0)) != self.rounded[j]
        )


@dataclass
class Tally:
    attempted: int = 0
    passed: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.passed += other.passed
        self.failed += other.failed
        self.problems += other.problems


class Bench:
    """One workload's inputs, oracle and engine calls."""

    def __init__(self, lib, w: Workload, seed: int):
        self.lib, self.w = lib, w
        t0 = time.perf_counter()
        inst = lib.generate_instance(lib.InstanceSpec(n=w.n, s_a=w.s, s_b=w.s, seed=seed))
        self.generate_s = time.perf_counter() - t0
        self.a, self.b = inst.a, inst.b
        self.oracle = Oracle(self.a, self.b)
        self.tally = Tally()

    def fingerprint(self) -> dict[str, str]:
        return {
            "a": hashlib.sha256(self.a.tobytes()).hexdigest(),
            "b": hashlib.sha256(self.b.tobytes()).hexdigest(),
        }

    def prepare(self, engine: str, index: int):
        """(function, args) of call `index` of `engine`. The engine seed is
        the call index (0 is the warm-up), the same in every run, so runs
        repeat the same prime draws on their own inputs and their spread
        measures the machine rather than the draw of transform lengths."""
        lib, a, b, seed = self.lib, self.a, self.b, index
        if engine == "dense":
            return lib.fft_convolve, (a, b)
        if engine == "approx":
            return lib.approx_sparse_convolve, (a, b, lib.ApproxParams(k=self.w.k, delta=DELTA, c1=C1, seed=seed))
        return lib.exact_sparse_convolve, (a, b, lib.ExactParams(k=self.w.k, delta=DELTA, c1=C1, seed=seed))

    def record(self, engine: str, index: int, result, error: Exception | None):
        self.tally.attempted += 1
        if error is not None:
            self.tally.failed += 1
            self.tally.problems.append(f"{engine} call {index} raised {type(error).__name__}: {error}")
            return
        reason = self.oracle.check(engine, result)
        if reason is None:
            self.tally.passed += 1
        else:
            self.tally.problems.append(f"{engine} call {index} wrong: {reason}")

    def timed_call(self, engine: str, index: int):
        """One untraced call: (result or None, wall ms)."""
        fn, args = self.prepare(engine, index)
        error = result = None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing call is counted, not fatal
            error = exc
        ms = (time.perf_counter() - start) * 1000.0
        self.record(engine, index, result, error)
        return result, ms

    def traced_call(self, tracer, engine: str, index: int):
        """One call under the tracer: (result or None, wall ms, call id)."""
        fn, args = self.prepare(engine, index)
        error = result = None
        tracer.install()
        try:
            result, call = tracer.call(engine, fn, *args)
        except Exception as exc:
            error, call = exc, None
        finally:
            tracer.uninstall()
        self.record(engine, index, result, error)
        ms = tracer.call_spans(call)[0].ms if call is not None else float("nan")
        return result, ms, call


def set_up(w: Workload, seed: int):
    """Timed set-up: import, generate, oracle, warm-up. Returns (bench, seconds)."""
    start = time.perf_counter()
    lib = import_library()
    bench = Bench(lib, w, seed)
    for engine in WARM_UP:
        bench.timed_call(engine, 0)
    return bench, time.perf_counter() - start


def child_set_up(w: Workload, seed: int) -> dict:
    """Set up in a fresh interpreter, so every cache starts cold."""
    spec = json.dumps(asdict(w))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", spec, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(spec: str, seed: int) -> None:
    bench, seconds = set_up(Workload(**json.loads(spec)), seed)
    print(json.dumps({
        "setup_s": seconds,
        "generate_s": bench.generate_s,
        "fingerprint": bench.fingerprint(),
        "tally": asdict(bench.tally),
    }))


def measure(bench: Bench, seconds: float, tracer=None) -> dict[str, list[dict]]:
    """Closed loop: engines take turns, each within a third of `seconds`.
    An engine makes at least one call, and another only if its time so
    far plus its last call still fits its share. With a tracer, each
    sample is a plain and a traced call with the same engine seed."""
    share = seconds * 1000.0 / len(ENGINES)
    busy = dict.fromkeys(ENGINES, 0.0)
    last = dict.fromkeys(ENGINES, 0.0)
    samples: dict[str, list[dict]] = {e: [] for e in ENGINES}
    turn = 0
    while True:
        order = ENGINES[turn % len(ENGINES):] + ENGINES[: turn % len(ENGINES)]
        active = [e for e in order if busy[e] + last[e] <= share]
        if not active:
            return samples
        for engine in active:
            index = len(samples[engine]) + 1
            sample: dict = {"index": index}
            if tracer is None:
                _, sample["ms"] = bench.timed_call(engine, index)
            else:
                plain = traced = None
                for run_traced in ((False, True) if index % 2 else (True, False)):
                    if run_traced:
                        traced, sample["traced_ms"], sample["call"] = bench.traced_call(tracer, engine, index)
                    else:
                        plain, sample["ms"] = bench.timed_call(engine, index)
                if not _same(plain, traced):
                    bench.tally.problems.append(f"{engine} call {index}: traced result differs from untraced")
            last[engine] = sample["ms"] + sample.get("traced_ms", 0.0)
            busy[engine] += last[engine]
            samples[engine].append(sample)
        turn += 1


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return x is not None and x == y


def distribution(values: list[float]) -> dict:
    """Sample count, quartiles and the highest percentile with at least
    ten samples beyond it."""
    arr = np.asarray(values, dtype=float)
    out = {"n": len(arr), "median": float(np.median(arr))}
    out["p25"], out["p75"] = (float(q) for q in np.percentile(arr, [25, 75]))
    for p in (99.9, 99, 95, 90):
        if len(arr) * (1 - p / 100) >= 10:
            out["tail"] = {"pct": p, "value": float(np.percentile(arr, p))}
            break
    return out


def end_to_end(setup_s: list[float], samples, tally: Tally) -> dict[str, tuple[float, str]]:
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    for engine in ENGINES:
        metrics[f"{engine}_ms"] = (statistics.median(s["ms"] for s in samples[engine]), "ms")
    metrics["correct_frac"] = (tally.passed / tally.attempted, "ratio")
    metrics["completed_frac"] = (1 - tally.failed / tally.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(bench: Bench, tracer, samples, generate_s: list[float]) -> dict[str, tuple[float | None, str]]:
    metrics: dict[str, tuple[float | None, str]] = {}
    medians = {}
    for engine in ENGINES:
        plain = statistics.median(s["ms"] for s in samples[engine])
        traced = statistics.median(s["traced_ms"] for s in samples[engine])
        medians[engine] = plain
        metrics[f"trace.untraced_ms.{engine}"] = (plain, "ms")
        metrics[f"trace.traced_ms.{engine}"] = (traced, "ms")
        metrics[f"trace.overhead_pct.{engine}"] = (100.0 * (traced - plain) / plain, "%")
    metrics["derived.approx_over_dense"] = (medians["approx"] / medians["dense"], "ms/ms")

    for engine in ENGINES:
        calls = [s["call"] for s in samples[engine] if s.get("call") is not None]
        summaries = [tracer.summarise(c, engine, bench.oracle.residual) for c in calls]
        for name, unit, engines, _ in METRICS:
            if engine not in engines:
                continue
            values = [s[name] for s in summaries]
            if not values or values[0] is None:
                value = None
            elif unit in COUNT_UNITS:
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[f"{name}.{engine}"] = (value, unit)
    metrics["harness.generate_s"] = (statistics.median(generate_s), "s")
    return metrics


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; returns the full report (also written to out_dir)."""
    tally = Tally()
    children = [child_set_up(w, seed) for _ in range(setup_reps - 1)]
    bench, own_setup_s = set_up(w, seed)
    fingerprint = bench.fingerprint()
    setup_s = [c["setup_s"] for c in children] + [own_setup_s]
    generate_s = [c["generate_s"] for c in children] + [bench.generate_s]
    for c in children:
        tally.add(Tally(**c["tally"]))
        if c["fingerprint"] != fingerprint:
            tally.problems.append("set-up child generated different inputs")

    crosscheck = None
    if w.n <= NAIVE_CHECK_MAX_N:
        crosscheck = float(np.max(np.abs(bench.oracle.product - bench.lib.naive_convolve(bench.a, bench.b))))
        if not crosscheck <= 1e-9:
            tally.problems.append(f"numpy oracle differs from naive_convolve by {crosscheck:.3g}")

    tracer = Tracer() if trace else None
    samples = measure(bench, seconds, tracer)
    tally.add(bench.tally)

    if trace:
        metrics = per_layer(bench, tracer, samples, generate_s)
    else:
        metrics = end_to_end(setup_s, samples, tally)
    report = {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint,
        "oracle_naive_max_abs_diff": crosscheck,
        "setup_s": setup_s,
        "generate_s": generate_s,
        "latency_ms": {e: distribution([s["ms"] for s in samples[e]]) for e in ENGINES},
        "samples": samples,
        "tally": asdict(tally),
        "correct": tally.passed == tally.attempted and not tally.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["missing_sites"] = sorted(tracer.missing | tracer.broken)
        report["spans"] = tracer.dump()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report))
    report["path"] = str(path)
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"workload {w['name']}: n={w['n']} k={w['s'] ** 2} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"inputs sha256 a={report['fingerprint']['a']} b={report['fingerprint']['b']}")
    print("setup_s reps " + " ".join(f"{s:.4f}" for s in report["setup_s"]))
    for engine, d in report["latency_ms"].items():
        tail = f" p{d['tail']['pct']:g}={d['tail']['value']:.4f}" if "tail" in d else " (too few samples for a tail)"
        print(f"{engine}_ms n={d['n']} p25={d['p25']:.4f} median={d['median']:.4f} p75={d['p75']:.4f}{tail}")
    dense, approx = report["latency_ms"]["dense"]["median"], report["latency_ms"]["approx"]["median"]
    print(f"approx_ms/dense_ms = {approx / dense:.4f} (derived headline, not gated)")
    t = report["tally"]
    print(f"calls attempted={t['attempted']} passed={t['passed']} failed={t['failed']} "
          f"failed_frac={t['failed'] / t['attempted']:.4f}")
    for problem in t["problems"]:
        print(f"PROBLEM {problem}")
    for name, m in report["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}")
    if report["trace"]:
        metrics = report["metrics"]
        for engine in ENGINES:
            wall = metrics[f"trace.traced_ms.{engine}"]["value"]
            shares = [
                f"{name.removesuffix('_ms').removesuffix('.self')} {100 * m['value'] / wall:.1f}%"
                for name in LAYER_TIMES
                if (m := metrics.get(f"{name}.{engine}")) and m["value"] is not None
            ]
            print(f"layer self-time shares of traced {engine}_ms: " + ", ".join(shares))
    if report.get("missing_sites"):
        print("missing trace sites: " + ", ".join(report["missing_sites"]))
    print(f"report written to {report['path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench", help="report directory")
    parser.add_argument("--setup-only", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sparseconv" / "__init__.py").is_file():
        print(f"perfbench: no sparseconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fix_allocator()
    if args.setup_only:
        setup_only(args.setup_only, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)
    print_report(report)
    t = report["tally"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
