"""Outside-in layer trace of sparseconv engine calls.

The tracer patches public sparseconv functions at the modules that call
them: `sketch.py` does `from .fft import fft_forward`, so the name that
`build_sketch` looks up is `sparseconv.sketch.fft_forward`, and that is
the attribute patched. Nothing inside the library changes. Patches are
installed only around traced calls, so untraced calls run the original
code.

Each wrapper records a span (function, layer, start, end, parent span,
engine call id) plus a few counts derived from its arguments. Spans stay
in memory; `summarise` turns one call's spans into per-layer metrics.

A site whose name no longer exists is reported as missing, and every
metric that depends on it is returned as None (absent) instead of being
computed from a partial picture.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, layer). An attribute "Class.method" patches the
# method on the class.
SITES = (
    ("sparseconv.fft", "fft_forward", "fft"),
    ("sparseconv.fft", "fft_inverse_real", "fft"),
    ("sparseconv.sketch", "fft_forward", "fft"),
    ("sparseconv.sketch", "fft_inverse_real", "fft"),
    ("sparseconv.sketch", "fft_convolve", "fft"),
    ("sparseconv.sketch", "fold_linear_to_cyclic", "fft"),
    ("sparseconv.sketch", "SketchCache.dense_products", "fft"),
    ("sparseconv.sketch", "fold", "hashing"),
    ("sparseconv.sketch", "fold_sparse", "hashing"),
    ("sparseconv.approx", "sample_prime", "hashing"),
    ("sparseconv.exact", "sample_prime", "hashing"),
    ("sparseconv.approx", "build_sketch", "sketch"),
    ("sparseconv.sketch", "build_sketch", "sketch"),
    ("sparseconv.exact", "build_residual_sketch", "sketch"),
    ("sparseconv.approx", "extract_candidates", "sketch"),
    ("sparseconv.exact", "extract_candidates", "sketch"),
    ("sparseconv.exact", "approx_sparse_convolve", "approx"),
    ("sparseconv.exact", "run_correction_level", "exact"),
)
WORK_PROBE = ("sparseconv.fft", "fft_work")

# Layer of the span opened around each engine call: the module the
# engine function lives in.
ENGINE_LAYER = {"dense": "fft", "approx": "approx", "exact": "exact"}
LAYERS = ("fft", "hashing", "sketch", "approx", "exact")
LEVEL_SLOTS = ("1", "2", "3", "4", "rest")


# Per-layer metrics: (name, unit, engines it applies to, functions whose
# sites it needs). Self times need every site ("*"), because a missing
# wrapper moves its time into the caller's self time.
_SKETCHING = ("approx", "exact")
METRICS = (
    ("fft.self_ms", "ms", ("dense", "approx", "exact"), ("*",)),
    ("fft.transforms", "count", ("dense", "approx", "exact"), ("fft_forward", "fft_inverse_real")),
    ("fft.points", "count", ("dense", "approx", "exact"), ("fft_forward", "fft_inverse_real")),
    ("fft.work_units", "count", ("dense", "approx", "exact"), ("fft_work",)),
    ("fft.dense_ms", "ms", _SKETCHING, ("dense_products",)),
    ("hashing.self_ms", "ms", _SKETCHING, ("*",)),
    ("hashing.fold_calls", "count", _SKETCHING, ("fold",)),
    ("hashing.fold_bytes", "bytes", _SKETCHING, ("fold",)),
    ("hashing.identity_fold_frac", "ratio", _SKETCHING, ("fold",)),
    ("hashing.sparse_fold_calls", "count", ("exact",), ("fold_sparse",)),
    ("sketch.builds", "count", _SKETCHING, ("build_sketch",)),
    ("sketch.cyclic_frac", "ratio", _SKETCHING, ("build_sketch", "fold")),
    ("sketch.self_ms", "ms", _SKETCHING, ("*",)),
    ("sketch.extract_ms", "ms", _SKETCHING, ("*",)),
    ("sketch.heavy_buckets", "count", _SKETCHING, ("extract_candidates",)),
    ("sketch.accept_ratio", "ratio", _SKETCHING, ("extract_candidates",)),
    ("approx.reps", "count", _SKETCHING, ("build_sketch", "approx_sparse_convolve")),
    ("approx.self_ms", "ms", _SKETCHING, ("*",)),
    ("approx.kept_frac", "ratio", _SKETCHING, ("extract_candidates", "approx_sparse_convolve")),
    ("exact.self_ms", "ms", ("exact",), ("*",)),
    ("exact.bootstrap_ms", "ms", ("exact",), ("approx_sparse_convolve",)),
    *(
        (f"exact.level_ms.{slot}", "ms", ("exact",), ("run_correction_level",))
        for slot in LEVEL_SLOTS
    ),
    ("exact.levels", "count", ("exact",), ("run_correction_level",)),
    ("exact.residual_sketches", "count", ("exact",), ("build_residual_sketch",)),
    ("exact.residual_after_bootstrap", "count", ("exact",), ("approx_sparse_convolve",)),
    ("exact.residual_final", "count", ("exact",), ()),
)
COUNT_UNITS = frozenset({"count", "bytes", "ratio"})


@dataclass
class Span:
    func: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    call: int = 0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _describe_fold(args, result):
    return {"in_len": len(args["a"]), "p": int(args["p"])}


def _describe_extract(args, result):
    s, c1 = args["s"], args["c1"]
    return {
        "heavy": int(np.count_nonzero(s.v >= c1)),
        "accepted": len(result),
        "indices": [c.index for c in result],
    }


# Argument-derived counts, keyed by function name. A describer that
# raises marks its site broken, which makes its metrics absent.
DESCRIBE = {
    "fft_forward": lambda args, result: {"points": int(args["n"])},
    "fft_inverse_real": lambda args, result: {"points": len(args["spectrum"])},
    "fold": _describe_fold,
    "build_sketch": lambda args, result: {"n": len(args["a"])},
    "extract_candidates": _describe_extract,
    "approx_sparse_convolve": lambda args, result: {"result": result},
    "run_correction_level": lambda args, result: {"level": int(args["level"])},
}


class Tracer:
    """Span recorder for engine calls made one at a time on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._bounds: dict[int, tuple[int, int]] = {}
        self._call = 0
        self._work = None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in SITES:
            key = f"{module_name}:{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.add(key)
                continue
            self._patches.append((owner, name, original))
            setattr(owner, name, self._wrap(key, name, layer, original))
        module_name, attr = WORK_PROBE
        try:
            self._work = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self._work = None
            self.missing.add(f"{module_name}:{attr}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, key: str, func: str, layer: str, original):
        describe = DESCRIBE.get(func)
        signature = inspect.signature(original) if describe else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            idx = len(self.spans)
            span = Span(func, layer, 0.0, parent=self._stack[-1], call=self._call)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                try:
                    span.info = describe(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError):
                    self.broken.add(key)
            return result

        return wrapper

    # -- engine calls -------------------------------------------------------

    def call(self, engine: str, fn, *args):
        """Run fn(*args) as one traced engine call; returns (result, call id)."""
        self._call += 1
        first = len(self.spans)
        root = Span(engine, ENGINE_LAYER[engine], 0.0, call=self._call)
        self.spans.append(root)
        work0 = self._work() if self._work else None
        self._stack.append(first)
        root.start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._bounds[self._call] = (first, len(self.spans))
        if work0 is not None:
            root.info["work_units"] = self._work() - work0
        if not isinstance(result, np.ndarray):  # sparse results feed kept/residual counts
            root.info["result"] = result
        return result, self._call

    # -- summaries ----------------------------------------------------------

    def call_spans(self, call: int) -> list[Span]:
        first, stop = self._bounds[call]
        return self.spans[first:stop]

    def summarise(self, call: int, engine: str, residual) -> dict[str, float | None]:
        """Per-layer metrics of one engine call; None marks an absent metric.

        `residual(SparseResult)` counts wrong or missing significant
        indices against the oracle.
        """
        first, _ = self._bounds[call]
        spans = self.call_spans(call)
        root = spans[0]
        children: dict[int, list[Span]] = {}
        for s in spans[1:]:
            children.setdefault(s.parent - first, []).append(s)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        extract_ms = 0.0
        for i, s in enumerate(spans):
            own = s.ms - sum(c.ms for c in children.get(i, ()))
            if s.func == "extract_candidates":
                extract_ms += own
            else:
                layer_self[s.layer] += own

        def named(*funcs):
            return [s for s in spans if s.func in funcs]

        def is_cyclic(i: int) -> bool:
            # dense route = the build folds the length-2n-1 product
            n = spans[i].info["n"]
            return not any(c.info.get("in_len") == 2 * n - 1 for c in children.get(i, ()) if c.func == "fold")

        transforms = named("fft_forward", "fft_inverse_real")
        folds = named("fold")
        builds = [i for i, s in enumerate(spans) if s.func == "build_sketch" and s.info]
        extracts = named("extract_candidates")
        levels = named("run_correction_level")
        bootstrap = named("approx_sparse_convolve")
        heavy = sum(s.info.get("heavy", 0) for s in extracts)
        accepted = sum(s.info.get("accepted", 0) for s in extracts)

        # approx layer: the approx engine call itself, or exact's bootstrap
        reps = pooled = kept = 0
        for i, s in enumerate(spans):
            if s.func not in ("approx", "approx_sparse_convolve"):
                continue
            under = children.get(i, ())
            reps += sum(1 for c in under if c.func == "build_sketch")
            pooled += len({j for c in under if c.func == "extract_candidates" for j in c.info.get("indices", ())})
            kept += len(s.info.get("result") or ())

        level_ms = dict.fromkeys(LEVEL_SLOTS, 0.0)
        for s in levels:
            level = s.info.get("level", 0)
            level_ms[str(level) if str(level) in level_ms else "rest"] += s.ms

        out = {
            "fft.self_ms": layer_self["fft"],
            "fft.transforms": len(transforms),
            "fft.points": sum(s.info.get("points", 0) for s in transforms),
            "fft.work_units": root.info.get("work_units"),
            "fft.dense_ms": sum(s.ms for s in named("dense_products")),
            "hashing.self_ms": layer_self["hashing"],
            "hashing.fold_calls": len(folds),
            "hashing.fold_bytes": sum(8 * (s.info["in_len"] + s.info["p"]) for s in folds if s.info),
            "hashing.identity_fold_frac": _frac(
                sum(1 for s in folds if s.info and s.info["p"] >= s.info["in_len"]), len(folds)
            ),
            "hashing.sparse_fold_calls": len(named("fold_sparse")),
            "sketch.builds": len(builds),
            "sketch.cyclic_frac": _frac(sum(1 for i in builds if is_cyclic(i)), len(builds)),
            "sketch.self_ms": layer_self["sketch"],
            "sketch.extract_ms": extract_ms,
            "sketch.heavy_buckets": heavy,
            "sketch.accept_ratio": _frac(accepted, heavy),
            "approx.reps": reps,
            "approx.self_ms": layer_self["approx"],
            "approx.kept_frac": _frac(kept, pooled),
            "exact.self_ms": layer_self["exact"],
            "exact.bootstrap_ms": sum(s.ms for s in bootstrap),
            **{f"exact.level_ms.{slot}": ms for slot, ms in level_ms.items()},
            "exact.levels": len(levels),
            "exact.residual_sketches": len(named("build_residual_sketch")),
            "exact.residual_after_bootstrap": sum(residual(s.info["result"]) for s in bootstrap if s.info),
            "exact.residual_final": residual(root.info["result"]) if engine == "exact" else 0,
        }
        gone = {key.rsplit(":", 1)[1].rsplit(".", 1)[-1] for key in self.missing | self.broken}
        return {
            name: (None if gone and ("*" in deps or gone & set(deps)) else out[name])
            for name, _, engines, deps in METRICS
            if engine in engines
        }

    def dump(self) -> list[dict]:
        """Spans as JSON-ready dicts (scalar info only)."""
        return [
            {
                "func": s.func,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "call": s.call,
                **{k: v for k, v in s.info.items() if isinstance(v, (int, float))},
            }
            for s in self.spans
        ]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0
