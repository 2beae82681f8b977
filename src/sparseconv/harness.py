"""Instance generation, engine registry, and the benchmark grid.

Instances follow the gap model: the product A*B splits into k entries at
or above c1 (products of planted significant values) and everything else
at or below a noise ceiling c2. Noise is injected into the inputs, not
painted onto the product, so the recovery engines face genuine
convolutions; the noise amplitude eta is derived so every cross term in
the output stays inside the band.

Auditing the band: for n <= 1024 the full product is scanned with the
quadratic oracle, whose round-off on tiny entries is far below c2. For
larger n the significant side is computed sparsely and exactly, and the
noise side is certified from the eta bound; a spectral (FFT) scan cannot
certify the <= c2 side because its absolute round-off from the large
entries dwarfs c2.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .approx import approx_sparse_convolve
from .exact import ExactParams, exact_sparse_convolve
from .fft import fft_convolve, fft_work, reset_fft_work
from .numerics import (
    SparseResult,
    as_int,
    as_real,
    dense_pair,
    naive_convolve,
    round_to_int,
)

__all__ = [
    "InstanceSpec",
    "GeneratedInstance",
    "GenerationInfeasibleError",
    "generate_instance",
    "write_instance",
    "load_instance",
    "oracle_convolution",
    "run_engine",
    "evaluate_run",
    "run_benchmark",
    "RunReport",
    "ENGINE_NAMES",
    "ENGINE_ALIASES",
    "CSV_COLUMNS",
    "CSV_SCHEMA_VERSION",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1  # config and summary.json
CSV_SCHEMA_VERSION = 2  # runs.csv; v2 added fft_work_units and error
NAIVE_AUDIT_MAX_N = 1024
ENGINE_NAMES = ("naive", "fft", "approx", "exact")
ENGINE_ALIASES = {"dense-fft": "fft"}

class GenerationInfeasibleError(Exception):
    """The requested instance cannot be generated (gap band audit failed,
    or realized support over the caller's k budget)."""


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a gap-model instance.

    c2 defaults to 1 / (n^2 * ceil(log2 n)); noise_density is the
    fraction of positions receiving noise. Significant values are drawn
    uniformly from value_range, as integers when integer_values is set.
    A field outside its range (README) is a ValueError naming it.
    """

    n: int
    s_a: int
    s_b: int
    value_range: tuple[int, int] = (1, 10)
    c2: float | None = None
    noise_density: float = 1.0
    seed: int = 0
    integer_values: bool = True

    def __post_init__(self):
        for name, least in (("n", 2), ("s_a", 1), ("s_b", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, least))
        if self.s_a > self.n or self.s_b > self.n:
            raise ValueError("s_a and s_b must lie in [1, n]")
        if not (isinstance(self.value_range, (tuple, list)) and len(self.value_range) == 2):
            raise ValueError(f"value_range must be a (lo, hi) pair, not {self.value_range!r}")
        object.__setattr__(self, "value_range", tuple(self.value_range))  # as given: rng.integers draws from it
        lo = as_real(self.value_range[0], "value_range lo", "[1, inf)")
        hi = as_real(self.value_range[1], "value_range hi", f"[{lo}, inf)")
        if not isinstance(self.integer_values, bool):  # the string "false" is truthy
            raise ValueError(f"integer_values must be a bool, not {self.integer_values!r}")
        if self.integer_values and not (lo.is_integer() and hi.is_integer()):
            raise ValueError("value_range bounds must be integers when integer_values is set")
        if self.c2 is not None:
            as_real(self.c2, "c2", "(0, 1)")
        as_real(self.noise_density, "noise_density", "[0, 1]")

    @property
    def c2_effective(self) -> float:
        if self.c2 is not None:
            return self.c2
        return 1.0 / (self.n**2 * math.ceil(math.log2(self.n)))

    @property
    def noise_eta(self) -> float:
        # Every output entry collects at most (s_a+s_b) noise*significant
        # cross terms of size eta*hi and at most n noise*noise terms of
        # size eta^2 <= eta; this eta keeps the total at or below c2/2.
        if self.noise_density <= 0:
            return 0.0
        hi = self.value_range[1]
        return self.c2_effective / (2 * (self.s_a + self.s_b) * hi + 2 * self.n)


class GeneratedInstance(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    k_effective: int
    c1_effective: float


@dataclass(frozen=True)
class _Parts:
    """What an instance file stores: the significant entries and the
    noise descriptor."""

    n: int
    pos_a: np.ndarray
    val_a: np.ndarray
    pos_b: np.ndarray
    val_b: np.ndarray
    eta: float
    density: float
    noise_seed: int


def _sample_noise(n: int, eta: float, density: float, noise_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate the noise pair deterministically from its descriptor."""
    if eta <= 0 or density <= 0:
        return np.zeros(n), np.zeros(n)
    rng = np.random.default_rng([noise_seed, 0x5EED])
    out = []
    for _ in range(2):
        vals = rng.uniform(0.0, eta, n)
        if density < 1.0:
            vals = vals * (rng.random(n) < density)
        out.append(vals)
    return out[0], out[1]


def _assemble(parts: _Parts) -> tuple[np.ndarray, np.ndarray]:
    a, b = _sample_noise(parts.n, parts.eta, parts.density, parts.noise_seed)
    a[parts.pos_a] += parts.val_a
    b[parts.pos_b] += parts.val_b
    return a, b


def _audit(spec: InstanceSpec, parts: _Parts, a: np.ndarray, b: np.ndarray) -> tuple[bool, int, float]:
    """Check the gap band; return (ok, k_effective, c1_effective)."""
    c1_eff = float(spec.value_range[0])
    c2 = spec.c2_effective
    if spec.n <= NAIVE_AUDIT_MAX_N:
        product = naive_convolve(a, b)
        k_eff = int(np.count_nonzero(product >= c1_eff))  # numpy's count is an np.intp
        return np.count_nonzero(product <= c2) == 2 * spec.n - 1 - k_eff, k_eff, c1_eff
    # the planted parts' exact product; bincount sums each index's terms in (i, j) order
    _, index = np.unique(np.add.outer(parts.pos_a, parts.pos_b).ravel(), return_inverse=True)
    sig = np.bincount(index, weights=np.multiply.outer(parts.val_a, parts.val_b).ravel())
    k_eff = int(np.count_nonzero(sig >= c1_eff))
    hi = spec.value_range[1]
    noise_bound = (spec.s_a + spec.s_b) * hi * parts.eta + spec.n * parts.eta**2
    return k_eff == len(sig) and noise_bound <= c2, k_eff, c1_eff


def _generate_parts(spec: InstanceSpec, k_budget: int | None):
    lo, hi = spec.value_range
    c2 = spec.c2_effective
    rng = np.random.default_rng([spec.seed, 0, 0xA11CE])
    pos_a = np.sort(rng.choice(spec.n, size=spec.s_a, replace=False))
    pos_b = np.sort(rng.choice(spec.n, size=spec.s_b, replace=False))
    if spec.integer_values:
        val_a = rng.integers(lo, hi + 1, size=spec.s_a).astype(np.float64)
        val_b = rng.integers(lo, hi + 1, size=spec.s_b).astype(np.float64)
    else:
        val_a = rng.uniform(lo, hi, size=spec.s_a)
        val_b = rng.uniform(lo, hi, size=spec.s_b)
    noise_seed = int(rng.integers(0, 2**62))
    eta = spec.noise_eta
    density = spec.noise_density if eta > 0 else 0.0
    parts = _Parts(spec.n, pos_a, val_a, pos_b, val_b, eta, density, noise_seed)
    a, b = _assemble(parts)
    ok, k_eff, c1_eff = _audit(spec, parts, a, b)
    if not ok:
        raise GenerationInfeasibleError(f"gap band (c2={c2:g}, c1={c1_eff}) violated for seed {spec.seed}")
    if k_budget is not None and k_eff > k_budget:
        raise GenerationInfeasibleError(f"instance realizes k_effective={k_eff} > budget {k_budget}")
    return parts, GeneratedInstance(a, b, k_eff, c1_eff)


def generate_instance(spec: InstanceSpec, k_budget: int | None = None) -> GeneratedInstance:
    """Generate (A, B) plus the realized significant count and threshold.

    Raises GenerationInfeasibleError when the gap band audit fails or
    the realized support exceeds k_budget.
    """
    _, inst = _generate_parts(spec, k_budget)
    return inst


# --- instance file format ------------------------------------------------
#
# Line-oriented text, significant entries listed explicitly, noise stored
# as a descriptor and regenerated on load:
#
#   sparseconv-instance v1
#   n=<int>
#   A <count>
#   <index> <value>          (count lines)
#   B <count>
#   <index> <value>          (count lines)
#   noise eta=<float> density=<float> seed=<int>


class LoadedInstance(NamedTuple):
    n: int
    a: np.ndarray
    b: np.ndarray


def write_instance(path, spec: InstanceSpec) -> GeneratedInstance:
    """Generate an instance and persist it; returns the instance."""
    parts, inst = _generate_parts(spec, None)
    lines = ["sparseconv-instance v1", f"n={spec.n}"]
    for name, pos, val in (("A", parts.pos_a, parts.val_a), ("B", parts.pos_b, parts.val_b)):
        lines.append(f"{name} {len(pos)}")
        lines.extend(f"{int(i)} {float(v)!r}" for i, v in zip(pos, val))
    lines.append(f"noise eta={parts.eta!r} density={parts.density!r} seed={parts.noise_seed}")
    Path(path).write_text("\n".join(lines) + "\n")
    return inst


def _parse(text: str, name: str, kind: type) -> int | float:
    """An instance file's number, int or float; ValueError naming its field otherwise."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, not {text!r}") from None


def load_instance(path) -> LoadedInstance:
    """Parse an instance file and rebuild its vectors bit for bit; ValueError names a bad field."""
    lines = Path(path).read_text().splitlines()
    try:
        if lines[0].strip() != "sparseconv-instance v1":
            raise ValueError(f"unsupported header {lines[0]!r}")
        if not lines[1].startswith("n="):
            raise ValueError("missing n= line")
        n = as_int(_parse(lines[1][2:], "n", int), "n", 1)
        cursor = 2
        sections: list[np.ndarray] = []
        for name in ("A", "B"):
            tag, count = lines[cursor].split()
            if tag != name:
                raise ValueError(f"expected section {name}, got {tag!r}")
            count = as_int(_parse(count, f"section {name} count", int), f"section {name} count", 0)
            pos, val = [], []
            for line in lines[cursor + 1 : cursor + 1 + count]:
                idx, v = line.split()
                idx = _parse(idx, f"section {name} index", int)
                if not 0 <= idx < n:
                    raise ValueError(f"index {idx} out of range for n={n}")
                pos.append(idx)
                val.append(_parse(v, f"section {name} value", float))
            if len(set(pos)) < len(pos):
                raise ValueError(f"section {name} lists an index more than once")
            sections += [np.array(pos, dtype=np.int64), np.array(val, dtype=np.float64)]
            cursor += 1 + count
        noise = lines[cursor].split()
        if noise[0] != "noise":
            raise ValueError("missing noise descriptor line")
        meta = dict(f.split("=", 1) for f in noise[1:])
        eta = as_real(_parse(meta["eta"], "noise eta", float), "noise eta", "[0, inf)")
        density = as_real(_parse(meta["density"], "noise density", float), "noise density", "[0, 1]")
        parts = _Parts(n, *sections, eta, density, as_int(_parse(meta["seed"], "seed", int), "seed", 0))
    except (IndexError, KeyError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc

    a, b = _assemble(parts)
    return LoadedInstance(n, a, b)


# --- engines and reports --------------------------------------------------


def _significant(product: np.ndarray, c1: float) -> SparseResult:
    """A dense product's entries >= c1 with their values."""
    return SparseResult({int(j): float(product[j]) for j in np.flatnonzero(product >= c1)})


def oracle_convolution(a: np.ndarray, b: np.ndarray, c1: float) -> tuple[SparseResult, float | None]:
    """Reference result for scoring: the FFT product's entries >= c1.

    The full product is cross-checked against the quadratic oracle when
    n is small enough to afford it. Returns (truth, crosscheck max abs
    diff over the whole product, or None)."""
    product = fft_convolve(a, b)
    crosscheck = None
    if len(a) <= NAIVE_AUDIT_MAX_N:
        crosscheck = float(np.max(np.abs(product - naive_convolve(a, b))))
    return _significant(product, c1), crosscheck


def _resolve_engine(name: str) -> str:
    engine = ENGINE_ALIASES.get(name, name)
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINE_NAMES}")
    return engine


class EngineRun(NamedTuple):
    result: SparseResult
    wall_ms: float
    fft_work_units: int


def run_engine(engine: str, a: np.ndarray, b: np.ndarray, params: ExactParams) -> EngineRun:
    """Run one engine with `params`; returns its result with wall time and
    the FFT work it charged to the calling thread's counter.

    approx reads `params` as the ApproxParams it extends, exact in full,
    and the dense engines (naive, fft) read only `params.c1`: their
    product becomes its entries >= c1 with their values after the clock
    stops and the work is read, so both measure the engine alone. Inputs
    are checked once: by dense_pair here for a dense engine, by the
    engine's own entry point for approx and exact."""
    engine = _resolve_engine(engine)
    dense = {"naive": naive_convolve, "fft": fft_convolve}.get(engine)
    if dense:
        a, b = dense_pair(a, b)
    sparse = {"approx": approx_sparse_convolve, "exact": exact_sparse_convolve}.get(engine)
    reset_fft_work()
    start = time.perf_counter()
    result = dense(a, b) if dense else sparse(a, b, params)
    wall_ms = (time.perf_counter() - start) * 1000.0
    work = fft_work()
    if dense:
        result = _significant(result, params.c1)
    return EngineRun(result, wall_ms, work)


def evaluate_run(
    result: SparseResult,
    truth: SparseResult,
    rounded: bool = True,
) -> tuple[float, float, float, int]:
    """Score a result against the oracle's significant entries.

    Returns (support_precision, support_recall, max abs error on the
    true support, exact_match flag). Missing indices count with their
    full oracle value as error. exact_match needs the exact support and,
    for a result whose values were rounded to integers, equality with
    the rounded oracle; otherwise every error must be at most 0.01.
    """
    got_supp, true_supp = result.support(), truth.support()
    inter = len(got_supp & true_supp)
    precision = inter / len(got_supp) if got_supp else 1.0
    recall = inter / len(true_supp) if true_supp else 1.0
    max_err = max((abs(result.get(j) - truth[j]) for j in true_supp), default=0.0)
    if got_supp != true_supp:
        exact = 0
    elif rounded:
        exact = int(all(result[j] == float(round_to_int(truth[j])) for j in true_supp))
    else:
        exact = int(max_err <= 0.01)
    return precision, recall, float(max_err), exact


@dataclass(frozen=True)
class RunReport:
    engine: str
    n: int
    k: int
    delta: float
    seed: int
    wall_ms: float
    support_precision: float
    support_recall: float
    max_abs_err_on_support: float
    exact_match: int
    oracle_crosscheck_max_abs_diff: float | None
    fft_work_units: int | None  # None when the engine raised
    error: str  # "ExcType: message" when the engine raised, else ""

    def csv_row(self) -> list[str]:
        return [str(CSV_SCHEMA_VERSION)] + [_csv_cell(f.name, getattr(self, f.name)) for f in fields(self)]


def _csv_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name == "wall_ms":
        return f"{value:.3f}"
    return str(value)


CSV_COLUMNS = ["schema_version", *(f.name for f in fields(RunReport))]


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


_CONFIG_KEYS = {"schema_version", "delta", "c1", "engines", "seeds", "instances"}
_SPEC_KEYS = {f.name for f in fields(InstanceSpec)} - {"seed"}


def _reject_unknown(config: dict, known: set[str], where: str) -> None:
    # a misspelt key would otherwise run silently on its default
    unknown = [key for key in config if key not in known]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")


class _GridInstance(NamedTuple):
    id: str
    spec: InstanceSpec  # each cell sets its seed
    params: ExactParams  # each engine run sets its seed


def _config_from(config) -> dict:
    """The grid's instances, engines and seeds, each checked before any cell runs."""
    if isinstance(config, (str, Path)):
        config = json.loads(Path(config).read_text())
    if not isinstance(config, dict):
        raise ValueError("config must be a dict or a path to a JSON file")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {config.get('schema_version')}")
    for key in ("instances", "engines", "seeds"):
        if key not in config or not config[key]:
            raise ValueError(f"config missing non-empty {key!r}")
    _reject_unknown(config, _CONFIG_KEYS, "config")
    delta = as_real(config.get("delta", 0.1), "delta", "(0, 1)")
    c1 = as_real(config.get("c1", 0.5), "c1", "(0, inf)")
    instances = []
    for i, given in enumerate(config["instances"]):
        if not isinstance(given, dict):
            raise ValueError(f"instance {i} must be an object, not {given!r}")
        _reject_unknown(given, _SPEC_KEYS | {"id", "k"}, f"instance {i}")
        if not isinstance(given.get("id", ""), str):  # ids sort the summary's cells
            raise ValueError(f"instance {i}: id {given['id']!r} is not a string")
        spec_args = {key: given[key] for key in _SPEC_KEYS & given.keys()}
        try:
            spec = InstanceSpec(**spec_args)
        except TypeError as exc:  # a missing n, s_a or s_b
            raise ValueError(f"instance {i}: {exc}") from exc
        k = given.get("k", spec.s_a * spec.s_b)  # ExactParams rejects a non-integral k
        params = ExactParams(k=k, delta=delta, c1=c1, integer_mode=spec.integer_values)
        instances.append(_GridInstance(given.get("id", f"inst{i}"), spec, params))
    engines = [_resolve_engine(e) for e in config["engines"]]
    seeds = [as_int(s, "seed") for s in config["seeds"]]  # int() would truncate 1.5
    ids = [instance.id for instance in instances]
    for what, values in (("instance id", ids), ("engine", engines), ("seed", seeds)):
        repeated = [v for j, v in enumerate(values) if v in values[:j]]
        if repeated:  # their rows would merge into one summary cell
            raise ValueError(f"repeated {what} {repeated[0]!r}")
    return {"delta": delta, "c1": c1, "engines": engines, "seeds": seeds, "instances": instances}


def _grid_cell(instance: _GridInstance, engines: list[str], seed: int):
    """Generate one instance, score every engine on it; one row each."""
    spec = replace(instance.spec, seed=_derive_seed(seed, instance.id))
    params = instance.params
    inst = generate_instance(spec, k_budget=params.k)
    truth, crosscheck = oracle_convolution(inst.a, inst.b, params.c1)

    rows = []
    for engine in engines:
        engine_params = replace(params, seed=_derive_seed(seed, instance.id, engine))
        try:
            run = run_engine(engine, inst.a, inst.b, engine_params)
            scores = evaluate_run(run.result, truth, engine_params.integer_mode and engine == "exact")
            wall_ms, work, error = run.wall_ms, run.fft_work_units, ""
        except Exception as exc:
            wall_ms, scores, work = -1.0, (float("nan"), float("nan"), float("nan"), 0), None
            error = f"{type(exc).__name__}: {exc}"
        report = RunReport(
            engine, spec.n, params.k, params.delta, seed, wall_ms, *scores, crosscheck, work, error
        )
        rows.append((instance.id, report))
    return rows


def run_benchmark(config, out_dir, jobs: int = 1) -> dict:
    """Run the (instance x engine x seed) grid; write runs.csv and
    summary.json under out_dir and return the summary dict.

    Rows are bitwise reproducible given the config except for the
    wall_ms column, which is annotated as non-deterministic. An engine
    failure is recorded in its row's error column, never fatal; a bad
    knob or spec value, or a repeated instance id, engine or seed,
    raises ValueError before any cell runs.
    """
    jobs = as_int(jobs, "jobs", 1)
    config = _config_from(config)
    engines, seeds = config["engines"], config["seeds"]
    cells = [(instance, seed) for instance in config["instances"] for seed in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        cell_rows = list(pool.map(lambda c: _grid_cell(c[0], engines, c[1]), cells))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tally: dict[tuple[str, str], dict] = {}
    with (out_dir / "runs.csv").open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")  # quotes an error's commas
        writer.writerow(CSV_COLUMNS)
        for inst_id, report in (row for rows in cell_rows for row in rows):
            writer.writerow(report.csv_row())
            cell = tally.setdefault(
                (inst_id, report.engine), {"runs": 0, "successes": 0, "failures": 0}
            )
            cell["runs"] += 1
            cell["failures"] += int(bool(report.error))
            cell["successes"] += int(not report.error and report.exact_match == 1)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "engines": engines,
        "seeds": seeds,
        "delta": config["delta"],
        "c1": config["c1"],
        "non_deterministic_fields": ["wall_ms"],
        "cells": [
            {
                "instance": inst_id,
                "engine": engine,
                "runs": cell["runs"],
                "successes": cell["successes"],
                "failures": cell["failures"],
                "success_rate": cell["successes"] / cell["runs"],
            }
            for (inst_id, engine), cell in sorted(tally.items())
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
