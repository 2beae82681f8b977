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

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .approx import ApproxParams, approx_sparse_convolve
from .exact import ExactParams, exact_sparse_convolve
from .fft import fft_convolve, fft_work, reset_fft_work
from .numerics import (
    SparseResult,
    dense_vector,
    naive_convolve,
    norm_ge,
    norm_le,
    round_to_int,
    support_ge,
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
    "CSV_COLUMNS",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
NAIVE_AUDIT_MAX_N = 1024
ENGINE_NAMES = ("naive", "fft", "approx", "exact")
_ENGINE_ALIASES = {"dense-fft": "fft"}

class GenerationInfeasibleError(Exception):
    """The requested instance cannot be generated (gap band violated
    repeatedly, or realized support exceeds the caller's k budget)."""


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a gap-model instance.

    c2 defaults to 1 / (n^2 * ceil(log2 n)); noise_density is the
    fraction of positions receiving noise. Significant values are drawn
    uniformly from value_range, as integers when integer_values is set.
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
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= self.s_a <= self.n or not 1 <= self.s_b <= self.n:
            raise ValueError("s_a and s_b must lie in [1, n]")
        lo, hi = self.value_range
        if not 1 <= lo <= hi:
            raise ValueError("value_range must satisfy 1 <= lo <= hi")
        if self.c2 is not None and not 0 < self.c2 < 1:
            raise ValueError("c2 must lie in (0, 1)")
        if not 0 <= self.noise_density <= 1:
            raise ValueError("noise_density must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

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


def _significant_product(parts: _Parts) -> dict[int, float]:
    """Exact sparse convolution of the significant parts alone."""
    out: dict[int, float] = {}
    for i, va in zip(parts.pos_a, parts.val_a):
        for j, vb in zip(parts.pos_b, parts.val_b):
            idx = int(i + j)
            out[idx] = out.get(idx, 0.0) + float(va) * float(vb)
    return out


def _audit(spec: InstanceSpec, parts: _Parts, a: np.ndarray, b: np.ndarray) -> tuple[bool, int, float]:
    """Check the gap band; return (ok, k_effective, c1_effective)."""
    c1_eff = float(spec.value_range[0])
    c2 = spec.c2_effective
    out_len = 2 * spec.n - 1
    if spec.n <= NAIVE_AUDIT_MAX_N:
        product = naive_convolve(a, b)
        k_eff = norm_ge(product, c1_eff)
        ok = norm_le(product, c2) == out_len - k_eff
        return ok, k_eff, c1_eff
    sig = _significant_product(parts)
    k_eff = sum(1 for v in sig.values() if v >= c1_eff)
    hi = spec.value_range[1]
    noise_bound = (spec.s_a + spec.s_b) * hi * parts.eta + spec.n * parts.eta**2
    ok = k_eff == len(sig) and noise_bound <= c2
    return ok, k_eff, c1_eff


def _generate_parts(spec: InstanceSpec, k_budget: int | None):
    lo, hi = spec.value_range
    c2 = spec.c2_effective
    # Cross terms must stay strictly inside the noise band.
    if not c2 * (spec.s_a * hi + spec.s_b * hi + spec.n * c2) < lo / 2:
        raise GenerationInfeasibleError(
            f"noise ceiling c2={c2:g} too large for value range {spec.value_range} at n={spec.n}"
        )
    for attempt in range(10):
        rng = np.random.default_rng([spec.seed, attempt, 0xA11CE])
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
            continue
        if k_budget is not None and k_eff > k_budget:
            raise GenerationInfeasibleError(
                f"instance realizes k_effective={k_eff} > budget {k_budget}"
            )
        return parts, GeneratedInstance(a, b, k_eff, c1_eff)
    raise GenerationInfeasibleError(
        f"gap band (c2={spec.c2_effective:g}, c1={float(spec.value_range[0])}) "
        f"violated in 10 attempts for seed {spec.seed}"
    )


def generate_instance(spec: InstanceSpec, k_budget: int | None = None) -> GeneratedInstance:
    """Generate (A, B) plus the realized significant count and threshold.

    Retries with derived seeds if the gap band audit fails; raises
    GenerationInfeasibleError after 10 attempts or when the realized
    support exceeds k_budget.
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


def write_instance(path, spec: InstanceSpec, k_budget: int | None = None) -> GeneratedInstance:
    """Generate an instance and persist it; returns the instance."""
    parts, inst = _generate_parts(spec, k_budget)
    lines = ["sparseconv-instance v1", f"n={spec.n}"]
    for name, pos, val in (("A", parts.pos_a, parts.val_a), ("B", parts.pos_b, parts.val_b)):
        lines.append(f"{name} {len(pos)}")
        lines.extend(f"{int(i)} {float(v)!r}" for i, v in zip(pos, val))
    lines.append(f"noise eta={parts.eta!r} density={parts.density!r} seed={parts.noise_seed}")
    Path(path).write_text("\n".join(lines) + "\n")
    return inst


def load_instance(path) -> LoadedInstance:
    """Parse an instance file and rebuild its vectors bit for bit."""
    lines = Path(path).read_text().splitlines()
    try:
        if lines[0].strip() != "sparseconv-instance v1":
            raise ValueError(f"unsupported header {lines[0]!r}")
        if not lines[1].startswith("n="):
            raise ValueError("missing n= line")
        n = int(lines[1][2:])
        cursor = 2
        sections: list[np.ndarray] = []
        for name in ("A", "B"):
            tag, count = lines[cursor].split()
            if tag != name:
                raise ValueError(f"expected section {name}, got {tag!r}")
            count = int(count)
            pos, val = [], []
            for line in lines[cursor + 1 : cursor + 1 + count]:
                idx, v = line.split()
                idx = int(idx)
                if not 0 <= idx < n:
                    raise ValueError(f"index {idx} out of range for n={n}")
                pos.append(idx)
                val.append(float(v))
            sections += [np.array(pos, dtype=np.int64), np.array(val, dtype=np.float64)]
            cursor += 1 + count
        noise = lines[cursor].split()
        if noise[0] != "noise":
            raise ValueError("missing noise descriptor line")
        meta = dict(f.split("=", 1) for f in noise[1:])
        parts = _Parts(n, *sections, float(meta["eta"]), float(meta["density"]), int(meta["seed"]))
    except (IndexError, KeyError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc

    a, b = _assemble(parts)
    return LoadedInstance(n, a, b)


# --- engines and reports --------------------------------------------------


def oracle_convolution(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float | None]:
    """Reference product for scoring: the FFT path, cross-checked against
    the quadratic oracle when n is small enough to afford it. Returns
    (product, crosscheck max abs diff or None)."""
    product = fft_convolve(a, b)
    crosscheck = None
    if len(a) <= NAIVE_AUDIT_MAX_N:
        crosscheck = float(np.max(np.abs(product - naive_convolve(a, b))))
    return product, crosscheck


class EngineRun(NamedTuple):
    result: SparseResult | np.ndarray
    wall_ms: float
    fft_work_units: int


def run_engine(
    engine: str,
    a: np.ndarray,
    b: np.ndarray,
    *,
    k: int = 1,
    delta: float = 0.1,
    c1: float = 0.5,
    seed: int = 0,
    integer_mode: bool = True,
) -> EngineRun:
    """Run one engine; returns its result with wall time and the FFT work
    it charged to the calling thread's counter."""
    engine = _ENGINE_ALIASES.get(engine, engine)
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")
    a = dense_vector(a)
    b = dense_vector(b)
    reset_fft_work()
    start = time.perf_counter()
    if engine == "naive":
        result = naive_convolve(a, b)
    elif engine == "fft":
        result = fft_convolve(a, b)
    elif engine == "approx":
        params = ApproxParams(k=k, delta=delta, c1=c1, seed=seed)
        result = approx_sparse_convolve(a, b, params)
    else:
        params = ExactParams(k=k, delta=delta, c1=c1, seed=seed, integer_mode=integer_mode)
        result = exact_sparse_convolve(a, b, params)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return EngineRun(result, wall_ms, fft_work())


def evaluate_run(
    result: SparseResult | np.ndarray,
    oracle: np.ndarray,
    c1: float,
    integer_values: bool = True,
) -> tuple[float, float, float, int]:
    """Score a result against the oracle's significant support.

    Returns (support_precision, support_recall, max abs error on the
    true support, exact_match flag). Missing indices count with their
    full oracle value as error. exact_match compares against the rounded
    oracle on integer instances and uses a 0.01 tolerance otherwise.
    """
    true_supp = support_ge(oracle, c1)
    if isinstance(result, SparseResult):
        got_supp = result.support()

        def value_of(j):
            return result.get(j, 0.0)

    else:
        got_supp = support_ge(result, c1)

        def value_of(j):
            return float(result[j])

    inter = len(got_supp & true_supp)
    precision = inter / len(got_supp) if got_supp else 1.0
    recall = inter / len(true_supp) if true_supp else 1.0
    max_err = max((abs(value_of(j) - oracle[j]) for j in true_supp), default=0.0)
    if got_supp != true_supp:
        exact = 0
    elif integer_values:
        exact = int(all(value_of(j) == float(round_to_int(oracle[j])) for j in true_supp))
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

    def csv_row(self) -> list[str]:
        return [str(SCHEMA_VERSION)] + [_csv_cell(f.name, getattr(self, f.name)) for f in fields(self)]


def _csv_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name == "wall_ms":
        return f"{value:.3f}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


CSV_COLUMNS = ["schema_version", *(f.name for f in fields(RunReport))]


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _config_from(config) -> dict:
    if isinstance(config, (str, Path)):
        config = json.loads(Path(config).read_text())
    if not isinstance(config, dict):
        raise ValueError("config must be a dict or a path to a JSON file")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {config.get('schema_version')}")
    for key in ("instances", "engines"):
        if key not in config or not config[key]:
            raise ValueError(f"config missing non-empty {key!r}")
    if "seeds" not in config and "seed_count" not in config:
        raise ValueError("config must give 'seeds' or 'seed_count'")
    return config


def _grid_cell(inst_cfg: dict, engines: list[str], seed: int, delta: float, c1: float):
    """Generate one instance, score every engine on it; one row each."""
    inst_id = inst_cfg["id"]
    spec = InstanceSpec(
        n=int(inst_cfg["n"]),
        s_a=int(inst_cfg["s_a"]),
        s_b=int(inst_cfg["s_b"]),
        value_range=tuple(inst_cfg.get("value_range", (1, 10))),
        c2=inst_cfg.get("c2"),
        noise_density=float(inst_cfg.get("noise_density", 1.0)),
        seed=_derive_seed(seed, inst_id),
        integer_values=bool(inst_cfg.get("integer_values", True)),
    )
    k = int(inst_cfg.get("k", inst_cfg["s_a"] * inst_cfg["s_b"]))
    inst = generate_instance(spec, k_budget=k)
    oracle, crosscheck = oracle_convolution(inst.a, inst.b)

    rows = []
    for engine in engines:
        engine_seed = _derive_seed(seed, inst_id, engine)
        try:
            run = run_engine(
                engine,
                inst.a,
                inst.b,
                k=k,
                delta=delta,
                c1=c1,
                seed=engine_seed,
                integer_mode=spec.integer_values,
            )
            precision, recall, max_err, exact = evaluate_run(
                run.result, oracle, c1, spec.integer_values
            )
            report = RunReport(
                engine, spec.n, k, delta, seed, run.wall_ms,
                precision, recall, max_err, exact, crosscheck,
            )
            failed = False
        except Exception:
            report = RunReport(
                engine, spec.n, k, delta, seed, -1.0,
                float("nan"), float("nan"), float("nan"), 0, crosscheck,
            )
            failed = True
        rows.append((inst_id, engine, report, failed))
    return rows


def run_benchmark(config, out_dir, jobs: int = 1) -> dict:
    """Run the (instance x engine x seed) grid; write runs.csv and
    summary.json under out_dir and return the summary dict.

    Rows are bitwise reproducible given the config except for the
    wall_ms column, which is annotated as non-deterministic. Engine
    failures are recorded in their row, never fatal.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    config = _config_from(config)
    engines = [_ENGINE_ALIASES.get(e, e) for e in config["engines"]]
    for e in engines:
        if e not in ENGINE_NAMES:
            raise ValueError(f"unknown engine {e!r} in config")
    if "seeds" in config:
        seeds = [int(s) for s in config["seeds"]]
    else:
        base = int(config.get("seed_base", 0))
        seeds = list(range(base, base + int(config["seed_count"])))
    delta = float(config.get("delta", 0.1))
    c1 = float(config.get("c1", 0.5))
    instances = []
    for i, inst_cfg in enumerate(config["instances"]):
        inst_cfg = dict(inst_cfg)
        inst_cfg.setdefault("id", f"inst{i}")
        instances.append(inst_cfg)

    cells = [(inst_cfg, seed) for inst_cfg in instances for seed in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        cell_rows = list(pool.map(lambda c: _grid_cell(c[0], engines, c[1], delta, c1), cells))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tally: dict[tuple[str, str], dict] = {}
    lines = [",".join(CSV_COLUMNS)]
    for rows in cell_rows:
        for inst_id, engine, report, failed in rows:
            lines.append(",".join(report.csv_row()))
            cell = tally.setdefault(
                (inst_id, engine), {"runs": 0, "successes": 0, "failures": 0}
            )
            cell["runs"] += 1
            cell["failures"] += int(failed)
            if not failed:
                ok = (
                    report.exact_match == 1
                    if engine == "exact"
                    else (
                        report.support_precision == 1.0
                        and report.support_recall == 1.0
                        and report.max_abs_err_on_support <= 0.01
                    )
                )
                cell["successes"] += int(ok)
    (out_dir / "runs.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "schema_version": SCHEMA_VERSION,
        "engines": engines,
        "seeds": seeds,
        "delta": delta,
        "c1": c1,
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
