import csv
import json

import numpy as np
import pytest

from sparseconv import harness
from sparseconv.cli import main as cli_main
from sparseconv.fft import fft_convolve, pad_length, transform_work
from sparseconv.harness import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    GenerationInfeasibleError,
    InstanceSpec,
    evaluate_run,
    generate_instance,
    load_instance,
    oracle_convolution,
    run_benchmark,
    run_engine,
    write_instance,
)
from sparseconv.numerics import SparseResult, naive_convolve, norm_ge, norm_le, support_ge


class TestGenerateInstance:
    def test_single_impulses_no_noise(self):
        spec = InstanceSpec(n=64, s_a=1, s_b=1, noise_density=0.0, seed=1)
        inst = generate_instance(spec)
        assert inst.k_effective == 1
        assert np.count_nonzero(inst.a) == 1 and np.count_nonzero(inst.b) == 1

    def test_gap_band_audit(self):
        spec = InstanceSpec(n=2**10, s_a=8, s_b=8, seed=2)
        inst = generate_instance(spec)
        c = naive_convolve(inst.a, inst.b)
        c2 = spec.c2_effective
        assert inst.k_effective <= 64
        assert norm_ge(c, inst.c1_effective) == inst.k_effective
        assert norm_le(c, c2) == (2 * spec.n - 1) - inst.k_effective

    def test_noise_free_support_is_exact_product_support(self):
        spec = InstanceSpec(n=256, s_a=3, s_b=3, noise_density=0.0, seed=3)
        inst = generate_instance(spec)
        c = naive_convolve(inst.a, inst.b)
        assert support_ge(c, inst.c1_effective) == {int(i) for i in np.flatnonzero(c)}

    def test_large_n_uses_analytic_audit(self):
        spec = InstanceSpec(n=2**14, s_a=4, s_b=4, seed=4)
        inst = generate_instance(spec)
        assert 1 <= inst.k_effective <= 16

    def test_k_budget_enforced(self):
        spec = InstanceSpec(n=2**10, s_a=8, s_b=8, seed=5)
        with pytest.raises(GenerationInfeasibleError):
            generate_instance(spec, k_budget=3)

    def test_determinism(self):
        spec = InstanceSpec(n=512, s_a=4, s_b=4, seed=6)
        first = generate_instance(spec)
        second = generate_instance(spec)
        np.testing.assert_array_equal(first.a, second.a)
        np.testing.assert_array_equal(first.b, second.b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec(n=1, s_a=1, s_b=1)
        with pytest.raises(ValueError):
            InstanceSpec(n=8, s_a=0, s_b=1)
        with pytest.raises(ValueError):
            InstanceSpec(n=8, s_a=1, s_b=1, value_range=(0, 5))


class TestInstanceFiles:
    @pytest.mark.parametrize("noise_density, integer_values", [(1.0, True), (0.5, True), (1.0, False)])
    def test_roundtrip_bitwise(self, tmp_path, noise_density, integer_values):
        path = tmp_path / "inst.txt"
        spec = InstanceSpec(
            n=1024, s_a=5, s_b=3, seed=7, noise_density=noise_density, integer_values=integer_values
        )
        direct = generate_instance(spec)
        write_instance(path, spec)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.a, direct.a)
        np.testing.assert_array_equal(loaded.b, direct.b)
        assert loaded.n == 1024

    def test_zero_noise_roundtrip(self, tmp_path):
        path = tmp_path / "inst.txt"
        spec = InstanceSpec(n=128, s_a=2, s_b=2, noise_density=0.0, seed=8)
        direct = generate_instance(spec)
        write_instance(path, spec)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.a, direct.a)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-an-instance\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sparseconv-instance v1\nn=16\nA 2\n3 1.0\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_repeated_index_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text(
            "sparseconv-instance v1\nn=16\nA 2\n3 1.0\n3 2.0\nB 1\n0 1.0\n"
            "noise eta=0.0 density=0.0 seed=0\n"
        )
        with pytest.raises(ValueError, match="more than once"):
            load_instance(path)
        assert cli_main(["conv", "--engine", "naive", "--a", str(path), "--b", str(path)]) == 1
        capsys.readouterr()


class TestEngines:
    def test_all_engines_agree_on_small_instance(self):
        spec = InstanceSpec(n=512, s_a=3, s_b=3, seed=9)
        inst = generate_instance(spec)
        truth, crosscheck = oracle_convolution(inst.a, inst.b, 0.5)
        assert crosscheck is not None and crosscheck <= 1e-8
        for engine in ("naive", "fft", "approx", "exact"):
            run = run_engine(engine, inst.a, inst.b, k=9, delta=0.1, seed=10)
            precision, recall, max_err, exact = evaluate_run(run.result, truth, True)
            assert precision == 1.0 and recall == 1.0
            assert max_err <= 0.01
            if engine in ("naive", "fft", "exact"):
                assert run.fft_work_units >= 0

    @pytest.mark.parametrize("engine, convolve", [("naive", naive_convolve), ("fft", fft_convolve)])
    def test_dense_engine_result_is_its_significant_entries(self, engine, convolve):
        inst = generate_instance(InstanceSpec(n=256, s_a=3, s_b=3, seed=12))
        product = convolve(inst.a, inst.b)
        expected = {j: float(product[j]) for j in support_ge(product, 0.5)}
        assert run_engine(engine, inst.a, inst.b, c1=0.5).result == SparseResult(expected)

    def test_dense_fft_alias(self):
        inst = generate_instance(InstanceSpec(n=64, s_a=1, s_b=1, seed=11))
        run = run_engine("dense-fft", inst.a, inst.b)
        assert run.result == run_engine("fft", inst.a, inst.b).result

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            run_engine("quantum", np.ones(4), np.ones(4))

    def test_evaluate_counts_missing_indices(self):
        truth = SparseResult({1: 2.0, 3: 3.0})
        partial = SparseResult({1: 2.0})
        precision, recall, max_err, exact = evaluate_run(partial, truth, True)
        assert precision == 1.0 and recall == 0.5
        assert max_err == 3.0 and exact == 0
        extra = SparseResult({0: 1.0, 1: 2.0, 2: 1.0, 3: 3.0})
        precision, recall, max_err, exact = evaluate_run(extra, truth, True)
        assert precision == 0.5 and recall == 1.0
        assert max_err == 0.0 and exact == 0


def _tiny_config(seeds):
    return {
        "schema_version": 1,
        "delta": 0.1,
        "c1": 0.5,
        "engines": ["dense-fft", "approx"],
        "seeds": seeds,
        "instances": [
            {"id": "tiny", "n": 256, "s_a": 3, "s_b": 3, "k": 9},
        ],
    }


class TestRunBenchmark:
    def test_row_count_and_columns(self, tmp_path):
        summary = run_benchmark(_tiny_config([0, 1, 2]), tmp_path)
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == [
            "schema_version", "engine", "n", "k", "delta", "seed", "wall_ms",
            "support_precision", "support_recall", "max_abs_err_on_support",
            "exact_match", "oracle_crosscheck_max_abs_diff", "fft_work_units", "error",
        ]
        assert len(lines) == 1 + 2 * 3  # engines x seeds
        assert {line.split(",")[0] for line in lines[1:]} == {str(CSV_SCHEMA_VERSION)} == {"2"}
        assert sum(c["runs"] for c in summary["cells"]) == 6
        for cell in summary["cells"]:
            assert cell["success_rate"] == 1.0

    def test_reproducible_up_to_wall_ms(self, tmp_path):
        # at n = 256 every prime exceeds n and folds are identity copies;
        # at n = 2^14 with k = 1 primes lie in [56, 112], so those cells
        # fold through matmul while two cells run at once
        config = _tiny_config([0, 1])
        config["instances"].append({"id": "folded", "n": 2**14, "s_a": 1, "s_b": 1, "k": 1})
        run_benchmark(config, tmp_path / "r1")
        run_benchmark(config, tmp_path / "r2", jobs=2)

        def rows_without_timing(path):
            lines = (path / "runs.csv").read_text().splitlines()
            idx = CSV_COLUMNS.index("wall_ms")
            out = []
            for line in lines[1:]:
                cells = line.split(",")
                cells[idx] = ""
                out.append(cells)
            return out

        rows = rows_without_timing(tmp_path / "r1")
        assert all(row[CSV_COLUMNS.index("exact_match")] == "1" for row in rows)
        assert rows == rows_without_timing(tmp_path / "r2")

    def test_unrounded_rows_on_noisy_integer_instance_score_by_tolerance(self, tmp_path):
        # The dense product carries the noise cross terms, so only a
        # rounded result can equal the rounded oracle.
        run_benchmark(_tiny_config([0, 1]), tmp_path)
        _, *rows = (tmp_path / "runs.csv").read_text().splitlines()
        engine, exact_match = CSV_COLUMNS.index("engine"), CSV_COLUMNS.index("exact_match")
        cells = [row.split(",") for row in rows]
        assert {c[engine] for c in cells} == {"fft", "approx"}
        assert all(c[exact_match] == "1" for c in cells)

    def test_fft_work_units_do_not_depend_on_jobs(self, tmp_path):
        # the meter is per thread, so cells that run at once each read
        # their own engine's work
        config = _tiny_config([0, 1])
        config["instances"].append({"id": "folded", "n": 2**14, "s_a": 1, "s_b": 1, "k": 1})

        def work(jobs):
            run_benchmark(config, tmp_path / str(jobs), jobs=jobs)
            with open(tmp_path / str(jobs) / "runs.csv", newline="") as f:
                return [(r["engine"], int(r["n"]), int(r["fft_work_units"])) for r in csv.DictReader(f)]

        rows = work(1)
        assert rows == work(2)
        for engine, n, units in rows:
            if engine == "fft":
                assert units == 3 * transform_work(pad_length(2 * n - 1))
            else:
                assert units > 0

    def test_failed_row_carries_its_error(self, tmp_path, monkeypatch):
        def broken(a, b, params):
            raise RuntimeError("sketch failed, twice")

        monkeypatch.setattr(harness, "approx_sparse_convolve", broken)
        summary = run_benchmark(_tiny_config([0]), tmp_path)
        with open(tmp_path / "runs.csv", newline="") as f:
            rows = {r["engine"]: r for r in csv.DictReader(f)}
        assert rows["approx"]["error"] == "RuntimeError: sketch failed, twice"
        assert rows["approx"]["fft_work_units"] == "" and rows["approx"]["wall_ms"] == "-1.000"
        assert rows["fft"]["error"] == "" and int(rows["fft"]["fft_work_units"]) > 0
        assert {c["engine"]: c["failures"] for c in summary["cells"]} == {"fft": 0, "approx": 1}

    def test_config_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_tiny_config([0])))
        summary = run_benchmark(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "summary.json").exists()
        assert summary["cells"]

    def test_instance_keys_reach_the_spec(self, tmp_path, monkeypatch):
        specs = {}

        def recording(spec, k_budget=None):
            specs[spec.n] = spec
            return generate_instance(spec, k_budget)

        monkeypatch.setattr(harness, "generate_instance", recording)
        config = {
            "engines": ["fft"],
            "seeds": [0],
            "instances": [
                {"n": 256, "s_a": 2, "s_b": 2, "value_range": [2, 5], "c2": 1e-6,
                 "noise_density": 0.0, "integer_values": False},
                {"n": 128, "s_a": 2, "s_b": 2},
            ],
        }
        run_benchmark(config, tmp_path)
        given, omitted = specs[256], specs[128]
        assert (given.value_range, given.c2, given.noise_density, given.integer_values) == ((2, 5), 1e-6, 0.0, False)
        defaults = InstanceSpec(n=128, s_a=2, s_b=2)
        assert (omitted.value_range, omitted.c2, omitted.noise_density, omitted.integer_values) == (
            defaults.value_range, defaults.c2, defaults.noise_density, defaults.integer_values
        )

    def test_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            run_benchmark({"engines": ["fft"]}, tmp_path)
        with pytest.raises(ValueError):
            run_benchmark({"engines": ["warp"], "seeds": [0], "instances": [{"n": 8, "s_a": 1, "s_b": 1}]}, tmp_path)
        seedless = _tiny_config([])
        del seedless["seeds"]
        for config in ({**seedless, "seed_count": 2}, _tiny_config([])):
            with pytest.raises(ValueError, match="seeds"):
                run_benchmark(config, tmp_path / "seeds")
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                run_benchmark(_tiny_config([0]), tmp_path / "jobs", jobs=jobs)
            assert not (tmp_path / "jobs").exists()
        # knobs that would void every score, and misspelt keys that would
        # run on their defaults, fail before any cell runs
        tiny = _tiny_config([0])
        voiding = [
            ("delta", {**tiny, "delta": 1.5}),
            ("c1", {**tiny, "c1": -1}),
            ("k", {**tiny, "instances": [{**tiny["instances"][0], "k": 0}]}),
            ("noise_densty", {**tiny, "instances": [{**tiny["instances"][0], "noise_densty": 0.0}]}),
            ("vlaue_range", {**tiny, "instances": [{**tiny["instances"][0], "vlaue_range": [1, 3]}]}),
            ("detla", {**tiny, "detla": 0.5}),
        ]
        for knob, config in voiding:
            with pytest.raises(ValueError, match=knob):
                run_benchmark(config, tmp_path / knob)
            assert not (tmp_path / knob).exists()
            cfg = tmp_path / f"{knob}.json"
            cfg.write_text(json.dumps(config))
            assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / knob)]) == 1


class TestCli:
    def test_gen_and_conv(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        rc = cli_main(
            ["gen", "--n", "256", "--sa", "3", "--sb", "3", "--vmax", "9",
             "--seed", "5", "--out", str(out)]
        )
        assert rc == 0 and out.exists()
        capsys.readouterr()

        rc = cli_main(["conv", "--engine", "naive", "--a", str(out), "--b", str(out)])
        assert rc == 0
        naive_out = capsys.readouterr().out

        rc = cli_main(
            ["conv", "--engine", "exact", "--a", str(out), "--b", str(out),
             "--k", "9", "--seed", "3"]
        )
        assert rc == 0
        exact_out = capsys.readouterr().out
        assert naive_out.splitlines() and exact_out.splitlines()
        naive_supp = {line.split()[0] for line in naive_out.splitlines()}
        exact_supp = {line.split()[0] for line in exact_out.splitlines()}
        assert naive_supp == exact_supp

    def test_conv_stdout_deterministic(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        cli_main(["gen", "--n", "128", "--sa", "2", "--sb", "2", "--out", str(out)])
        capsys.readouterr()
        cli_main(["conv", "--engine", "approx", "--a", str(out), "--b", str(out), "--k", "4"])
        first = capsys.readouterr().out
        cli_main(["conv", "--engine", "approx", "--a", str(out), "--b", str(out), "--k", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_tiny_config([0])))
        rc = cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"), "--jobs", "2"])
        assert rc == 0
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["conv", "--engine", "bogus", "--a", "x", "--b", "y"]) == 1
        assert cli_main(["run", "--config", "/nonexistent.json", "--out-dir", "/tmp/x"]) == 1
        capsys.readouterr()

    def test_missing_k_for_sparse_engine(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        cli_main(["gen", "--n", "64", "--sa", "1", "--sb", "1", "--out", str(out)])
        assert cli_main(["conv", "--engine", "approx", "--a", str(out), "--b", str(out)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("engine", ["naive", "approx", "exact"])
    def test_conv_rejects_files_of_different_length(self, tmp_path, capsys, engine):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli_main(["gen", "--n", "64", "--sa", "1", "--sb", "1", "--out", str(a)])
        cli_main(["gen", "--n", "32", "--sa", "1", "--sb", "1", "--out", str(b)])
        capsys.readouterr()
        rc = cli_main(["conv", "--engine", engine, "--k", "4", "--a", str(a), "--b", str(b)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "length mismatch: 64 vs 32" in captured.err
        assert captured.out == ""

    def test_dense_engines_reject_nonpositive_c1(self, tmp_path, capsys):
        # otherwise they would report the whole product
        for engine in ("naive", "fft"):
            for c1 in (0.0, -1.0):
                with pytest.raises(ValueError, match="c1"):
                    run_engine(engine, np.ones(4), np.ones(4), c1=c1)
        out = tmp_path / "inst.txt"
        cli_main(["gen", "--n", "64", "--sa", "1", "--sb", "1", "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["conv", "--engine", "fft", "--c1", "0", "--a", str(out), "--b", str(out)]) == 1
        assert capsys.readouterr().out == ""

    def test_infeasible_gen_exit_code(self, tmp_path, capsys):
        # c2 far too large for the band to close
        rc = cli_main(
            ["gen", "--n", "64", "--sa", "4", "--sb", "4", "--c2", "0.4",
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 3
        capsys.readouterr()
