"""Command-line interface: exit codes, reports, and file pipelines."""

import gc
import json
import time

import numpy as np
import pytest

from flaglets import _buffers, cli, sphere_harmonics
from flaglets.cli import main
from flaglets.flag_transform import flag_forward, get_flag_plan
from flaglets.io_container import read_container
from flaglets.kernel_tiling import TilingParams, build_flaglet_kernels, flaglet_parts
from flaglets.radial_laguerre import RadialParams
from flaglets.sphere_harmonics import _is_hermitian, get_plan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoundtrip:
    def test_success_json_report(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--L", "8", "--P", "8", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) >= {"L", "P", "tau", "seed", "max_abs_err", "rel_err", "seconds"}
        assert report["rel_err"] < 1e-9
        assert 0 < report["real_max_abs_err"] and report["real_rel_err"] < 1e-9

    def test_real_errors_are_those_of_the_hermitian_part_of_the_same_seed(self, capsys):
        limits = cli.BandLimits(6, 3, 1.0)
        coeffs = cli.random_flag_coeffs(limits, 4)
        real = cli._hermitian_part(coeffs)
        assert _is_hermitian(real.coeffs, 6)
        # the seed's m > 0 coefficients are kept
        plus = np.array([l * l + l + m for l in range(6) for m in range(1, l + 1)])
        assert np.array_equal(real.coeffs[:, plus], coeffs.coeffs[:, plus])
        grid = cli.flag_inverse(real)
        assert grid.values.dtype == np.float64
        want = cli._roundtrip_errors(flag_forward(grid), real)
        argv = ["roundtrip", "--L", "6", "--P", "3", "--seed", "4", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert code == 0 and (report["real_max_abs_err"], report["real_rel_err"]) == want

    def test_an_inexact_real_round_trip_fails_after_the_report(self, capsys, monkeypatch):
        def off_when_real(grid):
            coeffs = flag_forward(grid)
            if grid.values.dtype == np.float64:
                coeffs.coeffs *= 1.001
            return coeffs

        monkeypatch.setattr(cli, "flag_forward", off_when_real)
        code, out, _ = run(capsys, "roundtrip", "--L", "4", "--P", "4", "--format", "json")
        report = json.loads(out)
        assert code == 1
        assert report["rel_err"] < 1e-9 and report["real_rel_err"] > 1e-4

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--L", "4", "--P", "4", "--seed", "3")
        assert code == 0
        assert "rel_err" in out

    def test_bad_band_limit_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "roundtrip", "--L", "0", "--P", "4")
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_invalid_seed_is_usage_error(self, capsys, seed):
        code, _, err = run(capsys, "roundtrip", "--L", "4", "--P", "4", "--seed", seed)
        assert code == 2 and "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("tau", ["1e-300", "1e300"])
    def test_extreme_radial_scale_is_usage_error(self, capsys, tau):
        code, _, err = run(capsys, "roundtrip", "--L", "4", "--P", "4", "--tau", tau)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_radial_limit_past_quadrature_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roundtrip", "--L", "4", "--P", "200000")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_memory_error_is_runtime_error(self, capsys, monkeypatch):
        def exhausted(limits, seed):
            raise MemoryError("Unable to allocate 15.3 GiB for an array")

        monkeypatch.setattr(cli, "random_flag_coeffs", exhausted)
        code, _, err = run(capsys, "roundtrip", "--L", "1024", "--P", "1000")
        assert code == 1
        assert err.startswith("error:") and "Unable to allocate" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestPipeline:
    def test_simulate_analyze_synthesize(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        deco = tmp_path / "deco.flg"
        out = tmp_path / "out.flg"

        code, _, _ = run(
            capsys, "simulate", "--L", "8", "--P", "8", "--blobs", "2",
            "--seed", "1", "--output", str(field),
        )
        assert code == 0

        code, text, _ = run(
            capsys, "analyze", "--input", str(field), "--output", str(deco),
        )
        assert code == 0
        assert "scaling" in text and "total energy" in text

        code, _, _ = run(capsys, "synthesize", "--input", str(deco), "--output", str(out))
        assert code == 0

        # the blob field is not band-limited, so the pipeline reproduces
        # its band-limited projection
        from flaglets.flag_transform import flag_inverse

        original = read_container(str(field))
        projected = flag_inverse(flag_forward(original)).values
        rebuilt = read_container(str(out))
        err = np.max(np.abs(rebuilt.values - projected))
        assert err < 1e-9 * np.max(np.abs(projected))

    def test_denoise_zero_threshold_preserves(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        deco = tmp_path / "deco.flg"
        deno = tmp_path / "deno.flg"
        run(capsys, "simulate", "--L", "8", "--P", "8", "--output", str(field))
        run(capsys, "analyze", "--input", str(field), "--output", str(deco))
        code, text, _ = run(
            capsys, "denoise", "--input", str(deco), "--output", str(deno),
            "--threshold", "0",
        )
        assert code == 0
        a = read_container(str(deco))
        b = read_container(str(deno))
        for key in a.wavelets:
            assert np.array_equal(a.wavelets[key].values, b.wavelets[key].values)

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_invalid_threshold_is_usage_error(self, tmp_path, capsys, threshold):
        field, deco, deno = (tmp_path / name for name in ("field.flg", "deco.flg", "deno.flg"))
        run(capsys, "simulate", "--L", "4", "--P", "4", "--output", str(field))
        run(capsys, "analyze", "--input", str(field), "--output", str(deco))
        code, _, err = run(
            capsys, "denoise", "--input", str(deco), "--output", str(deno),
            "--threshold", threshold,
        )
        assert code == 2 and "error:" in err and "Traceback" not in err
        assert not deno.exists()

    @pytest.mark.parametrize("option", ["--lambda", "--nu"])
    def test_overflowing_dilation_is_usage_error(self, tmp_path, capsys, option):
        field, deco = tmp_path / "field.flg", tmp_path / "deco.flg"
        run(capsys, "simulate", "--L", "4", "--P", "4", "--output", str(field))
        code, _, err = run(
            capsys, "analyze", "--input", str(field), "--output", str(deco), option, "1e308"
        )
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
        assert "square" in err and not deco.exists()

    def test_wrong_input_type_is_runtime_error(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        run(capsys, "simulate", "--L", "4", "--P", "4", "--output", str(field))
        code, _, err = run(
            capsys, "synthesize", "--input", str(field), "--output", str(tmp_path / "x.flg"),
        )
        assert code == 1
        assert "error" in err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--input", str(tmp_path / "nope.flg"),
            "--output", str(tmp_path / "d.flg"),
        )
        assert code == 1


class TestSlice:
    def test_shell_slice_csv(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        out = tmp_path / "slice.csv"
        run(capsys, "simulate", "--L", "4", "--P", "4", "--output", str(field))
        code, text, _ = run(
            capsys, "slice", "--input", str(field), "--output", str(out),
            "--axis", "shell", "--index", "0",
        )
        assert code == 0
        raw = out.read_bytes().decode()
        lines = [ln for ln in raw.split("\r\n") if ln]
        assert len(lines) == 4  # L rows of colatitude
        assert all(len(ln.split(",")) == 7 for ln in lines)  # 2L-1 longitudes

    def test_pgm_slice(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        out = tmp_path / "slice.pgm"
        run(capsys, "simulate", "--L", "8", "--P", "8", "--output", str(field))
        code, _, _ = run(
            capsys, "slice", "--input", str(field), "--output", str(out),
            "--axis", "phi", "--index", "3", "--component", "abs",
        )
        assert code == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        assert len(raw) == len(b"P5\n8 8\n255\n") + 64

    def test_out_of_range_index_is_usage_error(self, tmp_path, capsys):
        field = tmp_path / "field.flg"
        run(capsys, "simulate", "--L", "4", "--P", "4", "--output", str(field))
        code, _, _ = run(
            capsys, "slice", "--input", str(field), "--output", str(tmp_path / "x.csv"),
            "--axis", "shell", "--index", "9",
        )
        assert code == 2


class TestKernels:
    def test_sphere_csv_admissibility_column(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, _ = run(capsys, "kernels", "--L", "16", "--output", str(out))
        assert code == 0
        lines = out.read_bytes().decode().strip().split("\r\n")
        header = lines[0].split(",")
        assert header[0] == "ell" and header[-1] == "admissibility"
        assert len(lines) == 17
        for ln in lines[1:]:
            assert abs(float(ln.split(",")[-1]) - 1.0) < 1e-10

    def test_ball_table(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        ball = tmp_path / "ball.csv"
        code, _, _ = run(
            capsys, "kernels", "--L", "8", "--P", "8", "--output", str(out),
            "--ball-output", str(ball),
        )
        assert code == 0
        lines = ball.read_bytes().decode().strip().split("\r\n")
        assert len(lines) == 1 + 64
        for ln in lines[1:]:
            assert abs(float(ln.split(",")[-1]) - 1.0) < 1e-10


    def test_empty_band_limit_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, err = run(capsys, "kernels", "--L", "0", "--output", str(out))
        assert code == 2 and err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("ball", [[], ["--P", "2"]])
    def test_band_limit_past_the_maximum_is_usage_error(self, tmp_path, capsys, ball):
        # without --P this wrote a 5,001-row table and exited 0
        out = tmp_path / "kernels.csv"
        code, _, err = run(capsys, "kernels", "--L", "5000", *ball, "--output", str(out))
        assert code == 2 and err.startswith("error:") and "4096" in err
        assert not out.exists()

    def test_infinite_dilation_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, err = run(capsys, "kernels", "--L", "8", "--lambda", "inf", "--output", str(out))
        assert code == 2 and err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--lambda", "--nu"])
    @pytest.mark.parametrize("ball", [[], ["--P", "8"]])
    def test_overflowing_dilation_is_usage_error(self, tmp_path, capsys, option, ball):
        # 1e308 is finite, but its square, which the windows take, is not: this
        # raised a bare OverflowError from dilation ** j
        out = tmp_path / "kernels.csv"
        code, _, err = run(
            capsys, "kernels", "--L", "8", *ball, option, "1e308", "--output", str(out)
        )
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and "square" in err
        assert not out.exists()


    def test_negative_radial_limit_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "kernels.csv"
        code, _, err = run(capsys, "kernels", "--L", "8", "--P", "-3", "--output", str(out))
        assert code == 2 and "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_dilation_just_above_one_is_usage_error(self, tmp_path, capsys):
        # 19,459,104 scales at L = 8: rejected before any window is built
        out = tmp_path / "kernels.csv"
        t0 = time.perf_counter()
        code, _, err = run(
            capsys, "kernels", "--L", "8", "--lambda", "1.0000001", "--output", str(out)
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and err.startswith("error:")
        assert not out.exists()


class TestBench:
    def test_reports_both_timings(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--L", "8", "--P", "8", "--runs", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["speedup"] > 0
        # the complex round trips, then those of the real path denoising takes
        for mode in ("full_res", "multires", "real_full_res", "real_multires"):
            assert report[f"{mode}_seconds"] > 0
            assert 0 <= report[f"{mode}_max_abs_err"] < 1e-12
            assert 0 <= report[f"{mode}_rel_err"] < 1e-12
        # the radial matrices of the part plans of both storage modes
        kernels = build_flaglet_kernels(cli.BandLimits(8, 8), TilingParams())
        want = sum(kernels.part_plan(multires).nbytes for multires in (False, True))
        assert report["part_plan_bytes"] == want > 0

    @pytest.mark.parametrize("error", [1e-8, np.nan])
    @pytest.mark.parametrize("off", ["multires", "real_full_res", "real_multires"])
    def test_inexact_round_trip_fails_after_the_report(self, capsys, monkeypatch, error, off):
        # NaN in the second mode passed through max(full, multi) < 1e-9
        synthesize = cli.flaglet_synthesize

        def off_in_one_mode(d, kernels):
            out = synthesize(d, kernels)
            real = d.scaling.values.dtype == np.float64
            mode = ("real_" if real else "") + ("multires" if d.multires else "full_res")
            out.coeffs[0, 0] += error if mode == off else 0.0
            return out

        monkeypatch.setattr(cli, "flaglet_synthesize", off_in_one_mode)
        code, out, _ = run(
            capsys, "bench", "--L", "4", "--P", "4", "--runs", "1", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        for mode in ("full_res", "multires", "real_full_res", "real_multires"):
            assert (report[f"{mode}_rel_err"] < 1e-9) == (mode != off), mode

    def test_infinite_dilation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--L", "4", "--P", "4", "--lambda", "inf")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--lambda", "--nu"])
    def test_overflowing_dilation_is_usage_error(self, capsys, option):
        code, _, err = run(capsys, "bench", "--L", "4", "--P", "4", option, "1e308")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err and "square" in err

    def test_runs_as_many_times_as_asked(self, capsys, monkeypatch):
        analyses = []
        real = cli.flaglet_analyze

        def counting(coeffs, *args, **kwargs):
            analyses.append((_is_hermitian(coeffs.coeffs, 4), kwargs["multires"]))
            return real(coeffs, *args, **kwargs)

        monkeypatch.setattr(cli, "flaglet_analyze", counting)
        code, _, _ = run(capsys, "bench", "--L", "4", "--P", "4", "--runs", "2")
        assert code == 0
        # complex then Hermitian coefficients, each at full resolution then multires
        modes = [(False, False), (False, True), (True, False), (True, True)]
        assert analyses == [mode for mode in modes for _ in range(2)]

    @pytest.mark.parametrize(
        "option, value", [("--runs", "0"), ("--runs", "-3"), ("--runs", "2.5"), ("--seed", "-1")]
    )
    def test_invalid_count_is_usage_error(self, capsys, option, value):
        code, _, err = run(capsys, "bench", "--L", "4", "--P", "4", option, value)
        assert code == 2 and "error:" in err and "Traceback" not in err


class TestPlanReport:
    """roundtrip and bench report the sphere-plan and the radial-plan caches,
    the bytes held by the plans of the band limits they used, the buffer
    recycler's free bytes, hits and misses, and the most workers an SHT
    engine call ran on."""

    KEYS = (
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_size",
        "plan_bytes",
        "flag_plan_cache_hits",
        "flag_plan_cache_misses",
        "flag_plan_cache_size",
        "flag_plan_bytes",
        "recycler_held_bytes",
        "recycler_hits",
        "recycler_misses",
        "engine_workers",
    )

    @pytest.mark.parametrize(
        "argv, bands",
        [
            (["roundtrip", "--L", "8", "--P", "4"], {(8, 4)}),
            (
                ["bench", "--L", "16", "--P", "4", "--runs", "1"],
                set(flaglet_parts(cli.BandLimits(16, 4), TilingParams(), True)[1]),
            ),
        ],
    )
    def test_json_report(self, capsys, argv, bands):
        # garbage left by earlier tests must not be given back to the recycler
        # between the report and the stats it is compared with
        gc.collect()
        code, out, _ = run(capsys, *argv, "--format", "json")
        info, flag_info = get_plan.cache_info(), get_flag_plan.cache_info()
        report = json.loads(out)
        assert code == 0
        # the report reads each cache before it looks up each band's plan
        angular, radial = {L for L, _ in bands}, {RadialParams(P) for _, P in bands}
        assert report["plan_cache_hits"] == info.hits - len(angular)
        assert report["plan_cache_misses"] == info.misses
        assert report["plan_cache_size"] == info.currsize >= len(angular) > 0
        assert report["plan_bytes"] == sum(get_plan(L).nbytes for L in angular)
        # cached plans hold their tiles and maps
        tiles = sum(tile.nbytes for L in angular for _, _, tile, _ in get_plan(L).tables())
        assert report["plan_bytes"] > tiles > 0
        assert report["flag_plan_cache_hits"] == flag_info.hits - len(radial)
        assert report["flag_plan_cache_misses"] == flag_info.misses
        assert report["flag_plan_cache_size"] == flag_info.currsize >= len(radial) > 0
        # a radial plan holds its nodes, weights and two (P, P) tables
        assert report["flag_plan_bytes"] == sum(16 * p.P * (p.P + 1) for p in radial)
        assert report["flag_plan_bytes"] == sum(get_flag_plan(p).nbytes for p in radial)
        recycler = _buffers.stats()
        assert report["recycler_held_bytes"] == recycler["held_bytes"]
        assert report["recycler_hits"] == recycler["hits"]
        assert report["recycler_misses"] == recycler["misses"]
        assert report["engine_workers"] == sphere_harmonics._most_shares >= 1

    @pytest.mark.parametrize("cores, workers", [(1, 1), (2, 2), (3, 2)])
    def test_roundtrip_reports_the_workers_of_a_split_call(self, capsys, monkeypatch, cores, workers):
        # 17 shells at L = 128 are two FFT blocks of rows (16 and 1): one
        # share per usable core, never more than the blocks
        monkeypatch.setattr(sphere_harmonics, "_usable_cores", lambda: cores)
        monkeypatch.setattr(sphere_harmonics, "_most_shares", 0)
        code, out, _ = run(capsys, "roundtrip", "--L", "128", "--P", "17", "--format", "json")
        assert code == 0 and json.loads(out)["engine_workers"] == workers

    def test_bench_reports_minor_faults_per_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--L", "8", "--P", "4", "--runs", "2", "--format", "json")
        faults = json.loads(out)["minor_faults_per_run"]
        assert code == 0
        assert isinstance(faults, int) and faults >= 0

    def test_bench_without_resource_omits_minor_faults(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        code, out, _ = run(capsys, "bench", "--L", "8", "--P", "4", "--runs", "1", "--format", "json")
        assert code == 0
        assert "minor_faults_per_run" not in json.loads(out)

    @pytest.mark.parametrize("command", [["roundtrip"], ["bench", "--runs", "1"]])
    def test_text_report(self, capsys, command):
        code, out, _ = run(capsys, *command, "--L", "4", "--P", "4")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert all(int(lines[key]) >= 0 for key in self.KEYS)
        assert int(lines["plan_bytes"]) > 0 and int(lines["flag_plan_bytes"]) > 0


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.flg"
        b = tmp_path / "b.flg"
        run(capsys, "simulate", "--L", "8", "--P", "8", "--seed", "7", "--output", str(a))
        run(capsys, "simulate", "--L", "8", "--P", "8", "--seed", "7", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_noise_changes_field(self, tmp_path, capsys):
        a = tmp_path / "a.flg"
        b = tmp_path / "b.flg"
        run(capsys, "simulate", "--L", "8", "--P", "8", "--seed", "7", "--output", str(a))
        run(
            capsys, "simulate", "--L", "8", "--P", "8", "--seed", "7",
            "--noise", "0.1", "--output", str(b),
        )
        ga, gb = read_container(str(a)), read_container(str(b))
        assert not np.array_equal(ga.values, gb.values)
        # the noisy field still analyzes cleanly
        assert np.all(np.isfinite(flag_forward(gb).coeffs))

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--amplitude", "nan"),
            ("--amplitude", "inf"),
            ("--noise", "nan"),
            ("--noise", "-1"),
            ("--blobs", "-3"),
            ("--seed", "-1"),
            ("--width-ang", "0"),
            ("--width-ang", "nan"),
            ("--width-rad", "-0.5"),
            ("--width-rad", "inf"),
        ],
    )
    def test_invalid_number_is_usage_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "field.flg"
        code, _, err = run(
            capsys, "simulate", "--L", "4", "--P", "4", option, value, "--output", str(out)
        )
        assert code == 2 and "error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_field_past_the_float_range_is_not_written(self, tmp_path, capsys):
        # finite options whose field overflows: the reader would refuse it
        out = tmp_path / "field.flg"
        code, _, err = run(
            capsys, "simulate", "--L", "4", "--P", "2", "--blobs", "1",
            "--amplitude", "1e308", "--noise", "1e308", "--output", str(out),
        )
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert "overflow" in err and err.count("\n") == 1
        assert not out.exists()

    def test_narrow_blobs_give_zero_field_without_warnings(self, tmp_path, capsys):
        # RuntimeWarnings fail the tests: the squared distances overflow to inf
        out = tmp_path / "field.flg"
        code, _, err = run(
            capsys, "simulate", "--L", "4", "--P", "2", "--width-ang", "1e-200",
            "--width-rad", "1e-200", "--output", str(out),
        )
        assert code == 0 and err == ""
        assert not read_container(str(out)).values.any()
