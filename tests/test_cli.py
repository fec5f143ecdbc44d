"""Command-line interface: exit codes, reports, and file pipelines."""

import json
import time

import numpy as np
import pytest

from flaglets import cli
from flaglets.cli import main
from flaglets.flag_transform import flag_forward
from flaglets.io_container import read_container
from flaglets.sphere_harmonics import _is_hermitian


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
        assert report["full_res_seconds"] > 0
        assert report["multires_seconds"] > 0
        assert report["speedup"] > 0
        for mode in ("full_res", "multires"):
            assert 0 <= report[f"{mode}_max_abs_err"] < 1e-12
            assert 0 <= report[f"{mode}_rel_err"] < 1e-12

    @pytest.mark.parametrize("error", [1e-8, np.nan])
    def test_inexact_round_trip_fails_after_the_report(self, capsys, monkeypatch, error):
        # NaN in the second mode passed through max(full, multi) < 1e-9
        real = cli.flaglet_synthesize

        def off_in_multires(d, kernels):
            out = real(d, kernels)
            out.coeffs[0, 0] += error if d.multires else 0.0
            return out

        monkeypatch.setattr(cli, "flaglet_synthesize", off_in_multires)
        code, out, _ = run(
            capsys, "bench", "--L", "4", "--P", "4", "--runs", "1", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["full_res_rel_err"] < 1e-9
        assert not report["multires_rel_err"] < 1e-9

    def test_infinite_dilation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--L", "4", "--P", "4", "--lambda", "inf")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_runs_as_many_times_as_asked(self, capsys, monkeypatch):
        analyses = []
        real = cli.flaglet_analyze

        def counting(*args, **kwargs):
            analyses.append(kwargs["multires"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "flaglet_analyze", counting)
        code, _, _ = run(capsys, "bench", "--L", "4", "--P", "4", "--runs", "2")
        assert code == 0
        assert analyses == [False, False, True, True]

    @pytest.mark.parametrize(
        "option, value", [("--runs", "0"), ("--runs", "-3"), ("--runs", "2.5"), ("--seed", "-1")]
    )
    def test_invalid_count_is_usage_error(self, capsys, option, value):
        code, _, err = run(capsys, "bench", "--L", "4", "--P", "4", option, value)
        assert code == 2 and "error:" in err and "Traceback" not in err


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
