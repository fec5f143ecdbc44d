"""Command-line interface: transforms, decompositions, denoising and reports.

Subcommands: roundtrip, analyze, synthesize, denoise, slice, bench,
kernels, simulate.  Exit codes: 0 success, 1 runtime error, 2 usage
error.  Random signals use numpy's PCG64 generator seeded from --seed, so
every report is reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from . import _buffers, sphere_harmonics
from .flag_transform import (
    BallGrid,
    BandLimits,
    FlagCoeffs,
    flag_forward,
    flag_inverse,
    get_flag_plan,
)
from .flaglet_transform import (
    FlagletDecomposition,
    flaglet_analyze,
    flaglet_synthesize,
    threshold_denoise,
)
from .io_container import ContainerError, read_container, write_container
from .kernel_tiling import (
    TilingParams,
    build_flaglet_kernels,
    build_sphere_kernels,
    flaglet_parts,
    radial_nbytes,
    scale_range,
)
from .radial_laguerre import RadialParams, radial_nodes
from .sphere_harmonics import _fill_negative_orders, get_plan, sphere_sampling

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def random_flag_coeffs(limits: BandLimits, seed: int) -> FlagCoeffs:
    """Seeded random band-limited coefficients, components uniform in [-1, 1]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (limits.P, limits.L * limits.L)
    return FlagCoeffs(limits, rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))


def _hermitian_part(coeffs: FlagCoeffs) -> FlagCoeffs:
    """The coefficients with Im f_l0 dropped and f_{l,-m} = (-1)^m conj f_lm:
    those of a real signal, which the transforms take the real path for."""
    L = coeffs.limits.L
    c = coeffs.coeffs.copy()
    zero = np.arange(L) * np.arange(1, L + 1)  # flat index of (l, 0)
    c[:, zero] = c[:, zero].real
    _fill_negative_orders(c, L)
    return FlagCoeffs(coeffs.limits, c)


def blob_field(
    limits: BandLimits,
    n_blobs: int,
    width_ang: float,
    width_rad: float,
    seed: int,
    amplitude: float = 1.0,
) -> BallGrid:
    """Synthetic field of Gaussian blobs at random locations in the ball.

    Stands in for survey-like data: each blob is a product of an angular
    Gaussian (in geodesic distance) and a radial Gaussian, placed at a
    random direction and at a radius drawn from the middle of the sampled
    shell range.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    thetas, phis = sphere_sampling(limits.L)
    radii, _ = radial_nodes(limits.radial)
    theta_g, phi_g = np.meshgrid(thetas, phis, indexing="ij")

    values = np.zeros((limits.P, limits.L, 2 * limits.L - 1))
    r_lo, r_hi = np.quantile(radii, [0.15, 0.6])
    for _ in range(n_blobs):
        tc = np.arccos(rng.uniform(-1.0, 1.0))
        pc = rng.uniform(0.0, 2.0 * np.pi)
        rc = rng.uniform(r_lo, r_hi)
        cosdist = np.cos(theta_g) * np.cos(tc) + np.sin(theta_g) * np.sin(tc) * np.cos(
            phi_g - pc
        )
        ang = np.arccos(np.clip(cosdist, -1.0, 1.0))
        # far out in a narrow width the squared distance overflows to inf,
        # whose Gaussian is the exact 0
        with np.errstate(over="ignore"):
            angular = np.exp(-0.5 * (ang / width_ang) ** 2)
            radial = np.exp(-0.5 * ((radii - rc) / width_rad) ** 2)
        values += amplitude * radial[:, None, None] * angular[None, :, :]
    return BallGrid(limits, values)


def _limits_from_args(args) -> BandLimits:
    try:
        return BandLimits(args.L, args.P, args.tau)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _tiling_from_args(args, L: int, P: int = 0) -> TilingParams:
    """Tiling from the options, checked against the band limits it will tile."""
    try:
        params = TilingParams(args.lam, args.nu, args.j0_ang, args.j0_rad)
        scale_range(L, params.lam, params.j0_ang)
        if P > 0:
            scale_range(P, params.nu, params.j0_rad)
        return params
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def cmd_roundtrip(args) -> int:
    limits = _limits_from_args(args)
    coeffs = random_flag_coeffs(limits, args.seed)
    t0 = time.perf_counter()
    recovered = flag_forward(flag_inverse(coeffs))
    seconds = time.perf_counter() - t0
    max_abs, rel = _roundtrip_errors(recovered, coeffs)
    # the same coefficients made Hermitian take the real-signal path
    real = _hermitian_part(coeffs)
    real_abs, real_rel = _roundtrip_errors(flag_forward(flag_inverse(real)), real)
    _emit(
        {
            "L": limits.L,
            "P": limits.P,
            "tau": limits.tau,
            "seed": args.seed,
            "max_abs_err": max_abs,
            "rel_err": rel,
            "real_max_abs_err": real_abs,
            "real_rel_err": real_rel,
            "seconds": seconds,
            **_plan_report([(limits.L, limits.P)], limits.tau),
        },
        args.format,
    )
    return _exit_for(rel, real_rel)


def _plan_report(bands, tau: float) -> dict:
    """Hits, misses and size of the sphere-plan and the radial-plan caches,
    the bytes held by the plans of the (L, P) limits in `bands`, the bytes
    the buffer recycler holds free with its hits and misses, and the most
    workers (shares of rows on threads) one SHT engine call has run on."""
    info, flag_info = get_plan.cache_info(), get_flag_plan.cache_info()
    recycler = _buffers.stats()
    angular, radial = {L for L, _ in bands}, {P for _, P in bands}
    return {
        "plan_cache_hits": info.hits,
        "plan_cache_misses": info.misses,
        "plan_cache_size": info.currsize,
        "plan_bytes": sum(get_plan(L).nbytes for L in angular),
        "flag_plan_cache_hits": flag_info.hits,
        "flag_plan_cache_misses": flag_info.misses,
        "flag_plan_cache_size": flag_info.currsize,
        "flag_plan_bytes": sum(get_flag_plan(RadialParams(P, tau)).nbytes for P in radial),
        "recycler_held_bytes": recycler["held_bytes"],
        "recycler_hits": recycler["hits"],
        "recycler_misses": recycler["misses"],
        "engine_workers": sphere_harmonics._most_shares,
    }


def _roundtrip_errors(recovered: FlagCoeffs, coeffs: FlagCoeffs) -> tuple[float, float]:
    """Largest absolute error of a round trip, and that error relative to the
    largest coefficient magnitude."""
    max_abs = float(np.max(np.abs(recovered.coeffs - coeffs.coeffs)))
    return max_abs, max_abs / float(np.max(np.abs(coeffs.coeffs)))


def _exit_for(*rel_errs: float) -> int:
    """EXIT_OK only when every relative round-trip error is below 1e-9: a
    larger one, or NaN, fails."""
    return EXIT_OK if all(rel < 1e-9 for rel in rel_errs) else EXIT_RUNTIME


def _load(path, expected_types, what: str):
    obj = read_container(path)
    if not isinstance(obj, expected_types):
        names = ", ".join(t.__name__ for t in expected_types)
        raise ContainerError(f"{what}: expected {names}, got {type(obj).__name__}")
    return obj


def _print_scale_report(d: FlagletDecomposition):
    energies = d.scale_energies()
    total = sum(energies.values())
    print(f"{'scale':>12} {'samples':>10} {'energy':>24}")
    print(f"{'scaling':>12} {d.scaling.values.size:>10} {_fmt(energies['scaling']):>24}")
    for key in sorted(d.wavelets):
        grid = d.wavelets[key]
        print(f"{str(key):>12} {grid.values.size:>10} {_fmt(energies[key]):>24}")
    print(f"total samples: {d.sample_count()}")
    print(f"total energy: {_fmt(total)}")


def cmd_analyze(args) -> int:
    obj = _load(args.input, (BallGrid, FlagCoeffs), "analyze input")
    if isinstance(obj, BallGrid):
        coeffs = flag_forward(obj)
    else:
        coeffs = obj
    params = _tiling_from_args(args, coeffs.limits.L, coeffs.limits.P)
    kernels = build_flaglet_kernels(coeffs.limits, params)
    d = flaglet_analyze(coeffs, kernels, multires=args.multires)
    write_container(d, args.output)
    _print_scale_report(d)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    d = _load(args.input, (FlagletDecomposition,), "synthesize input")
    kernels = build_flaglet_kernels(d.limits, d.params)
    coeffs = flaglet_synthesize(d, kernels)
    grid = flag_inverse(coeffs)
    write_container(grid, args.output)
    print(f"wrote ball grid (L={d.limits.L}, P={d.limits.P}) to {args.output}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    d = _load(args.input, (FlagletDecomposition,), "denoise input")
    out = threshold_denoise(d, args.threshold, args.mode)
    write_container(out, args.output)
    _print_scale_report(out)
    return EXIT_OK


def _slice_array(grid: BallGrid, axis: str, index: int, component: str) -> np.ndarray:
    if axis == "shell":
        if not 0 <= index < grid.limits.P:
            raise UsageError(f"shell index {index} out of range [0, {grid.limits.P})")
        data = grid.values[index]
    else:  # phi half-plane: (shells, colatitudes)
        nphi = 2 * grid.limits.L - 1
        if not 0 <= index < nphi:
            raise UsageError(f"phi index {index} out of range [0, {nphi})")
        data = grid.values[:, :, index]
    if component == "re":
        return data.real
    if component == "im":
        return data.imag
    return np.abs(data)


def _write_csv(path: str, data: np.ndarray, header: list[str] | None = None):
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for row in np.atleast_2d(data):
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


def _write_pgm(path: str, data: np.ndarray):
    lo, hi = float(np.min(data)), float(np.max(data))
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = np.round((data - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def cmd_slice(args) -> int:
    obj = _load(args.input, (BallGrid,), "slice input")
    data = _slice_array(obj, args.axis, args.index, args.component)
    if args.output.endswith(".pgm"):
        _write_pgm(args.output, data)
    else:
        _write_csv(args.output, data)
    print(f"wrote {data.shape[0]}x{data.shape[1]} slice to {args.output}")
    return EXIT_OK


def _minor_faults() -> int | None:
    """Minor page faults of this process so far; None without `resource`."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_bench(args) -> int:
    limits = _limits_from_args(args)
    params = _tiling_from_args(args, limits.L, limits.P)
    kernels = build_flaglet_kernels(limits, params)
    complex_coeffs = random_flag_coeffs(limits, args.seed)
    # the same coefficients made Hermitian take the real path, as denoising does
    real_coeffs = _hermitian_part(complex_coeffs)

    def timed_roundtrip(coeffs: FlagCoeffs, multires: bool) -> tuple[float, float, float]:
        """Median seconds of the analysis-synthesis round trip, and the
        absolute and relative errors of the last one."""
        times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            d = flaglet_analyze(coeffs, kernels, multires=multires)
            recovered = flaglet_synthesize(d, kernels)
            times.append(time.perf_counter() - t0)
        return (float(np.median(times)), *_roundtrip_errors(recovered, coeffs))

    before = _minor_faults()
    report, rel_errs = {"L": limits.L, "P": limits.P}, []
    for prefix, coeffs in (("", complex_coeffs), ("real_", real_coeffs)):
        for mode, multires in (("full_res", False), ("multires", True)):
            seconds, max_abs, rel = timed_roundtrip(coeffs, multires)
            report[f"{prefix}{mode}_seconds"] = seconds
            report[f"{prefix}{mode}_max_abs_err"] = max_abs
            report[f"{prefix}{mode}_rel_err"] = rel
            rel_errs.append(rel)
    t_full, t_multi = report["full_res_seconds"], report["multires_seconds"]
    report["speedup"] = t_full / t_multi if t_multi > 0 else float("inf")
    if before is not None:
        report["minor_faults_per_run"] = (_minor_faults() - before) // (4 * args.runs)
    report["part_plan_bytes"] = sum(radial_nbytes(kernels.part_plan(m)) for m in (False, True))
    report.update(_plan_report(flaglet_parts(limits, params, True)[1], limits.tau))
    _emit(report, args.format)
    return _exit_for(*rel_errs)


def cmd_kernels(args) -> int:
    params = _tiling_from_args(args, args.L, args.P)
    if args.P > 0:
        limits = _limits_from_args(args)
    try:
        sph = build_sphere_kernels(args.L, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # admissibility sums the squares in scale order, as eta^2 + (k_j0^2 + ...)
    admiss = sph.eta**2 + sum(k * k for k in sph.kappas)
    rows = np.column_stack([np.arange(args.L), sph.eta, *sph.kappas, admiss])
    header = ["ell", "eta", *[f"kappa_{j}" for j in range(sph.j0, sph.jmax + 1)], "admissibility"]
    _write_csv(args.output, rows, header)
    printed = f"wrote sphere kernel table to {args.output}"
    if args.P > 0:
        fk = build_flaglet_kernels(limits, params)
        # rows run over ell, then p: the row-major order of the (L, P) windows
        psis = [fk.psis[key].ravel() for key in sorted(fk.psis)]
        phi = fk.phi.ravel()
        admiss = phi**2 + sum(v * v for v in psis)
        ells, ps = np.divmod(np.arange(args.L * args.P), args.P)
        rows = np.column_stack([ells, ps, phi, *psis, admiss])
        header = (
            ["ell", "p", "phi"]
            + [f"psi_{j}_{jp}" for (j, jp) in sorted(fk.psis)]
            + ["admissibility"]
        )
        ball_path = args.ball_output or args.output + ".ball.csv"
        _write_csv(ball_path, rows, header)
        printed += f"; wrote ball kernel table to {ball_path}"
    print(printed)
    return EXIT_OK


def cmd_simulate(args) -> int:
    limits = _limits_from_args(args)
    # a field past the float range is refused here, not by the reader
    with np.errstate(over="ignore"):
        grid = blob_field(
            limits, args.blobs, args.width_ang, args.width_rad, args.seed, args.amplitude
        )
        if args.noise > 0:
            rng = np.random.Generator(np.random.PCG64(args.seed + 1))
            noise = args.noise * rng.standard_normal(grid.values.shape)
            grid = BallGrid(limits, grid.values + noise)
    if not np.isfinite(grid.values).all():
        raise ValueError("the field overflows the float64 range; lower --amplitude or --noise")
    write_container(grid, args.output)
    print(f"wrote blob field (L={limits.L}, P={limits.P}, blobs={args.blobs}) to {args.output}")
    return EXIT_OK


def _checked(convert, what: str, ok):
    """An argparse type: `convert`, then a usage error unless `ok(value)`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_count = _checked(int, "an integer >= 0", lambda v: v >= 0)
_positive_count = _checked(int, "an integer >= 1", lambda v: v >= 1)
_finite = _checked(float, "a finite number", math.isfinite)
_positive_finite = _checked(float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)
_non_negative_finite = _checked(
    float, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0
)
_non_negative = _checked(float, "a number >= 0", lambda v: v >= 0)  # NaN fails v >= 0


def _add_limits_args(p: argparse.ArgumentParser):
    p.add_argument("--L", type=int, required=True, help="angular band limit")
    p.add_argument("--P", type=int, required=True, help="radial band limit")
    p.add_argument("--tau", type=float, default=1.0, help="radial scale")


def _add_tiling_args(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=float, default=2.0, help="angular dilation")
    p.add_argument("--nu", type=float, default=2.0, help="radial dilation")
    p.add_argument("--j0-ang", dest="j0_ang", type=int, default=0)
    p.add_argument("--j0-rad", dest="j0_rad", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flaglets",
        description="Exact Fourier-Laguerre and flaglet transforms on the ball",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("roundtrip", help="inverse->forward accuracy report")
    _add_limits_args(p)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("analyze", help="flaglet decomposition of a BallGrid/FlagCoeffs file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_tiling_args(p)
    p.add_argument("--multires", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="rebuild a BallGrid from a decomposition file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("denoise", help="threshold wavelet coefficients of a decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=_non_negative, required=True)
    p.add_argument("--mode", choices=["hard", "soft"], default="hard")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("slice", help="emit a 2D slice of a BallGrid as CSV or PGM")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--axis", choices=["shell", "phi"], default="shell")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--component", choices=["re", "im", "abs"], default="re")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser(
        "bench", help="time and check full-resolution vs multiresolution round trips"
    )
    _add_limits_args(p)
    _add_tiling_args(p)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--runs", type=_positive_count, default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("kernels", help="emit kernel tables as CSV for plotting")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=_count, default=0, help="if > 0, also emit the ball windows")
    p.add_argument("--tau", type=float, default=1.0)
    _add_tiling_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--ball-output", dest="ball_output", default=None)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("simulate", help="generate a synthetic Gaussian-blob field")
    _add_limits_args(p)
    p.add_argument("--blobs", type=_count, default=8)
    p.add_argument("--width-ang", dest="width_ang", type=_positive_finite, default=0.3)
    p.add_argument("--width-rad", dest="width_rad", type=_positive_finite, default=0.5)
    p.add_argument("--amplitude", type=_finite, default=1.0)
    p.add_argument("--noise", type=_non_negative_finite, default=0.0)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContainerError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
