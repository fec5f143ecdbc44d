"""The benchmark's workloads: seeded inputs, one operation and its checks.

Each workload builds its inputs in ``__init__`` (never timed), does its
one-off work in ``setup`` (kernels; plans and Legendre tables are built
lazily by the first ``op``), and returns from ``check`` the measured error
together with a failure reason, or None when the result is correct.

Library names are looked up on the ``flaglets`` package at call time, so
wrappers installed on the package before a workload runs are always seen.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

import flaglets as fl
from flaglets import cli

# acceptance criterion 1: exact transforms round-trip to within 1e-10
TOLERANCE = 1e-10


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def random_coeffs(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


def roundtrip_check(err: float):
    if err <= TOLERANCE:
        return err, None
    return err, f"round-trip relative error {err:.3e} exceeds {TOLERANCE:g}"


class BallRoundtrip:
    """flag_inverse then flag_forward of random Fourier-Laguerre coefficients."""

    def __init__(self, seed: int, smoke: bool = False):
        L, P = (8, 4) if smoke else (128, 64)
        self.sizes = {"L": L, "P": P, "lam": None, "nu": None, "tau": 1.0}
        self.limits = fl.BandLimits(L, P, 1.0)
        self.coeffs = random_coeffs(np.random.default_rng(seed), (P, L * L))

    def setup(self):
        pass

    def op(self):
        return fl.flag_forward(fl.flag_inverse(fl.FlagCoeffs(self.limits, self.coeffs)))

    def check(self, back):
        return roundtrip_check(rel_err(back.coeffs, self.coeffs))

    def counters(self, back) -> dict:
        return {}


@dataclass
class DenoiseResult:
    f: object
    decomposition: object
    energies: dict
    nbytes: int
    stored: object
    denoised: object


class FlagletDenoise:
    """The paper's application: flaglet hard-threshold denoising of a blob field."""

    NOISE = 0.1
    THRESHOLD = 0.1

    def __init__(self, seed: int, smoke: bool = False):
        L = P = 8 if smoke else 32
        self.sizes = {"L": L, "P": P, "lam": 2.0, "nu": 2.0, "tau": 1.0}
        self.limits = fl.BandLimits(L, P, 1.0)
        self.tiling = fl.TilingParams(2.0, 2.0)
        clean = cli.blob_field(self.limits, n_blobs=3, width_ang=0.5, width_rad=1.5, seed=seed)
        rng = np.random.default_rng(seed)
        self.samples = clean.values + self.NOISE * rng.standard_normal(clean.values.shape)
        self.kernels = None

    def setup(self):
        self.kernels = fl.build_flaglet_kernels(self.limits, self.tiling)

    def op(self):
        f = fl.flag_forward(fl.BallGrid(self.limits, self.samples))
        d = fl.flaglet_analyze(f, self.kernels)
        energies = d.scale_energies()
        buf = io.BytesIO()
        nbytes = fl.write_container(d, buf)
        buf.seek(0)
        stored = fl.read_container(buf)
        kept = fl.threshold_denoise(stored, self.THRESHOLD, mode="hard")
        denoised = fl.flag_inverse(fl.flaglet_synthesize(kept, self.kernels))
        return DenoiseResult(f, d, energies, nbytes, stored, denoised)

    def check(self, r: DenoiseResult):
        norm2 = float(np.vdot(r.f.coeffs, r.f.coeffs).real)
        err = abs(sum(r.energies.values()) - norm2) / norm2
        if not err <= TOLERANCE:
            return err, f"scale energies miss |f|^2 by {err:.3e} relative"
        if not _same_bits(r.decomposition, r.stored):
            return err, "container read-back differs from what was written"
        if not np.all(np.isfinite(r.denoised.values)):
            return err, "denoised field is not finite"
        return err, None

    def counters(self, r: DenoiseResult) -> dict:
        return {
            "flaglet_transform.stored_samples": r.decomposition.sample_count(),
            "io_container.bytes": r.nbytes,
        }


def _same_bits(a, b) -> bool:
    if (a.limits, a.params, a.multires) != (b.limits, b.params, b.multires):
        return False
    if a.wavelets.keys() != b.wavelets.keys():
        return False
    pairs = [(a.scaling, b.scaling)] + [(a.wavelets[k], b.wavelets[k]) for k in a.wavelets]
    return all(
        g.limits == h.limits and g.values.tobytes() == h.values.tobytes() for g, h in pairs
    )


class SphereHighL:
    """Multiresolution sphere wavelet round trip past the Legendre table cache."""

    def __init__(self, seed: int, smoke: bool = False):
        L = 16 if smoke else 288
        self.sizes = {"L": L, "P": None, "lam": 2.0, "nu": None, "tau": None}
        self.L = L
        self.tiling = fl.TilingParams(lam=2.0)
        self.coeffs = random_coeffs(np.random.default_rng(seed), L * L)
        self.kernels = None

    def setup(self):
        self.kernels = fl.build_sphere_kernels(self.L, self.tiling)

    def op(self):
        d = fl.sphere_analyze(fl.SphereCoeffs(self.L, self.coeffs), self.kernels, multires=True)
        return d, fl.sphere_synthesize(d, self.kernels)

    def check(self, result):
        return roundtrip_check(rel_err(result[1].coeffs, self.coeffs))

    def counters(self, result) -> dict:
        return {"sphere_wavelets.stored_samples": result[0].sample_count()}


WORKLOADS = {
    "ball_roundtrip": BallRoundtrip,
    "flaglet_denoise": FlagletDenoise,
    "sphere_highL": SphereHighL,
}
