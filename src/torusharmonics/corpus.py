"""Deterministic test-function corpora.

Members are described by small descriptor objects that sample themselves at
any grid resolution, so the same continuum function can be re-sampled when a
check compares two resolutions.  Singular members place their singularity at
half a grid spacing past a sample, keeping every sample finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction


@dataclass(frozen=True)
class TrigPolynomial:
    name: str
    frequencies: tuple[int, ...]
    coefficients: tuple[complex, ...]

    def sample(self, log_size: int) -> GridFunction:
        n = 2**log_size
        coeffs = np.zeros(n, dtype=complex)
        for freq, c in zip(self.frequencies, self.coefficients):
            coeffs[freq % n] += c
        return GridFunction((log_size,), np.fft.ifft(coeffs * n))


@dataclass(frozen=True)
class IndicatorUnion:
    name: str
    intervals: tuple[tuple[float, float], ...]  # (left, width), dyadic rationals
    heights: tuple[float, ...]

    def sample(self, log_size: int) -> GridFunction:
        n = 2**log_size
        x = np.arange(n) / n
        vals = np.zeros(n)
        for (left, width), h in zip(self.intervals, self.heights):
            vals += h * (((x - left) % 1.0) < width)
        return GridFunction((log_size,), vals)


@dataclass(frozen=True)
class Spike:
    name: str
    height: float
    width: float  # dyadic rational
    position: float = 0.0

    def sample(self, log_size: int) -> GridFunction:
        n = 2**log_size
        x = np.arange(n) / n
        vals = self.height * (((x - self.position) % 1.0) < self.width)
        return GridFunction((log_size,), vals)

    @property
    def l1_norm(self) -> float:
        return self.height * self.width


@dataclass(frozen=True)
class PowerSingular:
    """dist(x, x0)^-beta with the singular point half a spacing off-grid."""

    name: str
    beta: float

    def sample(self, log_size: int) -> GridFunction:
        n = 2**log_size
        x0 = 0.5 / n
        x = np.arange(n) / n
        d = np.minimum((x - x0) % 1.0, (x0 - x) % 1.0)
        return GridFunction((log_size,), d**-self.beta)


@dataclass(frozen=True)
class LogSingular:
    """log(1/dist(x, x0))^s, singular point half a spacing off-grid."""

    name: str
    power: float

    def sample(self, log_size: int) -> GridFunction:
        n = 2**log_size
        x0 = 0.5 / n
        x = np.arange(n) / n
        d = np.minimum((x - x0) % 1.0, (x0 - x) % 1.0)
        return GridFunction((log_size,), np.log(1.0 / d) ** self.power)


@dataclass(frozen=True)
class TensorProduct:
    """2D member: outer product of two 1D descriptors."""

    name: str
    first: object
    second: object

    def sample(self, log_size: int) -> GridFunction:
        a = self.first.sample(log_size).values
        b = self.second.sample(log_size).values
        return GridFunction((log_size, log_size), np.outer(a, b))


@dataclass(frozen=True)
class SpectralNoise2D:
    """Band-limited 2D noise with fixed coefficients (resolution-consistent)."""

    name: str
    seed: int
    band: int = 12

    def sample(self, log_size: int) -> GridFunction:
        rng = np.random.default_rng(self.seed)
        n = 2**log_size
        coeffs = np.zeros((n, n), dtype=complex)
        freqs = np.arange(-self.band, self.band + 1)
        block = rng.normal(size=(len(freqs), len(freqs))) + 1j * rng.normal(
            size=(len(freqs), len(freqs))
        )
        coeffs[np.ix_(freqs % n, freqs % n)] = block
        return GridFunction((log_size, log_size), np.fft.ifft2(coeffs) * n * n)


@dataclass
class Corpus:
    seed: int
    log_size: int
    descriptors: list
    members: list[tuple[str, GridFunction]] = field(default_factory=list)

    def functions(self):
        return [f for _, f in self.members]

    def resample(self, log_size: int) -> "Corpus":
        return Corpus(
            self.seed,
            log_size,
            self.descriptors,
            [(d.name, d.sample(log_size)) for d in self.descriptors],
        )


def corpus_descriptors(
    seed: int,
    n_trig: int = 6,
    n_indicator: int = 6,
    n_spike: int = 4,
):
    """Deterministic descriptor list; trigonometric frequencies lie in
    [-8, 8], and endpoints live on the 2^-7 grid so the same members are
    exactly representable at every resolution >= 7."""
    rng = np.random.default_rng(seed)
    descriptors = []
    for i in range(n_trig):
        count = int(rng.integers(2, 7))
        freqs = tuple(int(v) for v in rng.integers(-8, 9, count))
        coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(count, 2)))
        descriptors.append(TrigPolynomial(f"trig{i}", freqs, coeffs))
    snap = 2**7
    for i in range(n_indicator):
        count = int(rng.integers(1, 4))
        ivs, hts = [], []
        for _ in range(count):
            left = int(rng.integers(0, snap)) / snap
            width = int(rng.integers(1, snap // 4)) / snap
            ivs.append((left, width))
            hts.append(float(rng.uniform(0.5, 4.0)))
        descriptors.append(IndicatorUnion(f"ind{i}", tuple(ivs), tuple(hts)))
    for i in range(n_spike):
        width = int(rng.integers(1, 9)) / snap
        height = float(rng.uniform(2.0, 30.0))
        position = int(rng.integers(0, snap)) / snap
        descriptors.append(Spike(f"spike{i}", height, width, position))
    for i, beta in enumerate((0.3, 0.5, 0.7)):
        descriptors.append(PowerSingular(f"pow{i}", beta))
    for i, s in enumerate((1.0, 2.0)):
        descriptors.append(LogSingular(f"log{i}", s))
    return descriptors


def generate_corpus(seed: int, log_size: int, dims: int = 1) -> Corpus:
    """Deterministic corpus on a 2^log_size grid (per axis for dims=2)."""
    if dims == 1:
        descriptors = corpus_descriptors(seed)
        members = [(d.name, d.sample(log_size)) for d in descriptors]
        return Corpus(seed, log_size, descriptors, members)
    if dims != 2:
        raise ValueError("corpora cover 1D and 2D grids")
    base = corpus_descriptors(seed)
    pair_rng = np.random.default_rng(seed + 1)
    descriptors = []
    # tensor pairs of 1D members plus band-limited 2D noise
    for i in range(min(6, len(base) - 1)):
        a = base[pair_rng.integers(0, len(base))]
        b = base[pair_rng.integers(0, len(base))]
        descriptors.append(TensorProduct(f"tensor{i}:{a.name}x{b.name}", a, b))
    descriptors.append(SpectralNoise2D("noise2d", seed + 2))
    members = [(d.name, d.sample(log_size)) for d in descriptors]
    return Corpus(seed, log_size, descriptors, members)
