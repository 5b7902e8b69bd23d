"""Frequency-side partitions of unity and spatial adapted families.

All bump prototypes are constructed in frequency space: a smooth plateau
profile is sampled at the integer frequencies and inverse-transformed.  By
the periodization identity (Fourier coefficients of a periodized Schwartz
function equal its transform at the integers) this is exact on the grid band.

The per-scale prototype ``psi_k`` generates the family member for the dyadic
interval I = [j 2^-k, (j+1) 2^-k) as

    phi_I(x) = 2^-k psi_k(x - j 2^-k),

which on the grid is a roll by j 2^(L-k) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicInterval
from .grid import GridFunction, Spectrum, inverse_transform
from .transform import Band

#: finest family scale on a grid of 2^L points; keeps >= 8 samples per window
SCALE_MARGIN = 3

#: weight exponent in the adapted-family decomposition (kept verbatim from
#: the 2^-10k telescoping; smaller exponents may work but are not used)
DECOMP_EXPONENT = 10


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, monotone in between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if mid.any():
        t = x[mid]
        e1 = np.exp(-1.0 / t)
        e2 = np.exp(-1.0 / (1.0 - t))
        out[mid] = e1 / (e1 + e2)
    return out


@dataclass(frozen=True)
class PlateauProfile:
    """Smooth even-style plateau: 1 on [b, c], 0 outside [a, d].

    Built from the standard exp(-1/x) smooth step; infinitely differentiable
    and monotone on each transition.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b <= self.c < self.d):
            raise ValueError("plateau abscissae must satisfy a < b <= c < d")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rise = smooth_step((x - self.a) / (self.b - self.a))
        fall = smooth_step((self.d - x) / (self.d - self.c))
        return rise * fall


def _spectral_prototype(hat, log_size: int) -> GridFunction:
    """GridFunction with Fourier coefficients hat(n) on the represented band."""
    n = 2**log_size
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    return inverse_transform(Spectrum((log_size,), hat(freqs)))


@dataclass
class AdaptedFamily:
    """Per-scale prototypes generating the members {phi_I}.

    ``prototypes[k]`` is the scale-k prototype psi_k on a grid of 2^L points;
    the member for I at level k, index j is 2^-k psi_k(x - j 2^-k).  The
    optional ``hat`` callback evaluates psi_k's Fourier coefficients exactly
    from the defining profiles (used by the spectral identity checks).  Each
    prototype's DFT is kept in ``_bands`` once it is first asked for.
    """

    log_size: int
    prototypes: dict[int, GridFunction]
    zero_mean: bool
    label: str = ""
    hat: object = None
    floor: float | None = None
    _bands: dict[int, Band] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k_max(self) -> int:
        return max(self.prototypes)

    @property
    def k_min(self) -> int:
        return min(self.prototypes)

    @property
    def scales(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def prototype_values(self, k: int) -> np.ndarray:
        return self.prototypes[k].values

    def band(self, k: int) -> Band:
        """psi_k's DFT, cached.  With a ``hat`` callback (the prototype was
        built from it) the DFT is kept only on the band where the hat is
        nonzero, so the FFT's rounding noise elsewhere is dropped; without
        one it is kept at every frequency."""
        if k not in self._bands:
            limit = None
            if self.hat is not None:
                n = 2**self.log_size
                freqs = np.fft.fftfreq(n, d=1.0 / n)
                support = freqs[np.asarray(self.hat(k, freqs)) != 0]
                limit = int(np.abs(support).max(initial=0))
            self._bands[k] = Band.of(self.prototype_values(k), limit)
        return self._bands[k]

    def member_values(self, interval: DyadicInterval, offset_samples: int = 0) -> np.ndarray:
        """Samples of phi_I (optionally translated by extra grid samples)."""
        k = interval.level
        step = 2 ** (self.log_size - k)
        shift = interval.index * step + offset_samples
        return 2.0**-k * np.roll(self.prototype_values(k), shift)

    def member(self, interval: DyadicInterval, offset_samples: int = 0) -> GridFunction:
        return GridFunction((self.log_size,), self.member_values(interval, offset_samples))

    def normalized_member_values(self, interval: DyadicInterval, offset_samples: int = 0):
        return 2.0 ** (interval.level / 2.0) * self.member_values(interval, offset_samples)

    def check_zero_mean(self) -> bool:
        return all(abs(p.mean()) <= 1e-12 for p in self.prototypes.values())


def build_pou(scale_count: int, log_size: int):
    """Frequency-side partition of unity (psi^1_k, psi^2_k), k = 1..scale_count.

    The hat profiles satisfy, exactly on integers,

        sum_k psi1_hat_k(n) psi2_hat_k(-n) = 1   for 0 < |n| <= 2^(K-3),
                                           = 0   at n = 0,

    with supp(psi1_hat_k) inside the annulus [2^(k-4), 2^(k-2)] (and mirror)
    and psi2_hat_k an even plateau equal to 1 there, supported away from 0.
    """
    if scale_count > log_size - SCALE_MARGIN:
        raise ValueError(
            f"scale count {scale_count} too large for grid 2^{log_size} "
            f"(max {log_size - SCALE_MARGIN})"
        )
    alpha_hat = PlateauProfile(-0.25, -0.125, 0.125, 0.25)

    def psi1_hat(k, t):
        t = np.asarray(t, dtype=float)
        return alpha_hat(t * 2.0**-k) - alpha_hat(t * 2.0 ** (-k + 1))

    def psi2_hat(k, t):
        # even plateau: 1 on [2^(k-4), 2^(k-2)], 0 outside [2^(k-5), 2^(k-1)]
        profile = PlateauProfile(2.0 ** (k - 5), 2.0 ** (k - 4), 2.0 ** (k - 2), 2.0 ** (k - 1))
        return profile(np.abs(np.asarray(t, dtype=float)))

    fam1 = AdaptedFamily(
        log_size=log_size,
        prototypes={
            k: _spectral_prototype(lambda t, k=k: psi1_hat(k, t), log_size)
            for k in range(1, scale_count + 1)
        },
        zero_mean=True,
        label="pou1",
        hat=psi1_hat,
    )
    fam2 = AdaptedFamily(
        log_size=log_size,
        prototypes={
            k: _spectral_prototype(lambda t, k=k: psi2_hat(k, t), log_size)
            for k in range(1, scale_count + 1)
        },
        zero_mean=True,
        label="pou2",
        hat=psi2_hat,
    )
    return fam1, fam2


@dataclass
class DoubleBumpSystem:
    """Nine per-scale prototype families psi^{a,i}_k for the trilinear splits.

    For a != i the hat support lies in the annulus [2^(k-10), 2^(k-2)] (and
    mirror); for a = i in the ball [-2^(k-2), 2^(k-2)].  The triple products
    tile the nonzero integer pairs:

        sum_a sum_k psi_hat^{a,1}_k(n1) psi_hat^{a,2}_k(n2)
                    psi_hat^{a,3}_k(-n1-n2) = 1   for (n1, n2) != (0, 0)

    exactly for max(|n1|, |n2|) <= 2^(K-6) (the dilation gaps in the
    construction cost a factor 2^6 of band).
    """

    log_size: int
    scale_count: int
    prototypes: dict[tuple[int, int, int], GridFunction]
    hats: dict[tuple[int, int], object]  # (a, i) -> callable(k, t)

    @property
    def identity_band(self) -> int:
        return max(1, 2 ** (self.scale_count - 6))

    def hat_value(self, a: int, i: int, k: int, t):
        return self.hats[(a, i)](k, t)

    def prototype(self, a: int, i: int, k: int) -> GridFunction:
        return self.prototypes[(a, i, k)]

    def triple_sum(self, n1, n2):
        """sum_a sum_k of the hat triple products at integer pairs (n1, n2)."""
        n1 = np.asarray(n1, dtype=float)
        n2 = np.asarray(n2, dtype=float)
        total = np.zeros(np.broadcast(n1, n2).shape, dtype=float)
        for a in (1, 2, 3):
            for k in range(1, self.scale_count + 1):
                total = total + (
                    self.hat_value(a, 1, k, n1)
                    * self.hat_value(a, 2, k, n2)
                    * self.hat_value(a, 3, k, -n1 - n2)
                )
        return total


def build_double_pou(scale_count: int, log_size: int) -> DoubleBumpSystem:
    """The beta/gamma construction behind the trilinear frequency splits."""
    if scale_count > log_size - SCALE_MARGIN:
        raise ValueError(
            f"scale count {scale_count} too large for grid 2^{log_size} "
            f"(max {log_size - SCALE_MARGIN})"
        )
    alpha_hat = PlateauProfile(-1.0 / 32, -1.0 / 64, 1.0 / 64, 1.0 / 32)

    def beta1(k, t):
        t = np.asarray(t, dtype=float)
        return alpha_hat(t * 2.0**-k) - alpha_hat(t * 2.0 ** (-k + 1))

    def beta2(k, t):
        return alpha_hat(np.asarray(t, dtype=float) * 2.0 ** (-k + 3))

    def beta3(k, t):
        t = np.asarray(t, dtype=float)
        return sum(beta1(j, t) for j in range(k - 2, k + 3))

    gamma1_base = PlateauProfile(2.0**-9, 2.0**-8, 2.0**-4, 2.0**-3)

    def gamma1(k, t):
        return gamma1_base(np.abs(np.asarray(t, dtype=float)) * 2.0**-k)

    gamma2_base = PlateauProfile(-0.25, -(0.125 + 1.0 / 32), 0.125 + 1.0 / 32, 0.25)

    def gamma2(k, t):
        return gamma2_base(np.asarray(t, dtype=float) * 2.0**-k)

    hats = {
        (1, 1): beta2,
        (1, 2): beta1,
        (1, 3): gamma1,
        (2, 1): beta1,
        (2, 2): beta2,
        (2, 3): gamma1,
        (3, 1): beta1,
        (3, 2): beta3,
        (3, 3): gamma2,
    }
    prototypes = {}
    for (a, i), hat in hats.items():
        for k in range(1, scale_count + 1):
            prototypes[(a, i, k)] = _spectral_prototype(lambda t, k=k, h=hat: h(k, t), log_size)
    return DoubleBumpSystem(log_size, scale_count, prototypes, hats)


def partition_residuals(
    fam1: AdaptedFamily, fam2: AdaptedFamily, system: DoubleBumpSystem
) -> dict:
    """Worst deviations of the two partitions of unity from their identities.

    ``residual`` is max |sum_k psi1_hat_k(n) psi2_hat_k(-n) - 1_{n != 0}| on
    |n| <= ``band`` for the pair of ``build_pou``; ``residual_double`` is the
    same for the triple sum of ``system`` on max(|n1|, |n2|) <= ``band_double``.
    """
    band = 2 ** (fam1.k_max - 4)
    n = np.arange(-band, band + 1)
    total = np.zeros(n.shape)
    for k in fam1.scales:
        total = total + fam1.hat(k, n) * fam2.hat(k, -n)
    band2 = system.identity_band
    n1, n2 = np.meshgrid(np.arange(-band2, band2 + 1), np.arange(-band2, band2 + 1))
    total2 = system.triple_sum(n1, n2)
    return {
        "residual": float(np.abs(total - (n != 0)).max()),
        "residual_double": float(np.abs(total2 - ((n1 != 0) | (n2 != 0))).max()),
        "band": band,
        "band_double": band2,
    }


def _dist_to_base_window(log_size: int, k: int) -> np.ndarray:
    """dist_T(x_j, [0, 2^-k]) for every grid point x_j."""
    n = 2**log_size
    x = np.arange(n) / n
    width = 2.0**-k
    inside = x <= width
    d = np.minimum((x - width) % 1.0, (0.0 - x) % 1.0)
    d[inside] = 0.0
    return d


def verify_adapted(fam: AdaptedFamily, m_max: int = 4) -> dict[str, dict[int, float]]:
    """Measure the adaptation constants C_m (and derivative variants C'_m).

    C_m is the smallest constant with |psi_k(x)| <= C_m 2^k
    (1 + 2^k dist_T(x, [0, 2^-k]))^-m at every grid point and scale; the
    derivative variant uses centered finite differences and the 4^k scaling.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n = 2**fam.log_size
    c_table = {m: 0.0 for m in range(1, m_max + 1)}
    cprime_table = {m: 0.0 for m in range(1, m_max + 1)}
    for k in fam.scales:
        vals = np.abs(fam.prototype_values(k))
        deriv = np.abs(
            (np.roll(fam.prototype_values(k), -1) - np.roll(fam.prototype_values(k), 1))
            * (n / 2.0)
        )
        weight = 1.0 + 2.0**k * _dist_to_base_window(fam.log_size, k)
        for m in range(1, m_max + 1):
            wm = weight**m
            c_table[m] = max(c_table[m], float(np.max(vals * wm)) * 2.0**-k)
            cprime_table[m] = max(cprime_table[m], float(np.max(deriv * wm)) * 4.0**-k)
    return {"C": c_table, "C_prime": cprime_table}


def make_adapted_family(kind: str, scale_count: int, log_size: int) -> AdaptedFamily:
    """Construct an adapted family: from_pou_1 | from_pou_2 | lower_bounded.

    Its decay constants are measured on demand by ``verify_adapted``.
    """
    if kind == "from_pou_1":
        return build_pou(scale_count, log_size)[0]
    if kind == "from_pou_2":
        return build_pou(scale_count, log_size)[1]
    if kind == "lower_bounded":
        return _lower_bounded_family(scale_count, log_size)
    raise ValueError(f"unknown family kind {kind!r}")


class ConstructionError(RuntimeError):
    """Raised when a constructive recipe fails to produce its guarantee."""


def _lower_bounded_family(scale_count: int, log_size: int) -> AdaptedFamily:
    """Zero-mean family with |phi_I| >= a chi_I for a measured floor a > 0.

    The fine scales use the difference construction theta = beta - beta(./2)/2
    from a plateau with alpha(0) != 0; coarse scales (where that construction
    degenerates on the integer lattice) use an explicit mean-corrected bump,
    one prototype per level, so every member is still a translate.
    """
    choices = [2, 3, 4, 5]
    for k0 in choices:
        fam = _lower_bounded_attempt(scale_count, log_size, k0, 1e-9)
        if fam is not None:
            return fam
    raise ConstructionError(f"lower-bounded family floor not positive for k0 in {choices}")


def _lower_bounded_attempt(scale_count, log_size, k0, tol):
    alpha_hat = PlateauProfile(-1.0, -0.5, 0.5, 1.0)

    def theta_hat(k, t):
        # beta(x) = alpha(2^-k0 x) has transform 2^k0 alpha_hat(2^k0 .)
        t = np.asarray(t, dtype=float) * 2.0**-k
        return 2.0**k0 * (alpha_hat(t * 2.0**k0) - alpha_hat(t * 2.0 ** (k0 + 1)))

    prototypes = {}
    floor = np.inf
    for k in range(1, scale_count + 1):
        window = slice(0, 2 ** (log_size - k))

        def level_floor(proto):
            # member is 2^-k psi_k; |phi_I| >= a chi_I compares 2^-k |psi_k|
            # against a on the base window [0, 2^-k)
            return float(np.min(np.abs(2.0**-k * proto.values[window])))

        proto = _spectral_prototype(lambda t, k=k: theta_hat(k, t), log_size)
        if level_floor(proto) <= tol:
            proto = _coarse_level_prototype(k, log_size)
        if level_floor(proto) <= tol:
            return None
        prototypes[k] = proto
        floor = min(floor, level_floor(proto))
    fam = AdaptedFamily(
        log_size=log_size,
        prototypes=prototypes,
        zero_mean=True,
        label=f"lower_bounded(k0={k0})",
        floor=floor,
    )
    if not fam.check_zero_mean():
        return None
    return fam


def _coarse_level_prototype(k: int, log_size: int) -> GridFunction:
    """Mean-corrected plateau prototype for a coarse level.

    f is 1 on the base window [0, 2^-k] and supported nearby; the unit-mass
    correction g sits on the opposite arc of the circle, so the member keeps
    modulus 1 on I while its grid mean is exactly 0.
    """
    n = 2**log_size
    x = np.arange(n) / n
    width = 2.0**-k
    margin = width / 8.0
    bump = PlateauProfile(-margin, 0.0, width, width + margin)
    # signed coordinate centered on the window so the left tail wraps
    rel = (x - width / 2.0 + 0.5) % 1.0 - 0.5 + width / 2.0
    fvals = bump(rel)
    # mass-1 correction on the far side, inside the complement of supp(f)
    gap = 1.0 - (width + 2.0 * margin)
    g_width = gap / 4.0
    g_left = (width + margin + gap / 2.0 - g_width / 2.0) % 1.0
    g_profile = PlateauProfile(0.0, g_width / 4.0, 3.0 * g_width / 4.0, g_width)
    gvals = g_profile((x - g_left) % 1.0)
    gvals = gvals / gvals.mean()
    corrected = fvals - fvals.mean() * gvals
    return GridFunction((log_size,), 2.0**k * corrected)


def decompose_adapted(
    fam: AdaptedFamily,
    interval: DyadicInterval,
    preserve_mean: bool = False,
):
    """Split phi_I into weighted pieces supported on the dilates 2^k I.

    Returns [(2^-10k, piece_k)] with sum_k 2^-10k piece_k == phi_I on the
    grid; piece_k is grid-exactly zero outside 2^k I.  With ``preserve_mean``
    (valid for zero-mean families) every piece also has grid mean 0.
    """
    if preserve_mean and not fam.zero_mean:
        raise ValueError("mean-preserving decomposition requires a zero-mean family")
    n_levels = interval.level
    log_size = fam.log_size
    n = 2**log_size
    x = np.arange(n) / n
    phi = fam.member_values(interval)
    center = interval.center

    def cutoff(scale_pow: int) -> np.ndarray:
        # smooth window: 1 on 2^(scale_pow-1) I, supported in 2^scale_pow I
        outer = 2.0**scale_pow * interval.length
        inner = 2.0 ** (scale_pow - 1) * interval.length
        if outer >= 1.0:
            return np.ones(n)
        prof = PlateauProfile(-outer / 2.0, -inner / 2.0, inner / 2.0, outer / 2.0)
        rel = (x - center + 0.5) % 1.0 - 0.5
        return prof(rel)

    pieces = []
    prev = cutoff(1)
    pieces.append((2.0**-DECOMP_EXPONENT, prev * phi * 2.0**DECOMP_EXPONENT))
    for k in range(2, n_levels):
        cur = cutoff(k)
        w = 2.0 ** (-DECOMP_EXPONENT * k)
        pieces.append((w, (cur - prev) * phi / w))
        prev = cur
    if n_levels >= 2:
        w = 2.0 ** (-DECOMP_EXPONENT * n_levels)
        pieces.append((w, (1.0 - prev) * phi / w))

    if preserve_mean:
        mass = _unit_mass_bump(interval, log_size)
        corrected = []
        for w, vals in pieces:
            vals = vals - vals.mean() * mass
            vals = _trim_mean_to_zero(vals)
            corrected.append((w, vals))
        pieces = corrected

    return [(w, GridFunction((log_size,), vals)) for w, vals in pieces]


def _trim_mean_to_zero(vals: np.ndarray) -> np.ndarray:
    """Zero the exact grid mean by absorbing the rounding mass in one sample.

    The mass-bump subtraction leaves a residue at the float rounding floor of
    the (2^10k-rescaled) piece.  Moving that residue into the sample of
    smallest magnitude keeps the rounding of the adjustment itself negligible
    and leaves the support untouched (the residue lands where the piece
    already lives, at a near-zero plateau-edge sample).
    """
    vals = np.array(vals, dtype=np.complex128)
    for _ in range(3):
        total = math.fsum(vals.real) + 1j * math.fsum(vals.imag)
        if total == 0 or not (vals != 0).any():
            break
        # smallest nonzero sample: inside the support, adjustment rounds at
        # eps * |total| rather than eps * |vals|.max()
        i0 = int(np.argmin(np.where(vals != 0, np.abs(vals), np.inf)))
        vals[i0] -= total
    return vals


def _unit_mass_bump(interval: DyadicInterval, log_size: int) -> np.ndarray:
    """Smooth bump supported in I with grid mean exactly 1."""
    n = 2**log_size
    x = np.arange(n) / n
    ell = interval.length
    prof = PlateauProfile(0.0, ell / 4.0, 3.0 * ell / 4.0, ell)
    vals = prof((x - interval.left) % 1.0)
    return vals / vals.mean()
