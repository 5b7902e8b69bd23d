"""Frequency-side partitions of unity and the adapted families they generate.

The two prototype families psi^1_k, psi^2_k tile the nonzero integer
frequencies: sum_k psi1_hat_k(n) psi2_hat_k(-n) = 1 for 0 < |n| <= 2^(K-4).
Spatially, the dilated translates phi_I = 2^-k psi_k(. - j 2^-k) concentrate
on the dyadic interval I with uniform polynomial decay, measured here.
"""

import numpy as np

from torusharmonics import (
    DyadicInterval,
    build_double_pou,
    build_pou,
    decompose_adapted,
    make_adapted_family,
    verify_adapted,
)

L, K = 10, 7

fam1, fam2 = build_pou(K, L)
band = 2 ** (K - 4)
n = np.arange(-band, band + 1)
total = sum(fam1.hat(k, n) * fam2.hat(k, -n) for k in range(1, K + 1))
print("partition residual on 0 < |n| <=", band, ":",
      np.abs(total - (n != 0)).max())

# the trilinear (double-bump) system tiles nonzero integer pairs
system = build_double_pou(K, L)
b2 = system.identity_band
n1, n2 = np.meshgrid(np.arange(-b2, b2 + 1), np.arange(-b2, b2 + 1))
res = np.abs(system.triple_sum(n1, n2) - ((n1 != 0) | (n2 != 0))).max()
print("double partition residual on max|n| <=", b2, ":", res)

# measured adaptation constants: |psi_k| <= C_m 2^k (1 + 2^k dist)^{-m}
fam = make_adapted_family("from_pou_1", K, L)
table = verify_adapted(fam, 6)
print("decay constants C_m:", {m: round(c, 3) for m, c in table["C"].items()})

# a family whose members also stay bounded BELOW on their interval
floor_fam = make_adapted_family("lower_bounded", K, L)
print("lower-bound floor a with |phi_I| >= a on I:", round(floor_fam.floor, 4))

# members split into dilate-supported pieces with geometric weights
iv = DyadicInterval(5, 9)
pieces = decompose_adapted(fam, iv, preserve_mean=True)
recon = sum(w * p.values for w, p in pieces)
print("reconstruction residual:", np.abs(recon - fam.member_values(iv)).max())
print("piece means:", [f"{abs(p.mean()):.1e}" for _, p in pieces])
