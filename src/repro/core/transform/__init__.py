"""Integer wavelet transforms used by the compressed sliding window.

The paper uses a single-level 2D integer Haar transform (the *S-transform*)
because it maps to one adder, one subtractor and one shift per 1D butterfly
(Fig 5).  This package provides:

- :mod:`repro.core.transform.haar2d` — the vectorised in-place Haar
  transform (:func:`~repro.core.transform.haar2d.forward_inplace` /
  :func:`~repro.core.transform.haar2d.inverse_inplace`): one butterfly pass
  per level over the interleaved coefficient layout, with optional
  two's-complement wrap-around to model fixed-width hardware datapaths,
  plus the LL-DPCM extension.
- :mod:`repro.core.transform.lifting` — a small generic integer-lifting
  framework with LeGall 5/3 and CDF 9/7 integer wavelets, used by the
  ablation benches (the paper argues Haar wins on hardware cost).
- :mod:`repro.core.transform.hwmodel` — bit-exact scalar models of the
  paper's Fig 5 (forward) and Fig 10 (inverse) 2x2 blocks, the oracle the
  vectorised transform is tested against.
"""

from .haar2d import forward_inplace, inverse_inplace
from .lifting import LiftingWavelet, haar_wavelet, legall53_wavelet, cdf97_int_wavelet
from .hwmodel import Haar2DBlock, InverseHaar2DBlock

__all__ = [
    "forward_inplace",
    "inverse_inplace",
    "LiftingWavelet",
    "haar_wavelet",
    "legall53_wavelet",
    "cdf97_int_wavelet",
    "Haar2DBlock",
    "InverseHaar2DBlock",
]
