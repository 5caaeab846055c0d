"""Leading-constant extraction κ(n) = IO(n) / ((n/√M)^ω₀·M).

κ(n) is the per-point ratio ``fit_leading_constant(...).ratios`` of
:mod:`repro.bounds.constants`, taken over the exact I/O model (==
measured, by the model tests).
"""

import numpy as np
import pytest

from repro.bounds.constants import fit_leading_constant
from repro.bounds.io_models import recursive_fast_io_model


def kappas(alg, sizes, M):
    measured = [recursive_fast_io_model(alg, n, M) for n in sizes]
    return fit_leading_constant(sizes, M, measured, alg.omega0).ratios


class TestLeadingConstants:
    def test_converges(self, strassen_alg):
        ks = kappas(strassen_alg, [2 ** k for k in range(6, 13)], 48)
        assert abs(ks[-1] - ks[-2]) / abs(ks[-1]) < 0.01
        diffs = np.diff(ks)
        assert np.all(diffs >= 0) or np.all(diffs <= 0)

    def test_winograd_above_strassen(self, strassen_alg, winograd_alg):
        """More non-zeros in (U,V,W) ⇒ larger streamed-I/O constant."""
        sizes = [2 ** k for k in range(6, 12)]
        ks = kappas(strassen_alg, sizes, 48)
        kw = kappas(winograd_alg, sizes, 48)
        assert kw[-1] > ks[-1]

    def test_constant_band(self, strassen_alg):
        """The DFS executor's constant at M=48 sits in a fixed band (a
        regression anchor for the executor's accounting)."""
        (k,) = kappas(strassen_alg, [4096], 48)
        assert 30.0 < k < 35.0

    def test_constant_depends_on_m_alignment(self, strassen_alg):
        """κ varies with how √(M/3) aligns to the power-of-two cutoff —
        the reason the Ω-vs-measured ratio is constant only per M."""
        (k48,) = kappas(strassen_alg, [4096], 48)
        (k75,) = kappas(strassen_alg, [4096], 75)
        # M=48: cutoff 4 = √(48/3) exactly; M=75: √25=5 misses the
        # power-of-two grid → larger κ
        assert k75 > k48 * 1.1
        # while 4× the memory with the same alignment keeps κ (≈ scale-free)
        (k192,) = kappas(strassen_alg, [4096], 192)
        assert k192 == pytest.approx(k48, rel=0.02)
