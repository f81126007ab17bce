"""Z-order (Morton) curve: the SPB-tree ablation alternative to Hilbert.

Bit-interleaving preserves locality less well than the Hilbert curve; the
ablation bench (``benchmarks/bench_ablation_sfc.py``) quantifies how much
that costs the SPB-tree in page accesses, supporting the paper's choice of
the Hilbert mapping (Section 5.4).
"""

from __future__ import annotations

from .curve import GridCurve, deinterleave, interleave

__all__ = ["ZOrderCurve"]


class ZOrderCurve(GridCurve):
    """Bijective Morton mapping with the same interface as HilbertCurve.

    Interleaving is the whole curve, so the array entry points inherited
    from :class:`~repro.sfc.curve.GridCurve` need no transform hooks.
    """

    def encode(self, coords) -> int:
        return interleave(self._checked_coords(coords), self.bits)

    def decode(self, key: int) -> tuple[int, ...]:
        self._check_key(key)
        return tuple(deinterleave(key, self.bits, self.dims))
