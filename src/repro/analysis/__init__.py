"""Robustness analysis: spectra of M^{-1} A (Appendix A)."""

from repro.analysis.eigen import EigenSummary, preconditioned_spectrum

__all__ = ["EigenSummary", "preconditioned_spectrum"]
