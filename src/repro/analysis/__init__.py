"""Offline analysis helpers.

* :mod:`repro.analysis.overlay_stats` — structural statistics of the
  conceptual overlay (degree distributions, path lengths, robustness to
  node removal — the §3.3 fragmentation-attack lens).
"""

from repro.analysis.overlay_stats import OverlayStats

__all__ = ["OverlayStats"]
