"""Cooperative speed optimization and time-token allocation for signalized corridors."""

from .sim import TECHNIQUES, MetricsReport, SegmentConfig, SignalConfig, SimConfig, run

__all__ = ["SimConfig", "SegmentConfig", "SignalConfig", "MetricsReport", "TECHNIQUES", "run"]
