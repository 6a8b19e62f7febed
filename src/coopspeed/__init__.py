"""Cooperative speed optimization and time-token allocation for signalized corridors."""

from .sim import (TECHNIQUES, InitialVehicle, MetricsReport, SegmentConfig, SignalConfig,
                  SimConfig, run)

__all__ = ["SimConfig", "SegmentConfig", "SignalConfig", "InitialVehicle", "MetricsReport",
           "TECHNIQUES", "run"]
