"""Core-side model: out-of-order timing."""

from repro.cpu.timing import TimingConfig, TimingModel, TimingResult

__all__ = ["TimingConfig", "TimingModel", "TimingResult"]
