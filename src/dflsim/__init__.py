"""Delay-aware hierarchical federated learning: simulator and analysis toolkit."""

__version__ = "0.1.0"
