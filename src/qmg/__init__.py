"""Quantum minority game simulator and analysis toolkit."""
