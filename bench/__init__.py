"""Absolute benchmark for the DynaQ reproduction (see bench/README.md)."""
