"""Deterministic simulator for beeping-network interval coloring."""
