"""Benchmark for halfpoint: see README.md in this directory."""
