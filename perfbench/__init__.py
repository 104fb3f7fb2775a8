"""Benchmark for trackforge: see run.py."""
