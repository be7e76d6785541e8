"""Benchmark harness for the repro package (see bench/README.md)."""
