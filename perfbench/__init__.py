"""Benchmark harness for stitkit; see README.md."""
