"""Benchmark of the amnocr package; see README.md."""
