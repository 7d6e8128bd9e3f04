"""Benchmark harness for the FedMP round pipeline (see perf/README.md)."""
