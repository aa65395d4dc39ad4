"""Benchmark for the uniseq CLI; run it with ``python3 perfbench/run.py``."""
