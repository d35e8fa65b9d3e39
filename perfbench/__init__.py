"""Benchmark for the kdl package: seeded workloads, gates and a span recorder.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
