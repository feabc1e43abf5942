"""Benchmark for joulecast: three closed-loop workloads driven from outside
the package, with an optional traced run that attributes time to its modules.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
