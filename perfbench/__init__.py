"""The repository benchmark: seeded workloads driven through public entry points.

See ``perfbench/README.md``; run ``python3 perfbench/run.py --help``.
"""
