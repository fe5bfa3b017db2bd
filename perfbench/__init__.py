"""The repository benchmark: four workloads, end-to-end metrics, traced layers.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
