"""The repository benchmark: four workloads over the miner and the service.

``python3 perfsuite/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints its metrics;
``BENCHMARK.json`` at the repository root declares the workloads and
metrics, and ``perfsuite/README.md`` explains them.
"""
