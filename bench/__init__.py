"""One benchmark for the generate, evaluate and fleet flows.

Run it from the repository root with ``python -m bench run``; see
``bench/README.md`` for the workloads, the metrics and the commands.
"""
