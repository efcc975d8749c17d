"""The repository's canonical benchmark (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload steady --seed 1 --seconds 20
--trace 0`` from the repository root.
"""
