"""The standing host-time benchmark of the simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints its metrics;
``python3 perfbench/report.py`` runs every workload (untraced, traced and
with each fast-path layer switched off) and prints the combined report.
See ``perfbench/README.md`` for the metric definitions.
"""
