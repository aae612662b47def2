"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``--workload all`` runs every workload,
each in its own process.  See ``perfbench/README.md`` for the workloads,
the metrics and the layer -> metric -> workload predictions.

The benchmark never edits ``src/``: per-layer numbers come from wrappers it
installs around each layer's public functions for the traced run only.
"""
