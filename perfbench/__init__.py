"""Front-door benchmark for the repro package: three workloads, end-to-end
metrics from untraced runs, per-layer metrics from a traced run.  See
``perfbench/README.md``; the entry point is ``python3 perfbench/run.py``."""
