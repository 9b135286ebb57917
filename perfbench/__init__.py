"""Benchmark of the cilines command line: seeded workloads, output checks,
end-to-end metrics and a traced per-layer run. See run.py."""
