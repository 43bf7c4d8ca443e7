"""Benchmark for the smrgrid CLI: seeded workloads, output checks and a
span tracer that measures each package layer from outside the package."""
