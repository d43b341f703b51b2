"""The repository's benchmark: workloads, layer probe and span tracer (see README.md)."""
