"""The repository benchmark: workloads, oracle, layer tracing and comparison."""
