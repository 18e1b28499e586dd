//! Resolution-only stand-in: the benchmark never builds the `eca-bench` benches that use `criterion`.
