//! Resolution-only stand-in: the benchmark never builds the workspace tests that use `proptest`.
