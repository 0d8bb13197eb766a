"""Reference implementations kept as test-side parity oracles."""
