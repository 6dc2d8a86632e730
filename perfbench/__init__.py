"""Repository benchmark: end-to-end and per-layer metrics (see README.md)."""
