"""Service benchmark of the X-Sketch reproduction (see perfbench/README.md)."""
