"""Experiment harness: one module per DESIGN.md experiment id."""
