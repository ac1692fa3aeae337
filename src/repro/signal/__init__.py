"""Streaming filters and curve fitting shared across the library."""
