"""Simulated humans: hand motor model, gloves, Fitts's law, users,
tasks, and the seeded persona engine for population-scale studies."""
