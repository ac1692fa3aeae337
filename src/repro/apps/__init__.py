"""Application layer: the paper's three application areas (§5.2)."""
