"""Smart-Its hardware platform simulation (base board + add-on board)."""
