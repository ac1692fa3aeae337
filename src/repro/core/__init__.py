"""Core DistScroll contribution: islands, menus, firmware, device facade."""
