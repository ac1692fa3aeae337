"""DistScroll reproduction — distance-based one-handed scrolling.

A full-system simulation of Kranz, Holleis & Schmidt's DistScroll
prototype (2005): the Sharp GP2D120 sensor physics, the Smart-Its
hardware platform, the island-mapping firmware, simulated users, and the
competing scrolling techniques of the paper's Related Work — plus the
experiment harness regenerating every figure and open-question study.

Quickstart
----------
>>> from repro import DistScroll, build_menu
>>> device = DistScroll(build_menu({"Messages": ["Inbox"], "Camera": []}))
>>> device.hold_at(15.0)
>>> device.run_for(0.5)
>>> device.highlighted_label  # doctest: +SKIP
'Camera'
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Quickstart name -> defining module, imported on first attribute access
#: (PEP 562) so ``import repro`` alone loads none of the device stack.
_EXPORTS = {
    "DeviceConfig": "repro.core.config",
    "ScrollDirection": "repro.core.config",
    "DistScroll": "repro.core.device",
    "MenuCursor": "repro.core.menu",
    "MenuEntry": "repro.core.menu",
    "build_menu": "repro.core.menu",
    "flatten_paths": "repro.core.menu",
    "Placement": "repro.core.islands",
    "Simulator": "repro.sim.kernel",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
