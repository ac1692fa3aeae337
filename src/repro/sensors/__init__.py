"""Sensor physics models: the Sharp GP2D120 IR ranger, its calibration,
surfaces and dual-sensor fusion."""
