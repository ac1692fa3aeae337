"""Sensor physics models: Sharp GP2D120 IR ranger, ADXL311 accelerometer."""
