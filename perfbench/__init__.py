"""Seeded end-to-end and per-layer benchmark of the batch pipeline and serve tier."""
