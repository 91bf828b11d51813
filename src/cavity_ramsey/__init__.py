"""Ramsey interferometry with a quantized pulse zone: which-path trade-offs,
dissipative erasure, and visibility predictions for a damped cavity mode.

The API is the modules, listed in the README's library layout; import from
them (`from cavity_ramsey.thermal import thermal_visibility`). The package
itself re-exports nothing.
"""
