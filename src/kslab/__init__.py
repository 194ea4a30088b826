"""Desk-scale laboratory for space-bounded Kolmogorov complexity.

A two-stack machine model with exact space accounting, deciders for
halting within a space bound, a reference interpreter with exhaustive
shortest-program search at small caps, entropy vectors with an exact
Shannon-cone membership prover, and a harness that measures the minimal
constants of complexity laws on exhaustive grids.
"""
