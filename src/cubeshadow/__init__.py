"""Shadows of the 4-cube: geometry, closed forms, constants, verification."""
