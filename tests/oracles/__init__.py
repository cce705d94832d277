"""Scalar reference implementations that production fast paths are pinned against."""
