"""Paged M-tree substrate (CPT, PM-tree)."""

from .mtree import MNode, MTree

__all__ = ["MNode", "MTree"]
