"""Paged B+-tree substrate (M-index, SPB-tree, OmniB+-tree)."""

from .bptree import BPlusTree, InternalNode, LeafNode

__all__ = ["BPlusTree", "InternalNode", "LeafNode"]
