"""Simulated disk substrate: page store, buffer pool, random access file."""

from .pager import DEFAULT_PAGE_SIZE, BufferPool, Pager, PageStore
from .raf import RandomAccessFile

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "BufferPool",
    "Pager",
    "PageStore",
    "RandomAccessFile",
]
