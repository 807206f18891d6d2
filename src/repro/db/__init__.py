"""Relational substrate: relations, databases, indexes, CSV I/O."""

from .database import Database
from .index import HashIndex
from .relation import Relation

__all__ = ["Database", "HashIndex", "Relation"]
