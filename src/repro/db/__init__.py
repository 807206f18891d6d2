"""Relational substrate: relations, databases, the columnar kernel, CSV I/O."""

from .database import Database
from .relation import Relation

__all__ = ["Database", "Relation"]
