"""Relational engine: types, schemas, expressions, operators, executor."""

from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType

__all__ = ["Column", "DataType", "TableSchema"]
