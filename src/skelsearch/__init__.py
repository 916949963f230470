"""Coarse-to-fine text-to-SQL toolkit: skeleton search, generation, voting."""

from .skeleton import (
    ClauseTree,
    GranularityLevel,
    LevelOrderError,
    Skeleton,
    extract_skeleton,
    parse_query,
    refinement_check,
)
from .sqlast import SqlSyntaxError

__all__ = [
    "ClauseTree",
    "GranularityLevel",
    "LevelOrderError",
    "Skeleton",
    "SqlSyntaxError",
    "extract_skeleton",
    "parse_query",
    "refinement_check",
]

__version__ = "0.1.0"
