"""Hereditary Harrop logic toolkit.

A term kernel for the simply-typed lambda-calculus, goal/clause syntax with
a `.hh` parser, bounded focused proof search, dynamic-context and dependency
fixpoint analyses, and an Abella `.thm` generator for strengthening lemmas.
"""
