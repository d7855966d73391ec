"""Scalar reference implementations the vectorised production paths are
differentially tested against."""
