"""Spectra of kernel affinity matrices and graph Laplacians built from
noisy high-dimensional point clouds."""

__version__ = "0.1.0"
