"""Shipped single-file rule families (DET, FLT, RES, HYG, OBS).

:mod:`repro.lint` imports every module here, which registers its rules.
"""
