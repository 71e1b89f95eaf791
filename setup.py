"""Setuptools entry point: the ``repro`` package under ``src/``.

A plain ``setup.py`` (no ``pyproject.toml``) keeps ``pip install -e .``
working where setuptools lacks the ``wheel`` package: pip then falls back
to ``setup.py develop`` instead of building a PEP 660 editable wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
