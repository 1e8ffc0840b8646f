"""Setup shim.

The project metadata lives in the ``[project]`` table of ``pyproject.toml``,
which setuptools reads from here as well; this file only exists so that
``pip install -e .`` works on minimal offline environments where the
``wheel`` package (required by PEP 660 editable builds) is unavailable.
"""

from setuptools import setup

setup()
