"""Package metadata (kept in ``setup.py`` on purpose).

The offline environment has setuptools but no ``wheel`` package, so
PEP 660 editable installs (which build a wheel) fail; a plain
``setup.py`` keeps the legacy ``pip install -e .`` develop path working
and is also what CI uses to install the optional extras.
"""

from setuptools import find_packages, setup

setup(
    name="repro-trees",
    version="0.3.0",
    description=(
        "Reproduction of 'Scheduling tree-shaped task graphs to minimize "
        "memory and makespan' (IPDPS 2013)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy",
        "scipy",
        "networkx",
    ],
    extras_require={
        "dev": ["pytest", "hypothesis", "ruff"],
    },
    entry_points={"console_scripts": ["repro-trees=repro.cli:main"]},
)
