"""Packaging via legacy setup.py.

The offline environment ships setuptools but not ``wheel``, so PEP-517
builds (which need an editable wheel) fail; a plain ``setup.py`` keeps
``pip install -e .`` on the legacy ``setup.py develop`` path. All
metadata therefore lives here, with ``README.md`` as the long
description.
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="correctnet-repro",
    version="1.0.0",
    description=(
        "Reproduction of CorrectNet (Eldebiky et al., DATE 2023): "
        "robustness enhancement of analog in-memory computing by error "
        "suppression and compensation, on a pure-numpy substrate"
    ),
    long_description=Path(__file__).with_name("README.md").read_text(
        encoding="utf-8"
    ),
    long_description_content_type="text/markdown",
    author="correctnet-repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the py.typed marker tells type checkers the inline
    # annotations are the package's public typing interface.
    package_data={"repro": ["py.typed"]},
    zip_safe=False,
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        # `pytest.ini` sets a per-test timeout that activates when
        # pytest-timeout is present; the plugin is optional so the bare
        # environment can still run the suite. The property tests import
        # hypothesis at module level, so the suite cannot collect without it.
        "test": ["pytest", "pytest-timeout", "hypothesis"],
        # The strict-typing gate (CI's lint job); not needed at runtime.
        "typecheck": ["mypy"],
    },
    entry_points={
        "console_scripts": [
            "correctnet=repro.cli:main",
            "correctnet-train=repro.cli:train_main",
            "correctnet-eval=repro.cli:eval_main",
            "correctnet-search=repro.cli:search_main",
            "correctnet-jobs=repro.store.cli:jobs_main",
            "correctnet-query=repro.store.cli:query_main",
            "correctnet-lint=repro.lint.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
        "Operating System :: OS Independent",
    ],
)
