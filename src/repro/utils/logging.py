"""Library-wide logging with a single opt-in console handler.

The library never configures the root logger; applications opt in via
:func:`set_verbosity`.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"


def get_logger(name: str = "") -> logging.Logger:
    """Return a logger under the ``repro`` namespace."""
    if name and not name.startswith(_ROOT_NAME):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name or _ROOT_NAME)


def set_verbosity() -> None:
    """Attach a console handler to the ``repro`` logger at ``INFO``.

    Idempotent: calling twice does not duplicate handlers.
    """
    logger = logging.getLogger(_ROOT_NAME)
    logger.setLevel(logging.INFO)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        logger.addHandler(handler)
