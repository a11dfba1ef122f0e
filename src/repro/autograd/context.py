"""Global gradient-recording switch (analogue of ``torch.no_grad``)."""

from __future__ import annotations

import contextlib
from typing import Iterator

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether newly created tensors record operations on the tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling tape recording.

    Used for inference-only passes (Monte-Carlo evaluation samples thousands
    of forward passes). Inside, no op keeps its parents or its backward
    closure, and none computes state that only a backward would read: a
    forward allocates what its own arithmetic needs, and each activation is
    freed by reference count once the next layer has consumed it.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous
