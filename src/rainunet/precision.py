"""Scalar precision selection.

Training runs in 32-bit floats. Finite-difference gradient verification is
unreliable at 32 bits, so a 64-bit "wide" mode is selectable at runtime.
The setting is one for the whole process and applies to tensors created
while it holds.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

STANDARD = "standard"
WIDE = "wide"

_DTYPES = {STANDARD: np.float32, WIDE: np.float64}

_mode = STANDARD


def get_precision() -> str:
    return _mode


def set_precision(mode: str) -> None:
    global _mode
    if mode not in _DTYPES:
        raise ValueError(f"unknown precision {mode!r}, expected 'standard' or 'wide'")
    _mode = mode


def dtype() -> np.dtype:
    """Working float dtype for newly created tensors."""
    return np.dtype(_DTYPES[get_precision()])


@contextmanager
def use_precision(mode: str):
    previous = get_precision()
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(previous)
