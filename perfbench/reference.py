"""Reference kernels for checking the workload outputs.

They compute the same functions as the measured kernels by another route
(one windowed tensor contraction instead of per-offset accumulation), so an
error in either shows as a mismatch.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pad(x: np.ndarray, padding: int, value: float) -> np.ndarray:
    if not padding:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=value)


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(batch, channels, out_h, out_w, kernel, kernel) view of the windows."""
    return sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]


def conv2d(x, weight, bias, stride: int, padding: int) -> np.ndarray:
    windows = _windows(_pad(x, padding, 0.0), weight.shape[2], stride)
    out = np.tensordot(windows, weight, axes=([1, 4, 5], [1, 2, 3]))  # b, oh, ow, o
    return out.transpose(0, 3, 1, 2) + bias[None, :, None, None]


def maxpool2d(x, kernel: int, stride: int, padding: int) -> np.ndarray:
    return _windows(_pad(x, padding, -np.inf), kernel, stride).max(axis=(4, 5))


def linear(x, weight, bias) -> np.ndarray:
    return np.einsum("bi,oi->bo", x, weight) + bias


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    scale = float(np.abs(expected).max()) or 1.0
    return float(np.abs(actual - expected).max()) / scale
