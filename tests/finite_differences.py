"""Reference for grad_check's stacked central differences: the per-element
loop that perturbs one element at a time and builds one plain forward per
perturbation."""

import numpy as np

from g2k import autodiff as ad


def per_element_differences(build_loss, value, eps=1e-5):
    """(L(x + eps) - L(x - eps)) / 2eps at every element of value.data, one
    element at a time, under no_grad(); each element is restored after its
    two forwards."""
    arr = value.data
    num = np.empty(arr.shape)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        with ad.no_grad():
            try:
                arr[idx] = orig + eps
                lo_plus = float(build_loss().data[0, 0])
                arr[idx] = orig - eps
                lo_minus = float(build_loss().data[0, 0])
            finally:
                arr[idx] = orig
        num[idx] = (lo_plus - lo_minus) / (2.0 * eps)
    return num


def assert_stacked_differences_match(build_loss, params, eps=1e-5):
    """grad_check's stacked quotients equal the per-element loop's, bit for
    bit, for every parameter."""
    for p in params:
        want = per_element_differences(build_loss, p.value, eps)
        got = ad._central_differences(build_loss, p.value, eps)
        assert got.tobytes() == want.tobytes(), p.name
