"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def str_digits():
    """Set the process's int-to-string digit limit for one test, then restore it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
