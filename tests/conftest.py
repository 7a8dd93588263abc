"""Fixtures shared by every test module."""

import pytest

import weylkit.schur as schur
import weylkit.weyl as weyl


@pytest.fixture(autouse=True)
def fresh_kernel_certificates():
    """Clear the verify paths' per-(shape, m) certificates before each test.

    A test that monkeypatches a relation builder must see its mutation,
    not a certificate cached by an earlier test.
    """
    schur._certificate.cache_clear()
    weyl._certificate.cache_clear()
