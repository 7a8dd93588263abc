"""Fixtures shared by every test module."""

import pytest

import weylkit.duality as duality
import weylkit.schur as schur
import weylkit.weyl as weyl


@pytest.fixture(autouse=True)
def fresh_kernel_certificates():
    """Clear the per-(shape, m) certificates and pairing tables before each test.

    A test that monkeypatches a relation builder or ``duality._polytabloid_int``
    must see its mutation, not a table cached by an earlier test.
    """
    schur._certificate.cache_clear()
    weyl._certificate.cache_clear()
    duality._pairing_rows.cache_clear()
