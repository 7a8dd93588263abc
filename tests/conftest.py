"""Fixtures shared by every test module."""

import pytest

import weylkit.duality as duality
import weylkit.verify as verify


@pytest.fixture(autouse=True)
def fresh_kernel_certificates():
    """Clear the per-(shape, m) certificates, the packed blocks and the pairing tables before each test.

    A test that monkeypatches a relation builder or ``duality._polytabloid_int``
    must see its mutation, not a table cached by an earlier test.
    """
    verify.certificate.cache_clear()
    verify._packed_block.cache_clear()
    duality._pairing_rows.cache_clear()
