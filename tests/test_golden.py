"""Byte-identity gate for every command and for the exact linear algebra:
the digests recorded in ``golden.py``, under the running interpreter."""

import pytest

from golden import COMMANDS, EXPECTED, REPRESENTATIVES_SHA256, command_digest, representatives_digest


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_cli_json_is_byte_identical(label):
    assert command_digest(COMMANDS[label]) == EXPECTED[label]


def test_random_model_representatives_are_byte_identical():
    assert representatives_digest() == REPRESENTATIVES_SHA256
