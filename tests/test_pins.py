"""Byte pins: realized vectors, stacked overlap tables and four CLI outputs, floats included.

How Lagrangians are grouped into blocks is not part of the output: any
grouping, and any reordering of the arithmetic inside a block, must leave
these bytes as they are.
"""

import contextlib
import hashlib
import io

import pytest

from stabkit import enumerate_lagrangians, state_vectors
from stabkit.cli import main
from stabkit.stabilizer import _stacked_tables


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "d, n, digest",
    [
        (2, 1, "ec0445ff2cd196f44a902128cbe98555b27b1baa0d780ec68d4c2f019bd33d2b"),
        (2, 2, "49f1207eb5e6f5295c79d1a8cb6339e745efa8f18547a589eab47821322725c6"),
        (2, 3, "18bea7687a81ed3c6cdd26239195cd037e9e55e4bcf14751dd36b9717d1989b1"),
        (2, 4, "649f9e9d1e42bee432b318e03237c240bfe0a74d804510e485a6d6266b30db96"),
        (3, 1, "f38d7e93db42dec034bc5d25a9a853170cacd18b86b81dfc4d3f821bd4c2d0f3"),
        (3, 2, "2a969db8cf8fe87da8e13ffc766a4dc9c0868b62b073945e65088393517bd770"),
        (3, 3, "6a8534bd80fb67079b30a9ea6140cf97d992b74f6efc4efaaed2c6330ec7482c"),
        (5, 1, "276e0eeacef7f3b0418661d30a6ef0aaac8440efa90208e0c0d3c9b1b87d4790"),
        (5, 2, "8c2c5353afa1eee3f891110fb7dde39d4225e6beff33775bd636b688decb2cfb"),
        (7, 1, "3bdb15ea87f925f676dcd77f237b27bdc5db50f5b563b2731333e477c8be6f52"),
    ],
)
def test_state_vectors_are_pinned(d, n, digest):
    assert sha256(state_vectors(d, n).tobytes()) == digest


@pytest.mark.parametrize(
    "d, n, points_digest, keys_digest",
    [
        (
            2, 3,
            "a8342be1ad491cd27ab015a6fe23d215cf14dc7409539e07119398cece850600",
            "cdefb8dac78e9f86390e6485728f383c5a7b822894b8ce1a3f3d062154e410cf",
        ),
        (
            3, 2,
            "6b53ba1fb84db9a6a748c8417286e8ebb3730c3b0f61cd298eaaf23cabbb617f",
            "3f0c6415b6d76856a901c83dd49804a03dc772b4699833a9d4ced88362b42a69",
        ),
        (
            5, 2,
            "b473c42ccb7b2aa68db1665c7dd6d925766fd339023f06d1eded92b384207188",
            "677f1b72c600caf112518738b751701e98be1293c349d9acddb382cef4b33924",
        ),
    ],
)
def test_stacked_tables_are_pinned(d, n, points_digest, keys_digest):
    points, keys = _stacked_tables(list(enumerate_lagrangians(d, n)))
    assert (points.dtype.name, keys.dtype.name) == ("int64", "int8")
    assert sha256(points.tobytes()) == points_digest
    assert sha256(keys.tobytes()) == keys_digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "verify --d 2 --n 3 --t-max 4 --threads 2",
            "346a72becc425fbde55490cbc351d953185837ceb363e35d00691555c440337e",
        ),
        # At odd d the Weyl values are not quarter turns, so the printed deviations read their rounding.
        (
            "verify --d 3 --n 2 --t-max 4",
            "4a4915adb7d2f68c3dedf3a282ae1e60f8919f14ba5528467df901ba3bbd2883",
        ),
        (
            "verify --d 5 --n 1 --t-max 4",
            "f494d306242de5241425b255e1d7791267f8d5525ce292bfe6236fd852a573ef",
        ),
        (
            "frame-potential --d 3 --n 1..3 --t 1..4 --method all --format csv --threads 2",
            "3f992b21d92fd07cfd5705e05fa8b45e9749e83f19cdef40596c7152908481a7",
        ),
    ],
)
def test_cli_stdout_is_pinned(argv, digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    assert (code, err.getvalue()) == (0, "")
    assert sha256(out.getvalue().encode()) == digest
