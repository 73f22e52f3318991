"""Reading and writing the MTXC text format for dense complex matrices.

Layout: a header line ``MTXC 1 <n>`` followed by n rows, each holding 2n
whitespace-separated floats (re0 im0 re1 im1 ...). Values are written with
17 significant digits so a write/read cycle reproduces every float64 bit
for bit.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .errors import InvalidInputError
from .linalg import as_square_array

MAGIC = "MTXC"
VERSION = 1


def dumps(m) -> str:
    """The MTXC text of m: one printf-style template applied to all 2n^2 floats."""
    a = as_square_array(m)
    n = a.shape[0]
    row = " ".join(["%.17g"] * (2 * n))
    body = "\n".join([row] * n) % tuple(np.ascontiguousarray(a).view(np.float64).ravel().tolist())
    return f"{MAGIC} {VERSION} {n}\n{body}\n"


def loads(text: str) -> np.ndarray:
    """The matrix in an MTXC document; every token is parsed by Python's float."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty MTXC document")
    header = lines[0].split()
    if len(header) != 3 or header[0] != MAGIC:
        raise InvalidInputError(f"bad MTXC header: {lines[0]!r}")
    if header[1] != str(VERSION):
        raise InvalidInputError(f"unsupported MTXC version {header[1]!r}")
    try:
        n = int(header[2])
    except ValueError as exc:
        raise InvalidInputError(f"bad dimension in header: {header[2]!r}") from exc
    if n < 1:
        raise InvalidInputError(f"dimension must be positive, got {n}")
    if len(lines) - 1 != n:
        raise InvalidInputError(f"expected {n} rows, found {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    for i, fields in enumerate(rows):
        if len(fields) != 2 * n:
            raise InvalidInputError(f"row {i}: expected {2 * n} values, found {len(fields)}")
    try:
        vals = np.fromiter(map(float, itertools.chain.from_iterable(rows)), np.float64, 2 * n * n)
    except ValueError as exc:
        # the row lengths fixed the count at 2n^2, so float() failed on a token found below
        for i, fields in enumerate(rows):
            try:
                list(map(float, fields))
            except ValueError:
                break
        raise InvalidInputError(f"row {i}: non-numeric value") from exc
    # viewing the (re, im) pairs keeps the sign of a zero, which re + 1j*im loses
    return as_square_array(vals.view(np.complex128).reshape(n, n), "MTXC matrix")


def write(path: str | os.PathLike, m) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(m))


def read(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())
