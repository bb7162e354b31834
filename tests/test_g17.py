"""The block formatter against Python's own ``%.17g``, byte for byte."""

import numpy as np
import pytest

from delaysync import g17


def python_text(values: np.ndarray) -> bytes:
    """The rows of a 2-D block as np.savetxt(fmt="%.17g", delimiter=",")
    writes them: one ``%`` per value."""
    return b"".join(
        b",".join(b"%.17g" % v for v in row) + b"\n" for row in values.tolist()
    )


def assert_formats(values):
    """Compare one value per row and name the first value that differs."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    got = g17.csv_rows(values.reshape(-1, 1)).tobytes().split(b"\n")
    assert got[-1] == b""
    for v, text in zip(values.tolist(), got):
        if text != b"%.17g" % v:
            pytest.fail(f"{v!r} ({v.hex()}) formatted as {text!r}, not {b'%.17g' % v!r}")
    assert len(got) == values.size + 1


def test_random_bit_patterns():
    """Every float64 class: 2**20 uniformly random 64-bit patterns, which
    are mostly huge or tiny magnitudes, plus nan payloads and subnormals."""
    bits = np.random.default_rng(20240917).integers(0, 2**64, 2**20, dtype=np.uint64)
    assert_formats(bits.view(np.float64))


def test_random_magnitudes_in_rows():
    """Values at every decimal exponent the exact path covers, written as
    rows of 7 so that commas and row ends alternate."""
    rng = np.random.default_rng(11)
    exponents = rng.integers(-285, 285, 7 * 40000)
    values = rng.uniform(1.0, 10.0, exponents.size) * 10.0 ** exponents.astype(float)
    values *= rng.choice([-1.0, 1.0], values.size)
    block = values.reshape(-1, 7)
    assert g17.csv_rows(block).tobytes() == python_text(block)


def test_neighbours_of_powers_of_ten():
    """log10 and the scaled product sit next to a boundary here."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, above, np.nextafter(below, 0.0)])
    assert_formats(np.concatenate([values, -values]))


def test_values_whose_seventeen_digits_carry():
    """Decimal literals whose 17-digit rounding would carry into a new
    leading digit, and the doubles nearest to them."""
    literals = [
        "9.99999999999999999e5", "9.9999999999999999e5", "99999999999999999",
        "0.99999999999999999", "9.99999999999999995e-5", "9.99999999999999995e16",
        "9.999999999999999e22", "9.9999999999999999e-100", "999999999999999.99",
    ]
    values = np.array([float(s) for s in literals])
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    assert_formats(np.concatenate([values, -values]))


def test_exact_decimal_ties():
    """j * 2**-22 in [1e-5, 1e-4) has 22 decimals; for odd j the 18th
    significant digit is a final 5, an exact tie that rounds half to even."""
    j = np.arange(np.ceil(1e-5 * 2**22), np.ceil(1e-4 * 2**22))
    ties = j * 2.0**-22
    assert ties.min() >= 1e-5 and ties.max() < 1e-4
    # The same kind of tie at other scales: halves, quarters, ... of
    # 17-digit integers.
    k = np.random.default_rng(3).integers(10**15, 10**16, 2000).astype(float)
    assert_formats(np.concatenate([ties, -ties, k + 0.5, (k + 0.25) * 1e-7, k * 2.0**-40]))


def test_special_values():
    tiny = np.float64(5e-324)
    values = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
        np.finfo(np.float64).max, -np.finfo(np.float64).max,
        1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
        1.0, -1.0, 0.1, 1e16, 1e17, 123456789012345678.0, 1e-4, 1e-5,
        9.9999999999999991e-5, 0.5, 1.5, 2.5,
    ]
    assert_formats(values)


def test_every_row_width_and_notation():
    """Fixed notation with every exponent from -4 to 16 and every count of
    kept digits, exponential notation on both sides of it."""
    rng = np.random.default_rng(5)
    values = []
    for e in range(-7, 20):
        for kept in range(1, 18):
            digits = rng.integers(10 ** (kept - 1), 10**kept) // 10 * 10 + rng.integers(1, 10)
            values.append(float(digits) * 10.0 ** (e - kept + 1))
    values = np.array(values)
    assert_formats(np.concatenate([values, -values]))


def test_tables_stay_small():
    tables = vars(g17._tables()).values()
    assert sum(t.nbytes for t in tables) <= 256 * 1024
