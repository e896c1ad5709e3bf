"""The vectorised %.17g encoder writes exactly what format(v, ".17g") does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phibvp import g17
from phibvp.g17 import encode_rows


def expected(values: np.ndarray) -> list[str]:
    return [format(float(v), ".17g") for v in values.ravel()]


def encoded(values: np.ndarray, cols: int = 1) -> list[str]:
    text = encode_rows(values.reshape(-1, cols)).decode("ascii")
    assert text.endswith("\n") and text.count("\n") == values.size // cols
    return text.replace("\n", ",").split(",")[:-1]


def assert_exact(values, cols: int = 1) -> None:
    values = np.asarray(values, dtype=np.float64)
    got, want = encoded(values, cols), expected(values)
    bad = [(float(v), g, w) for v, g, w in zip(values.ravel(), got, want) if g != w]
    assert not bad, bad[:5]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, -values])
    return np.concatenate(
        [both, np.nextafter(both, -np.inf), np.nextafter(both, np.inf)]
    )


# NaN of either sign and payload, infinities, zeros, subnormals, the
# largest and smallest normals
SPECIAL_BITS = [
    0x7FF8000000000000,
    0xFFF8000000000000,
    0x7FF0000000000001,
    0xFFF00000DEADBEEF,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x0000000000000000,
    0x8000000000000000,
    0x0000000000000001,
    0x800FFFFFFFFFFFFF,
    0x0010000000000000,
    0x7FEFFFFFFFFFFFFF,
]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_raw_bit_patterns(bits):
    assert_exact(np.array(bits + SPECIAL_BITS, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    assert_exact(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_the_switches_between_fixed_and_exponential_notation():
    values = with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    assert_exact(values)
    assert format(1e-4, ".17g") in encoded(values)
    assert "1.0000000000000001e-05" in encoded(values)


def test_dyadic_ties_round_half_to_even():
    rng = np.random.default_rng(5)
    m = np.concatenate(
        [rng.integers(2**50, 2**53, 20000), [2**50, 2**50 + 1, 2**53 - 2, 2**53 - 1]]
    )
    assert_exact(m / 4.0)
    assert_exact(-m / 4.0)
    # every odd m is an exact decimal tie at the 17th digit
    assert_exact(np.arange(2**50 + 1, 2**50 + 4001, 2) / 4.0)


def test_decades_rounded_decimals_and_grids():
    rng = np.random.default_rng(6)
    assert_exact(rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, 20000))
    assert_exact(np.round(rng.uniform(-1e3, 1e3, 20000), 3))
    assert_exact(np.linspace(0.0, 160.0, 32001))


@pytest.mark.parametrize("cols", [1, 3, 4])
def test_rows_are_joined_by_commas_and_ended_by_newlines(cols):
    values = np.arange(1.0, 1.0 + 6 * cols).reshape(6, cols) / 7.0
    values[2, 0] = np.nan
    values[3, -1] = -0.0
    lines = encode_rows(values).decode().splitlines()
    assert lines == [",".join(expected(row)) for row in values]


def test_fallback_takes_zeros_non_finite_and_out_of_range_values(monkeypatch):
    calls = []
    monkeypatch.setattr(g17, "_exact", lambda v: calls.append(v) or b"%.17g" % v)
    values = np.array([0.0, -0.0, np.nan, np.inf, 1e-300, 0.1, -2.5, 1e20, 123456.0])
    assert_exact(values)
    assert len(calls) == 5


def trailing_zeros(text: str) -> int:
    """How many of the 17 digits of a %.17g text are trailing zeros."""
    digits = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return 17 - len(digits.rstrip("0"))


def test_every_trailing_zero_count_in_both_notations_and_signs():
    # the last kept digit is read from the bit length of the digit words,
    # so pin each count 0-16 in fixed and exponential notation, both signs
    rng = np.random.default_rng(8)
    found = {}
    for _ in range(400):
        for k in range(1, 18):
            m = int(rng.integers(10 ** (k - 1), 10**k))
            for lead_exp in (-3, 0, 9, 16, -12, 17, 40):
                for sign in ("", "-"):
                    v = float(f"{sign}{m}e{lead_exp - k + 1}")
                    text = format(v, ".17g")
                    found.setdefault((trailing_zeros(text), "e" in text, sign), v)
    assert sorted(found) == sorted(
        (z, exp, sign) for z in range(17) for exp in (False, True) for sign in ("", "-")
    )
    assert_exact(list(found.values()))
