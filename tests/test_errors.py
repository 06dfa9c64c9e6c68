"""The one count check: a least value and a cap, each refused with its own
typed error that names the count."""

import numpy as np
import pytest

from threshnet.errors import COUNT_CAP, CapacityError, DomainError, check_count


def test_check_count_returns_a_python_int():
    value = check_count(np.int64(7), 1, "the census")
    assert value == 7 and type(value) is int


@pytest.mark.parametrize("value", [0, COUNT_CAP])
def test_check_count_takes_both_ends(value):
    assert check_count(value, 0, "the census", "R") == value


def test_check_count_names_the_minimum():
    with pytest.raises(DomainError, match=r"^the census needs n >= 3, got n = 2$"):
        check_count(2, 3, "the census")


def test_check_count_names_the_cap():
    with pytest.raises(CapacityError,
                       match=rf"^the census needs R <= {COUNT_CAP}, got R = {COUNT_CAP + 1}$"):
        check_count(COUNT_CAP + 1, 1, "the census", "R")
    with pytest.raises(CapacityError, match=r"^the table needs n <= 10, got n = 11$"):
        check_count(11, 0, "the table", cap=10)
