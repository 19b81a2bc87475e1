"""Unit tests for repro.utils.validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.validation import (
    check_covariance,
    check_limits,
    check_positive_int,
    check_probability,
    check_square,
    check_symmetric,
    ensure_1d,
    ensure_2d,
)


class TestEnsure:
    def test_ensure_1d_from_list(self):
        out = ensure_1d([1, 2, 3])
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_ensure_1d_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ensure_1d(np.zeros((2, 2)))

    def test_ensure_2d_from_nested_list(self):
        out = ensure_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.flags["C_CONTIGUOUS"]

    def test_ensure_2d_rejects_vector(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            ensure_2d(np.zeros(3))

    def test_ensure_2d_custom_name_in_error(self):
        with pytest.raises(ValueError, match="mymatrix"):
            ensure_2d(np.zeros(3), name="mymatrix")


class TestSquareSymmetric:
    def test_check_square_accepts_square(self):
        assert check_square(np.eye(3)).shape == (3, 3)

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((2, 3)))

    def test_check_symmetric_accepts_symmetric(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert check_symmetric(a) is not None

    def test_check_symmetric_rejects_asymmetric(self):
        a = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_check_symmetric_tolerates_roundoff(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        check_symmetric(a)


class TestCovariance:
    def test_valid_covariance(self, small_spd):
        out = check_covariance(small_spd)
        assert out.shape == small_spd.shape

    def test_rejects_negative_diagonal(self):
        a = np.eye(3)
        a[1, 1] = -1.0
        with pytest.raises(ValueError, match="diagonal"):
            check_covariance(a)

    def test_rejects_nan(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError):
            check_covariance(a)

    def test_require_spd_rejects_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric but indefinite
        with pytest.raises(ValueError, match="positive definite"):
            check_covariance(a, require_spd=True)

    def test_require_spd_accepts_spd(self, small_spd):
        check_covariance(small_spd, require_spd=True)

    def test_rejects_empty_naming_the_argument(self):
        with pytest.raises(ValueError, match="sigma_prior must not be empty"):
            check_covariance(np.zeros((0, 0)), "sigma_prior")
        with pytest.raises(ValueError, match="matrix must not be empty"):
            check_symmetric(np.zeros((0, 0)))

    def test_infinite_entry_raises_without_warning(self):
        a = np.eye(4)
        a[2, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly positive, finite diagonal"):
                check_covariance(a)
            a[2, 2] = 1.0
            a[0, 3] = a[3, 0] = -np.inf
            with pytest.raises(ValueError, match="strictly positive, finite diagonal"):
                check_covariance(a)

    def test_nan_entry_is_asymmetric(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be symmetric"):
                check_covariance(a)


def _reference_symmetric(arr, tol=1e-8):
    """The symmetry rule before the blocked check, kept as its reference."""
    with np.errstate(invalid="ignore", over="ignore"):
        scale = max(1.0, float(np.max(np.abs(arr))))
        return bool(np.allclose(arr, arr.T, atol=tol * scale, rtol=0.0))


def _verdict(arr):
    """(symmetric?, message) from check_symmetric, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check_symmetric(arr, "m")
        except ValueError as exc:
            return False, str(exc)
    return True, None


def _assert_matches_reference(arr):
    ok, message = _verdict(arr)
    assert ok == _reference_symmetric(arr)
    if not ok:
        assert message == "m must be symmetric (tolerance 1e-08)"


def _tolerance_edit(arr, i, j, where):
    """Make ``arr[i, j] - arr[j, i]`` land just under, at or just over atol."""
    arr[i, j] = arr[j, i] = 0.0
    atol = 1e-8 * max(1.0, float(np.max(np.abs(arr))))
    arr[i, j] = {"under": np.nextafter(atol, 0.0), "at": atol,
                 "over": np.nextafter(atol, np.inf)}[where]


#: sizes around the 128-wide comparison blocks, ragged edges included
_SIZES = [1, 2, 127, 128, 129, 300]
_EDITS = ["under", "at", "over", "nan", "inf", "-inf", "inf-pair", "opposite-inf", "overflow"]


@st.composite
def _nearly_symmetric(draw):
    n = draw(st.sampled_from(_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal((n, n)) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    arr = arr + arr.T
    index = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    for _ in range(draw(st.integers(0, 3))):
        i, j, edit = draw(index), draw(index), draw(st.sampled_from(_EDITS))
        if edit in ("under", "at", "over"):
            _tolerance_edit(arr, i, j, edit)
        elif edit == "nan":
            arr[i, j] = np.nan
        elif edit in ("inf", "-inf"):
            arr[i, j] = float(edit)
        elif edit == "inf-pair":
            arr[i, j] = arr[j, i] = np.inf
        elif edit == "opposite-inf":
            arr[i, j], arr[j, i] = -np.inf, np.inf
        else:
            arr[i, j], arr[j, i] = 1e308, -1e308
    return arr


class TestSymmetryVerdict:
    """The blocked symmetry check gives the old whole-matrix verdict."""

    @settings(max_examples=150, deadline=None)
    @given(_nearly_symmetric())
    def test_matches_allclose_reference(self, arr):
        _assert_matches_reference(arr)

    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    @pytest.mark.parametrize("corner", [(0, -1), (-1, 0), (-1, -2), (-2, -1), (-1, 5)])
    @pytest.mark.parametrize("where", ["under", "at", "over"])
    def test_tolerance_boundary_in_every_block(self, n, corner, where):
        """Deterministic edge cases: the asymmetry sits in the last (ragged)
        block row or column, at the three distances from atol."""
        arr = np.random.default_rng(n).standard_normal((n, n))
        arr = arr + arr.T
        i, j = (idx % n for idx in corner)
        _tolerance_edit(arr, i, j, where)
        _assert_matches_reference(arr)
        assert _verdict(arr)[0] == (where != "over")


class TestLimits:
    def test_valid_limits(self):
        a, b = check_limits([-1, -np.inf], [1, 0])
        assert a.shape == b.shape == (2,)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            check_limits([0.0], [1.0, 2.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="length 3"):
            check_limits([0.0, 0.0], [1.0, 1.0], n=3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_limits([np.nan], [1.0])

    def test_rejects_crossed_limits(self):
        with pytest.raises(ValueError, match="exceeds"):
            check_limits([2.0], [1.0])

    def test_infinite_limits_allowed(self):
        a, b = check_limits([-np.inf, -np.inf], [np.inf, 0.0])
        assert np.isinf(a).all()


class TestScalars:
    def test_positive_int_ok(self):
        assert check_positive_int(5) == 5

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0)

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True)

    def test_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5)
        with pytest.raises(ValueError):
            check_probability(-0.1)
