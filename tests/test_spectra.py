"""Spectral index math: worked values, identities, and feature assembly.

Index values marked as published reference points follow Biermann et al.
(2020) for FDI, Themistocleous et al. (2020) for PI, and Camps-Valls et
al. (2021) for kNDVI.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plastiscan.errors import (
    DegenerateDenominatorError,
    InvalidSampleError,
    MissingBandError,
    SpecMismatchError,
    UnknownBandError,
)
from plastiscan.spectra import (
    BAND_ORDER,
    BAND_REGISTRY,
    EPS_DENOM,
    FDI_INTERPOLATION_FACTOR,
    INDEX_SOURCE_BANDS,
    MODEL_SPECS,
    FeatureSetSpec,
    PixelSpectrum,
    PlausibilityWarning,
    fdi,
    feature_vector,
    index_set,
    kndvi,
    kndvi_sigma,
    ndvi,
    pi,
)
from plastiscan.raster import feature_columns

finite_reflectance = st.floats(
    min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False
)


# --- band registry ----------------------------------------------------------

def test_registry_contains_exactly_the_ten_bands() -> None:
    assert set(BAND_REGISTRY) == {
        "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B11", "B12"
    }
    assert tuple(sorted(BAND_ORDER)) == tuple(sorted(BAND_REGISTRY))


def test_registry_centers_match_published_values() -> None:
    centers = {bid: BAND_REGISTRY[bid].center_wavelength_nm for bid in BAND_REGISTRY}
    assert centers["B2"] == 490
    assert centers["B3"] == 560
    assert centers["B4"] == 665
    assert centers["B6"] == 740
    assert centers["B8"] == 842
    assert centers["B11"] == 1610


def test_fdi_interpolation_factor() -> None:
    assert FDI_INTERPOLATION_FACTOR == pytest.approx(
        (833 - 665) / (1610 - 665) * 10
    )
    assert abs(FDI_INTERPOLATION_FACTOR - 1.7777778) <= 1e-7


# --- ndvi -------------------------------------------------------------------

def test_ndvi_worked_values() -> None:
    assert ndvi(red=0.3, nir=0.3) == 0.0
    assert ndvi(red=0.0, nir=0.4) == 1.0
    assert ndvi(red=0.2, nir=0.6) == pytest.approx(0.5, abs=1e-15)


def test_ndvi_degenerate_denominator() -> None:
    with pytest.raises(DegenerateDenominatorError):
        ndvi(red=0.0, nir=0.0)
    with pytest.raises(DegenerateDenominatorError):
        ndvi(red=EPS_DENOM / 4, nir=EPS_DENOM / 4)


def test_ndvi_rejects_non_finite() -> None:
    with pytest.raises(ValueError):
        ndvi(red=math.nan, nir=0.2)
    with pytest.raises(ValueError):
        ndvi(red=0.2, nir=math.inf)


# --- kndvi ------------------------------------------------------------------

def test_kndvi_worked_values() -> None:
    assert kndvi(red=0.3, nir=0.3) == 0.0
    # NDVI = +-0.5 both map to tanh(0.25).
    assert kndvi(red=0.2, nir=0.6) == pytest.approx(0.2449187, abs=5e-8)
    assert kndvi(red=0.6, nir=0.2) == pytest.approx(0.2449187, abs=5e-8)
    assert kndvi(red=0.2, nir=0.6) == pytest.approx(math.tanh(0.25), abs=1e-15)


def test_kndvi_symmetry_and_range() -> None:
    assert kndvi(red=0.1, nir=0.7) == kndvi(red=0.7, nir=0.1)
    assert 0.0 <= kndvi(red=0.0, nir=0.9) <= math.tanh(1.0)


def test_kndvi_sigma_half_sum_equals_kndvi() -> None:
    for red, nir in [(0.1, 0.5), (0.42, 0.17), (0.003, 0.9)]:
        sigma = 0.5 * (nir + red)
        assert kndvi_sigma(red, nir, sigma) == pytest.approx(
            kndvi(red, nir), abs=1e-15
        )


def test_kndvi_sigma_explicit_form() -> None:
    red, nir, sigma = 0.2, 0.5, 0.15
    expected = math.tanh(((nir - red) / (2 * sigma)) ** 2)
    assert kndvi_sigma(red, nir, sigma) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DegenerateDenominatorError):
        kndvi_sigma(red, nir, 0.0)


# --- pi ---------------------------------------------------------------------

def test_pi_worked_values() -> None:
    assert pi(red=0.25, nir=0.25) == 0.5
    assert pi(red=0.0, nir=0.3) == 1.0
    assert pi(red=0.05, nir=0.30) == pytest.approx(0.8571429, abs=5e-8)


def test_pi_degenerate_denominator() -> None:
    with pytest.raises(DegenerateDenominatorError):
        pi(red=0.0, nir=0.0)


# --- fdi --------------------------------------------------------------------

def test_fdi_nir_on_baseline_is_zero() -> None:
    re2, swir1 = 0.05, 0.02
    baseline = re2 + (swir1 - re2) * FDI_INTERPOLATION_FACTOR
    assert fdi(re2=re2, nir=baseline, swir1=swir1) == pytest.approx(0.0, abs=1e-15)


def test_fdi_flat_baseline_collapses_to_re2() -> None:
    assert fdi(re2=0.04, nir=0.20, swir1=0.04) == pytest.approx(0.16, abs=1e-15)


def test_fdi_worked_example() -> None:
    value = fdi(re2=0.05, nir=0.25, swir1=0.02)
    assert value == pytest.approx(0.2533333, abs=1e-6)
    assert value == pytest.approx(0.25333333333333335, abs=1e-15)


def test_fdi_unit_slope_in_nir() -> None:
    base = fdi(re2=0.07, nir=0.2, swir1=0.03)
    for delta in (0.01, 0.1, 0.25):
        assert fdi(re2=0.07, nir=0.2 + delta, swir1=0.03) == pytest.approx(
            base + delta, abs=1e-12
        )


def test_fdi_rejects_non_finite() -> None:
    with pytest.raises(ValueError):
        fdi(re2=math.nan, nir=0.2, swir1=0.03)


# --- randomized identities (acceptance criterion scale lives in
# test_acceptance; here a hypothesis-driven slice) ----------------------------

@given(red=finite_reflectance, nir=finite_reflectance)
def test_identities_over_random_reflectances(red: float, nir: float) -> None:
    if red + nir < EPS_DENOM:
        return
    n = ndvi(red, nir)
    assert -1.0 <= n <= 1.0
    p = pi(red, nir)
    assert 0.0 <= p <= 1.0
    assert abs(p - (n + 1.0) / 2.0) <= 1e-12
    k = kndvi(red, nir)
    assert abs(k - math.tanh(n * n)) <= 1e-12
    assert 0.0 <= k <= math.tanh(1.0)


# --- PixelSpectrum ------------------------------------------------------------

def test_pixel_spectrum_rejects_non_finite() -> None:
    with pytest.raises(InvalidSampleError):
        PixelSpectrum({"B4": math.nan})


def test_pixel_spectrum_rejects_unknown_band() -> None:
    with pytest.raises(UnknownBandError):
        PixelSpectrum({"B99": 0.1})


def test_pixel_spectrum_plausibility_warning() -> None:
    with pytest.warns(PlausibilityWarning):
        PixelSpectrum({"B4": 1.6})
    with pytest.warns(PlausibilityWarning):
        PixelSpectrum({"B4": -0.2})


def test_pixel_spectrum_missing_band() -> None:
    px = PixelSpectrum({"B4": 0.1})
    assert px.band("B4") == 0.1
    with pytest.raises(MissingBandError):
        px.band("B8")


# --- feature sets -------------------------------------------------------------

def test_model_specs_match_published_feature_sets() -> None:
    assert MODEL_SPECS["Model1"].members == ("B6", "B8", "B11", "FDI", "PI", "NDVI")
    assert MODEL_SPECS["Model2"].members == ("B6", "B8", "B11", "FDI", "PI", "KNDVI")
    assert MODEL_SPECS["Model3"].members == ("B6", "B8", "B11", "FDI")
    assert MODEL_SPECS["Model4"].members == ("FDI", "PI", "NDVI")
    assert MODEL_SPECS["Model5"].members == ("FDI", "PI", "KNDVI")
    assert INDEX_SOURCE_BANDS == ("B4", "B6", "B8", "B11")


def test_feature_set_spec_validation() -> None:
    with pytest.raises(UnknownBandError):
        FeatureSetSpec("bad", ("B6", "NOPE"))
    with pytest.raises(ValueError):
        FeatureSetSpec("dup", ("B6", "B6"))
    with pytest.raises(ValueError):
        FeatureSetSpec("empty", ())


def _pixel(**bands: float) -> PixelSpectrum:
    return PixelSpectrum({k.upper(): v for k, v in bands.items()})


def test_feature_vector_model3_order() -> None:
    px = _pixel(b4=0.2, b6=0.05, b8=0.6, b11=0.02)
    fv = feature_vector(px, MODEL_SPECS["Model3"])
    assert fv.spec_id == "Model3"
    assert len(fv.values) == 4
    assert fv.values[:3] == (0.05, 0.6, 0.02)
    assert fv.values[3] == pytest.approx(fdi(re2=0.05, nir=0.6, swir1=0.02))


def test_feature_vector_model1_vs_model2_differ_only_in_last() -> None:
    px = _pixel(b4=0.2, b6=0.05, b8=0.6, b11=0.02)
    v1 = feature_vector(px, MODEL_SPECS["Model1"]).values
    v2 = feature_vector(px, MODEL_SPECS["Model2"]).values
    assert v1[:-1] == v2[:-1]
    assert v1[-1] == pytest.approx(ndvi(0.2, 0.6))
    assert v2[-1] == pytest.approx(kndvi(0.2, 0.6))


def test_feature_vector_model4_worked_example() -> None:
    px = _pixel(b4=0.2, b6=0.05, b8=0.6, b11=0.02)
    fv = feature_vector(px, MODEL_SPECS["Model4"])
    assert fv.values[0] == pytest.approx(0.6033333, abs=1e-6)
    assert fv.values[1] == pytest.approx(0.75, abs=1e-12)
    assert fv.values[2] == pytest.approx(0.5, abs=1e-12)


def test_feature_vector_missing_band_is_named() -> None:
    px = _pixel(b4=0.2, b6=0.05, b8=0.6)  # no B11
    with pytest.raises(MissingBandError, match="B11"):
        feature_vector(px, MODEL_SPECS["Model4"])


@pytest.mark.parametrize("bands", [
    dict(b6=0.05, b8=0.6, b11=0.02),  # no B4, which Model3 does not use
    dict(b4=-0.05, b6=0.02, b8=0.05, b11=0.01),  # B4 = -B8: PI's denominator is 0
], ids=["no_B4", "B4_is_minus_B8"])
def test_feature_vector_model3_needs_only_its_bands(bands) -> None:
    px = _pixel(**bands)
    spec = MODEL_SPECS["Model3"]
    arrays = {band_id: np.array([value]) for band_id, value in px.reflectance.items()}
    assert feature_vector(px, spec).values == tuple(feature_columns(arrays, spec)[0].tolist())
    for model_id in ("Model1", "Model2", "Model4", "Model5"):  # these read B4
        if "B4" in px:
            with pytest.raises(DegenerateDenominatorError, match="^pi: denominator"):
                feature_vector(px, MODEL_SPECS[model_id])
        else:
            with pytest.raises(MissingBandError, match="^spectrum has no band B4$"):
                feature_vector(px, MODEL_SPECS[model_id])


def test_feature_vector_is_pure() -> None:
    px = _pixel(b4=0.11, b6=0.07, b8=0.53, b11=0.021)
    a = feature_vector(px, MODEL_SPECS["Model1"])
    b = feature_vector(px, MODEL_SPECS["Model1"])
    assert a == b


def test_index_set_bundles_all_four() -> None:
    px = _pixel(b4=0.2, b6=0.05, b8=0.6, b11=0.02)
    s = index_set(px)
    assert s.ndvi == pytest.approx(0.5)
    assert s.pi == pytest.approx(0.75)
    assert s.kndvi == pytest.approx(math.tanh(0.25))
    assert s.fdi == pytest.approx(0.6033333, abs=1e-6)


def test_feature_vector_arity_checked() -> None:
    from plastiscan.spectra import FeatureVector

    with pytest.raises(SpecMismatchError):
        FeatureVector(spec_id="Model3", values=(1.0, 2.0))
