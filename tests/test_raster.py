"""Raster container round trips, grid ops, and index rasters."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from plastiscan.errors import (
    DimensionMismatchError,
    MalformedHeaderError,
    MissingBandError,
    TruncatedPayloadError,
    UnknownBandError,
)
from plastiscan.raster import (
    BandStack,
    DegenerateStretchWarning,
    Grid,
    LabelGrid,
    MaskGrid,
    apply_mask,
    compute_index_raster,
    feature_columns,
    histogram_stretch,
    index_arrays,
    read_label_map,
    read_stack,
    resample_nearest,
    write_label_map,
    write_stack,
)
from plastiscan.spectra import BAND_ORDER, MODEL_SPECS, fdi, kndvi, ndvi, pi


def grid_of(rows) -> Grid:
    arr = np.asarray(rows, dtype=np.float64)
    return Grid(width=arr.shape[1], height=arr.shape[0], values=arr)


def two_band_stack(**kwargs) -> BandStack:
    # 0.25 steps are exactly representable in float32, so values survive
    # the f32 payload unchanged.
    b4 = grid_of([[0.25, 0.5], [0.75, 1.0]])
    b8 = grid_of([[1.25, 1.5], [1.75, 2.0]])
    return BandStack(grids={"B8": b8, "B4": b4}, resolution_m=10.0, **kwargs)


class TestGridTypes:
    def test_grid_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite"):
            grid_of([[1.0, math.inf]])

    def test_grid_allows_nan_as_nodata(self):
        g = grid_of([[1.0, math.nan]])
        assert g.nodata_mask.tolist() == [[False, True]]

    def test_grid_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Grid(width=3, height=2, values=np.zeros((2, 2)))

    def test_grid_nonpositive_dims(self):
        with pytest.raises(DimensionMismatchError):
            Grid(width=0, height=1, values=np.zeros((1, 0)))

    def test_grid_values_cast_to_float64(self):
        g = Grid(width=2, height=1, values=np.array([[1, 2]], dtype=np.int32))
        assert g.values.dtype == np.float64

    def test_mask_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MaskGrid(width=2, height=2, keep=np.ones((1, 2), dtype=bool))

    def test_label_grid_accepts_known_classes(self):
        g = LabelGrid(width=3, height=1, labels=np.array([[0, 1, 2]]))
        assert g.labels.dtype == np.uint8

    def test_label_grid_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown classes"):
            LabelGrid(width=2, height=1, labels=np.array([[1, 3]]))

    def test_label_grid_rejects_values_that_wrap_into_classes(self):
        with pytest.raises(ValueError, match=r"^labels contain unknown classes \[257, 258\]$"):
            LabelGrid(width=2, height=1, labels=np.array([[257, 258]]))

    def test_label_grid_rejects_fractional_labels(self):
        with pytest.raises(ValueError, match=r"^labels contain unknown classes \[1\.7\]$"):
            LabelGrid(width=1, height=1, labels=np.array([[1.7]]))

    def test_label_grid_names_bad_values_as_plain_numbers(self):
        with pytest.raises(ValueError, match=r"^labels contain unknown classes \[-1, 3\]$"):
            LabelGrid(width=3, height=1, labels=np.array([[3, -1, 3]]))


class TestBandStack:
    def test_canonical_band_order(self):
        g = grid_of([[0.1]])
        stack = BandStack(
            grids={"FDI": g, "B8": g, "B2": g, "NDVI": g}, resolution_m=10.0
        )
        assert stack.band_ids == ("B2", "B8", "FDI", "NDVI")

    def test_empty_stack_rejected(self):
        with pytest.raises(MalformedHeaderError, match="at least one band"):
            BandStack(grids={}, resolution_m=10.0)

    def test_unknown_band_id_rejected(self):
        with pytest.raises(UnknownBandError, match="B99"):
            BandStack(grids={"B99": grid_of([[0.1]])}, resolution_m=10.0)

    def test_band_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BandStack(
                grids={"B2": grid_of([[0.1]]), "B3": grid_of([[0.1, 0.2]])},
                resolution_m=10.0,
            )

    def test_nonpositive_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            BandStack(grids={"B2": grid_of([[0.1]])}, resolution_m=0.0)

    def test_nonfinite_nodata_sentinel_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BandStack(
                grids={"B2": grid_of([[0.1]])},
                resolution_m=10.0,
                nodata_value=math.nan,
            )

    def test_missing_band_lookup(self):
        stack = two_band_stack()
        with pytest.raises(MissingBandError, match="B11"):
            stack.band("B11")


class TestStackRoundTrip:
    def test_header_path_must_be_json(self, tmp_path):
        with pytest.raises(ValueError, match=r"\.json"):
            write_stack(two_band_stack(), tmp_path / "s.raw")

    def test_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "s.json"
        stack = two_band_stack()
        write_stack(stack, path)
        back = read_stack(path)
        assert back.band_ids == stack.band_ids
        for band_id in stack.band_ids:
            np.testing.assert_array_equal(
                back.grids[band_id].values, stack.grids[band_id].values
            )

    def test_payload_round_trips_bitwise(self, tmp_path):
        # Even values that are not float32-representable must survive a
        # read -> write cycle without the payload bytes changing.
        g = grid_of([[0.1, 0.2], [1 / 3, math.nan]])
        stack = BandStack(grids={"B2": g, "B3": g}, resolution_m=10.0)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_stack(stack, first)
        write_stack(read_stack(first), second)
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()
        assert first.read_bytes() == second.read_bytes()

    def test_write_is_deterministic(self, tmp_path):
        for name in ("a.json", "b.json"):
            write_stack(two_band_stack(provenance="run 1"), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()

    def test_payload_size_is_4_w_h_bands(self, tmp_path):
        write_stack(two_band_stack(), tmp_path / "s.json")
        assert len((tmp_path / "s.raw").read_bytes()) == 4 * 2 * 2 * 2

    def test_single_cell_value(self, tmp_path):
        path = tmp_path / "one.json"
        write_stack(
            BandStack(grids={"B8": grid_of([[0.25]])}, resolution_m=10.0), path
        )
        back = read_stack(path)
        assert back.width == back.height == 1
        assert back.grids["B8"].values[0, 0] == 0.25

    def test_nodata_sentinel_serialises_nan(self, tmp_path):
        path = tmp_path / "s.json"
        g = grid_of([[0.5, math.nan]])
        write_stack(
            BandStack(grids={"B2": g}, resolution_m=10.0, nodata_value=-999.0), path
        )
        payload = np.frombuffer((tmp_path / "s.raw").read_bytes(), dtype="<f4")
        assert payload.tolist() == [0.5, -999.0]
        back = read_stack(path)
        assert math.isnan(back.grids["B2"].values[0, 1])
        assert back.nodata_value == -999.0

    def test_nan_payload_without_sentinel(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(
            BandStack(grids={"B2": grid_of([[math.nan]])}, resolution_m=10.0), path
        )
        assert math.isnan(read_stack(path).grids["B2"].values[0, 0])

    def test_read_peak_is_payload_plus_one_float64_cube(self, tmp_path):
        # The payload is converted to float64 once and every grid holds its
        # plane of that cube, so reading costs no second copy of the scene.
        values = np.random.default_rng(0).uniform(0.0, 0.5, (len(BAND_ORDER), 256, 256))
        values[:, ::9, ::7] = math.nan
        grids = {bid: Grid(width=256, height=256, values=plane)
                 for bid, plane in zip(BAND_ORDER, values)}
        path = tmp_path / "s.json"
        write_stack(BandStack(grids=grids, resolution_m=10.0, nodata_value=-999.0), path)
        tracemalloc.start()
        try:
            back = read_stack(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (4 + 8) * values.size
        for bid, plane in zip(BAND_ORDER, values):
            np.testing.assert_array_equal(back.grids[bid].values, plane.astype(np.float32))

    def test_resolution_and_provenance_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(two_band_stack(provenance="tile T36JUN 2019-04-24"), path)
        back = read_stack(path)
        assert back.provenance == "tile T36JUN 2019-04-24"
        assert back.resolution_m == 10.0

    def test_index_band_header_entry(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(
            BandStack(grids={"FDI": grid_of([[0.1]])}, resolution_m=20.0), path
        )
        header = json.loads(path.read_text())
        (entry,) = header["bands"]
        assert entry["id"] == "FDI"
        assert entry["center_wavelength_nm"] is None
        assert entry["native_resolution_m"] == 20.0


def write_mutated(tmp_path, mutate):
    """Write a valid two-band container, then rewrite the header mutated."""
    path = tmp_path / "s.json"
    write_stack(two_band_stack(), path)
    header = json.loads(path.read_text())
    mutate(header)
    path.write_text(json.dumps(header, indent=2) + "\n")
    return path


class TestHeaderValidation:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(two_band_stack(), path)
        path.write_text("{not json")
        with pytest.raises(MalformedHeaderError, match="JSON"):
            read_stack(path)

    def test_binary_header(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b"P5\n30 20\n255\n" + bytes([0x80, 0xFF, 0x00]))
        with pytest.raises(MalformedHeaderError, match="JSON"):
            read_stack(path)

    def test_header_must_be_object(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(two_band_stack(), path)
        path.write_text("[1, 2]")
        with pytest.raises(MalformedHeaderError, match="object"):
            read_stack(path)

    @pytest.mark.parametrize("field", ["format", "width", "dtype", "bands"])
    def test_missing_field_named(self, tmp_path, field):
        path = write_mutated(tmp_path, lambda h: h.pop(field))
        with pytest.raises(MalformedHeaderError, match=field):
            read_stack(path)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("format", "bsqf/2"),
            ("dtype", "f64"),
            ("byte_order", "big"),
            ("interleave", "bil"),
        ],
    )
    def test_wrong_field_value_named(self, tmp_path, field, value):
        path = write_mutated(tmp_path, lambda h: h.__setitem__(field, value))
        with pytest.raises(MalformedHeaderError, match=field):
            read_stack(path)

    def test_width_must_be_integer(self, tmp_path):
        path = write_mutated(tmp_path, lambda h: h.__setitem__("width", "2"))
        with pytest.raises(MalformedHeaderError, match="width"):
            read_stack(path)

    def test_nonpositive_dimensions(self, tmp_path):
        path = write_mutated(tmp_path, lambda h: h.__setitem__("height", 0))
        with pytest.raises(DimensionMismatchError, match="positive"):
            read_stack(path)

    def test_empty_band_list(self, tmp_path):
        path = write_mutated(tmp_path, lambda h: h.__setitem__("bands", []))
        with pytest.raises(MalformedHeaderError, match="bands"):
            read_stack(path)

    def test_band_entry_needs_id(self, tmp_path):
        path = write_mutated(tmp_path, lambda h: h["bands"][0].pop("id"))
        with pytest.raises(MalformedHeaderError, match="id"):
            read_stack(path)

    def test_unknown_band_id(self, tmp_path):
        path = write_mutated(
            tmp_path, lambda h: h["bands"][0].__setitem__("id", "B99")
        )
        with pytest.raises(UnknownBandError, match="B99"):
            read_stack(path)

    def test_duplicate_band_id(self, tmp_path):
        path = write_mutated(
            tmp_path, lambda h: h["bands"][1].__setitem__("id", h["bands"][0]["id"])
        )
        with pytest.raises(MalformedHeaderError, match="duplicate"):
            read_stack(path)

    def test_nonfinite_nodata(self, tmp_path):
        path = write_mutated(
            tmp_path, lambda h: h.__setitem__("nodata_value", "Infinity")
        )
        with pytest.raises(MalformedHeaderError, match="nodata_value"):
            read_stack(path)

    def test_provenance_must_be_string(self, tmp_path):
        path = write_mutated(tmp_path, lambda h: h.__setitem__("provenance", 7))
        with pytest.raises(MalformedHeaderError, match="provenance"):
            read_stack(path)

    def test_disagreeing_band_resolutions(self, tmp_path):
        path = write_mutated(
            tmp_path,
            lambda h: h["bands"][0].__setitem__("native_resolution_m", 60.0),
        )
        with pytest.raises(MalformedHeaderError, match="native_resolution_m"):
            read_stack(path)

    def test_default_resolution_when_unstated(self, tmp_path):
        path = write_mutated(
            tmp_path,
            lambda h: [e.pop("native_resolution_m") for e in h["bands"]],
        )
        assert read_stack(path).resolution_m == 10.0

    def test_missing_payload_file(self, tmp_path):
        path = tmp_path / "s.json"
        write_stack(two_band_stack(), path)
        (tmp_path / "s.raw").unlink()
        with pytest.raises(TruncatedPayloadError, match="missing"):
            read_stack(path)

    def test_truncated_payload_reports_sizes(self, tmp_path):
        # Header advertises two bands over a one-band payload.
        path = tmp_path / "s.json"
        write_stack(
            BandStack(grids={"B4": grid_of([[0.25, 0.5]])}, resolution_m=10.0), path
        )
        header = json.loads(path.read_text())
        header["bands"].append(dict(header["bands"][0], id="B8"))
        path.write_text(json.dumps(header))
        with pytest.raises(TruncatedPayloadError, match="8 bytes.*16"):
            read_stack(path)


class TestResample:
    def test_factor_one_is_identity(self):
        g = grid_of([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(resample_nearest(g, 1).values, g.values)

    def test_single_cell_duplicates(self):
        out = resample_nearest(grid_of([[0.7]]), 2)
        assert out.width == out.height == 2
        np.testing.assert_array_equal(out.values, np.full((2, 2), 0.7))

    def test_two_cell_row_pattern(self):
        out = resample_nearest(grid_of([[1.0, 2.0]]), 2)
        np.testing.assert_array_equal(
            out.values, [[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]]
        )

    def test_value_multiset_scales_by_factor_squared(self):
        rng = np.random.default_rng(3)
        g = grid_of(rng.uniform(size=(4, 5)))
        out = resample_nearest(g, 3)
        assert out.values.shape == (12, 15)
        before = {v: 9 for v in g.values.ravel()}
        values, counts = np.unique(out.values, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == before

    def test_nodata_propagates(self):
        out = resample_nearest(grid_of([[0.5, math.nan]]), 2)
        assert int(out.nodata_mask.sum()) == 4

    @pytest.mark.parametrize("factor", [0, -1, 1.5])
    def test_bad_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            resample_nearest(grid_of([[0.5]]), factor)


class TestApplyMask:
    def test_keep_all_is_identity(self):
        stack = two_band_stack()
        mask = MaskGrid(width=2, height=2, keep=np.ones((2, 2), dtype=bool))
        out = apply_mask(stack, mask)
        for band_id in stack.band_ids:
            np.testing.assert_array_equal(
                out.grids[band_id].values, stack.grids[band_id].values
            )

    def test_drop_all_blanks_everything(self):
        stack = two_band_stack()
        mask = MaskGrid(width=2, height=2, keep=np.zeros((2, 2), dtype=bool))
        out = apply_mask(stack, mask)
        for band_id in out.band_ids:
            assert out.grids[band_id].nodata_mask.all()

    def test_checkerboard_blanks_two_cells_per_band(self):
        stack = two_band_stack()
        mask = MaskGrid(
            width=2, height=2, keep=np.array([[True, False], [False, True]])
        )
        out = apply_mask(stack, mask)
        for band_id in out.band_ids:
            assert int(out.grids[band_id].nodata_mask.sum()) == 2

    def test_shape_mismatch(self):
        mask = MaskGrid(width=3, height=2, keep=np.ones((2, 3), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            apply_mask(two_band_stack(), mask)

    def test_metadata_preserved(self):
        stack = two_band_stack(provenance="scene", nodata_value=-1.0)
        mask = MaskGrid(width=2, height=2, keep=np.ones((2, 2), dtype=bool))
        out = apply_mask(stack, mask)
        assert (out.resolution_m, out.provenance, out.nodata_value) == (
            10.0,
            "scene",
            -1.0,
        )


class TestHistogramStretch:
    def test_constant_grid_warns_and_zeroes(self):
        g = grid_of(np.full((3, 3), 0.4))
        with pytest.warns(DegenerateStretchWarning):
            out = histogram_stretch(g)
        np.testing.assert_array_equal(out.values, np.zeros((3, 3)))

    def test_percentile_window_maps_2_and_98(self):
        g = grid_of(np.arange(101.0).reshape(1, 101))
        out = histogram_stretch(g, 2.0, 98.0).values[0]
        assert out[2] == 0.0
        assert out[98] == 1.0
        assert out[100] == 1.0  # clipped above the window
        assert out[0] == 0.0  # clipped below the window
        assert out[50] == pytest.approx((50 - 2) / 96)

    def test_output_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(11)
        g = grid_of(np.sort(rng.normal(size=(1, 400))))
        out = histogram_stretch(g).values[0]
        assert ((out >= 0.0) & (out <= 1.0)).all()
        assert (np.diff(out) >= 0).all()

    def test_nodata_cells_ignored_and_preserved(self):
        vals = np.arange(101.0)
        with_nan = np.concatenate([vals, [math.nan] * 7]).reshape(1, 108)
        out = histogram_stretch(grid_of(with_nan), 2.0, 98.0)
        assert int(out.nodata_mask.sum()) == 7
        np.testing.assert_array_equal(
            out.values[0, :101],
            histogram_stretch(grid_of(vals.reshape(1, 101)), 2.0, 98.0).values[0],
        )

    def test_all_nodata_passes_through(self):
        out = histogram_stretch(grid_of([[math.nan, math.nan]]))
        assert out.nodata_mask.all()

    @pytest.mark.parametrize(("lo", "hi"), [(98.0, 2.0), (-1.0, 50.0), (0.0, 101.0), (5.0, 5.0)])
    def test_bad_percentiles(self, lo, hi):
        with pytest.raises(ValueError, match="p_low"):
            histogram_stretch(grid_of([[0.1, 0.2]]), lo, hi)


def stack_from_arrays(**bands) -> BandStack:
    grids = {bid: grid_of(arr) for bid, arr in bands.items()}
    return BandStack(grids=grids, resolution_m=10.0)


class TestIndexRasters:
    def test_single_cell_matches_scalar_ops(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            b4, b6, b8, b11 = rng.uniform(0.01, 1.2, size=4)
            stack = stack_from_arrays(
                B4=[[b4]], B6=[[b6]], B8=[[b8]], B11=[[b11]]
            )
            assert compute_index_raster(stack, "FDI").values[0, 0] == fdi(b6, b8, b11)
            assert compute_index_raster(stack, "PI").values[0, 0] == pi(b4, b8)
            assert compute_index_raster(stack, "NDVI").values[0, 0] == ndvi(b4, b8)
            assert compute_index_raster(stack, "KNDVI").values[0, 0] == kndvi(b4, b8)

    def test_bulk_arrays_match_scalar_ops(self):
        rng = np.random.default_rng(6)
        arrays = {
            bid: rng.uniform(0.0, 1.5, size=(20, 20))
            for bid in ("B4", "B6", "B8", "B11")
        }
        outs = {iid: index_arrays(arrays, iid) for iid in ("FDI", "PI", "NDVI", "KNDVI")}
        for r in range(20):
            for c in range(0, 20, 3):
                b4, b6, b8, b11 = (arrays[b][r, c] for b in ("B4", "B6", "B8", "B11"))
                assert outs["FDI"][r, c] == fdi(b6, b8, b11)
                assert outs["PI"][r, c] == pi(b4, b8)
                assert outs["NDVI"][r, c] == ndvi(b4, b8)
                assert outs["KNDVI"][r, c] == kndvi(b4, b8)

    def test_scalar_ops_match_arrays_at_any_length_and_offset(self):
        # Both paths evaluate one formula; for kNDVI the bits agree only while
        # np.tanh gives the same result wherever a value sits in an array.
        rng = np.random.default_rng(8)
        bands = ("B4", "B6", "B8", "B11")
        arrays = {bid: rng.uniform(0.0, 1.5, size=65_536) for bid in bands}
        columns = {bid: arrays[bid].tolist() for bid in bands}
        ops = {
            "FDI": lambda b4, b6, b8, b11: fdi(b6, b8, b11),
            "PI": lambda b4, b6, b8, b11: pi(b4, b8),
            "NDVI": lambda b4, b6, b8, b11: ndvi(b4, b8),
            "KNDVI": lambda b4, b6, b8, b11: kndvi(b4, b8),
        }

        def bits(values):
            return np.asarray(values, dtype=np.float64).view(np.uint64)

        for index_id, op in ops.items():
            scalar = bits([op(*cell) for cell in zip(*columns.values())])
            for offset in (1, 3, 7, 13):
                sliced = {bid: a[offset:] for bid, a in arrays.items()}
                assert np.array_equal(bits(index_arrays(sliced, index_id)), scalar[offset:])
            for i in range(0, 65_536, 257):
                for cell in (
                    {bid: a[i] for bid, a in arrays.items()},            # np.float64
                    {bid: np.array(a[i]) for bid, a in arrays.items()},  # 0-d array
                    {bid: a[i:i + 1] for bid, a in arrays.items()},      # length 1
                ):
                    assert bits(index_arrays(cell, index_id)).ravel().tolist() == [scalar[i]]

    def test_worked_fdi_pixel_in_2x2(self):
        stack = stack_from_arrays(
            B6=[[0.05, 0.06], [0.07, 0.08]],
            B8=[[0.25, 0.20], [0.15, 0.10]],
            B11=[[0.02, 0.02], [0.02, 0.02]],
        )
        out = compute_index_raster(stack, "FDI")
        assert out.values[0, 0] == pytest.approx(0.2533333, abs=1e-6)
        assert out.values[0, 0] == fdi(0.05, 0.25, 0.02)

    def test_nodata_source_cell_becomes_nodata(self):
        stack = stack_from_arrays(
            B6=[[0.05, 0.05]], B8=[[math.nan, 0.25]], B11=[[0.02, 0.02]]
        )
        out = compute_index_raster(stack, "FDI")
        assert out.nodata_mask.tolist() == [[True, False]]

    def test_degenerate_denominator_becomes_nodata(self):
        stack = stack_from_arrays(B4=[[-0.2, 0.2]], B8=[[0.2, 0.2]])
        for index_id in ("NDVI", "PI", "KNDVI"):
            out = compute_index_raster(stack, index_id)
            assert out.nodata_mask.tolist() == [[True, False]]

    def test_unknown_index_rejected(self):
        with pytest.raises(UnknownBandError, match="EVI"):
            compute_index_raster(two_band_stack(), "EVI")
        with pytest.raises(UnknownBandError, match="EVI"):
            index_arrays({"B4": np.zeros((1, 1))}, "EVI")

    def test_missing_source_band_rejected(self):
        stack = stack_from_arrays(B4=[[0.1]], B8=[[0.2]])
        with pytest.raises(MissingBandError, match="B6"):
            compute_index_raster(stack, "FDI")
        with pytest.raises(MissingBandError, match="B8"):
            index_arrays({"B4": np.zeros((1, 1))}, "NDVI")

    def test_feature_columns_copies_bands_and_marks_degenerate_cells(self):
        arrays = {"B4": np.array([0.1, -0.2]), "B6": np.array([0.05, 0.05]),
                  "B8": np.array([0.3, 0.2]), "B11": np.array([0.02, 0.02])}
        X = feature_columns(arrays, MODEL_SPECS["Model1"])
        assert X.shape == (2, 6) and X.dtype == np.float64
        assert X[0].tolist() == [0.05, 0.3, 0.02, fdi(0.05, 0.3, 0.02),
                                 pi(0.1, 0.3), ndvi(0.1, 0.3)]
        assert np.isfinite(X[1, :4]).all() and np.isnan(X[1, 4:]).all()

    def test_feature_columns_names_every_absent_band(self):
        with pytest.raises(MissingBandError, match="B6, B8, B11"):
            feature_columns({"B4": np.zeros(1)}, MODEL_SPECS["Model1"])

    def test_mask_and_index_commute(self):
        rng = np.random.default_rng(7)
        bands = {
            bid: rng.uniform(0.01, 1.0, size=(6, 6))
            for bid in ("B4", "B6", "B8", "B11")
        }
        stack = stack_from_arrays(**bands)
        keep = rng.uniform(size=(6, 6)) > 0.4
        mask = MaskGrid(width=6, height=6, keep=keep)
        for index_id in ("FDI", "PI", "NDVI", "KNDVI"):
            masked_first = compute_index_raster(apply_mask(stack, mask), index_id)
            index_first = compute_index_raster(stack, index_id).values.copy()
            index_first[~keep] = math.nan
            np.testing.assert_array_equal(masked_first.values, index_first)


class TestLabelMaps:
    def test_round_trip(self, tmp_path):
        labels = LabelGrid(
            width=3, height=2, labels=np.array([[0, 1, 2], [2, 1, 0]])
        )
        path = tmp_path / "m.pgm"
        write_label_map(labels, path)
        back = read_label_map(path)
        np.testing.assert_array_equal(back.labels, labels.labels)
        assert (back.width, back.height) == (3, 2)

    def test_byte_layout(self, tmp_path):
        labels = LabelGrid(width=3, height=1, labels=np.array([[0, 2, 1]]))
        path = tmp_path / "m.pgm"
        write_label_map(labels, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 1\n255\n")
        assert raw[-3:] == bytes([0, 128, 255])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(MalformedHeaderError, match="P5"):
            read_label_map(path)

    def test_bad_dimension_tokens(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\nwide tall\n255\n\x00")
        with pytest.raises(MalformedHeaderError, match="dimensions"):
            read_label_map(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128]))
        with pytest.raises(TruncatedPayloadError, match="expected 4"):
            read_label_map(path)

    def test_unknown_byte_value(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([7]))
        with pytest.raises(MalformedHeaderError, match="7"):
            read_label_map(path)

    def test_unknown_byte_values_named_as_plain_numbers(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 1\n255\n" + bytes([200, 128, 7, 200]))
        with pytest.raises(MalformedHeaderError,
                           match=r"^m\.pgm: unknown byte values \[7, 200\]$"):
            read_label_map(path)
