"""Sample tables: CSV schema, test-case assembly, splits, and profiles."""

from __future__ import annotations

import numpy as np
import pytest

from plastiscan import (
    PLASTIC,
    SynthConfig,
    WATER,
    build_test_case,
    gen_dataset,
    split,
)
from plastiscan import TestCaseSpec as CaseSpec
from plastiscan.dataset import (
    FRACTION_CATEGORIES,
    TEST_CASES,
    Sample,
    SampleTable,
    feature_matrix,
    fraction_category,
    load_samples,
    save_samples,
    spectral_profile,
)
from plastiscan.errors import (
    BadLabelError,
    ClassTooSmallError,
    DegenerateDenominatorError,
    DuplicateKeyError,
    EmptyInputError,
    InsufficientWaterPoolError,
    InvalidSampleError,
    MissingBandError,
    MissingFractionError,
    NonNumericReflectanceError,
    SchemaMismatchError,
)
from plastiscan.spectra import MODEL_SPECS, PixelSpectrum, feature_vector

from conftest import band_spec

HEADER = "site,date,row,col,lat,lon,B04,B06,B08,B11,label,plastic_fraction"

VALID_CSV = f"""{HEADER}
calabria,2019-04-24,0,0,,,0.05,0.06,0.25,0.02,plastic,56.0
calabria,2019-04-24,0,1,,,0.10,0.11,0.08,0.07,water,
mytilene,2021-06-21,,,39.1,26.5,0.04,0.05,0.21,0.03,PLASTIC,12.5
beirut,2020-11-01,3,4,,,0.09,0.10,0.07,0.06,2,
"""


def write_csv(tmp_path, text, name="samples.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_sample(site="s", date="2019-04-24", row=0, col=0, label=PLASTIC,
                fraction=50.0, **bands):
    reflectance = {"B4": 0.1, "B6": 0.11, "B8": 0.22, "B11": 0.05}
    reflectance.update(bands)
    return Sample(
        site=site,
        date=date,
        row=row,
        col=col,
        spectrum=PixelSpectrum(reflectance),
        label=label,
        plastic_fraction=fraction if label == PLASTIC else None,
    )


class TestSampleValidation:
    def test_bad_label(self):
        with pytest.raises(BadLabelError, match="1 .plastic. or 2 .water."):
            make_sample(label=3)

    def test_water_with_fraction(self):
        with pytest.raises(InvalidSampleError, match="water"):
            Sample(
                site="s", date="2019-04-24", row=0, col=0,
                spectrum=PixelSpectrum({"B4": 0.1, "B8": 0.2}),
                label=WATER, plastic_fraction=10.0,
            )

    @pytest.mark.parametrize("fraction", [-0.1, 100.1])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(InvalidSampleError, match="outside"):
            make_sample(fraction=fraction)

    def test_needs_some_location(self):
        with pytest.raises(InvalidSampleError, match="row, col.*lat, lon"):
            Sample(
                site="s", date="2019-04-24", row=None, col=None,
                spectrum=PixelSpectrum({"B4": 0.1, "B8": 0.2}),
                label=WATER,
            )

    def test_latlon_only_is_enough(self):
        s = Sample(
            site="s", date="2019-04-24", row=None, col=None, lat=39.1, lon=26.5,
            spectrum=PixelSpectrum({"B4": 0.1, "B8": 0.2}),
            label=WATER,
        )
        assert s.key() == ("s", "2019-04-24", None, None)


class TestSampleTable:
    def test_duplicate_keys_rejected(self):
        a = make_sample(row=0)
        with pytest.raises(DuplicateKeyError):
            SampleTable((a, make_sample(row=0, fraction=20.0)))

    def test_only_tables_from_rows_check_keys(self, monkeypatch, tmp_path):
        table = SampleTable(tuple(
            make_sample(site=site, row=row, label=label)
            for site, label in (("z", PLASTIC), ("a", WATER)) for row in range(3)
        ))
        calls = []
        key = Sample.key
        monkeypatch.setattr(Sample, "key", lambda sample: calls.append(sample) or key(sample))
        cut = split(table, 0.5, seed=0)
        subs = [table.only(WATER), table.canonical(), cut.train, cut.test]
        assert calls == []  # cut from a checked table: nothing to check
        assert all(SampleTable(sub.rows) == sub for sub in subs)
        assert len(calls) == sum(map(len, subs))
        with pytest.raises(DuplicateKeyError):
            SampleTable(table.rows + table.only(WATER).rows)
        path = tmp_path / "twice.csv"
        save_samples(table, path)
        path.write_text(path.read_text() + path.read_text().splitlines(True)[1])
        with pytest.raises(DuplicateKeyError):
            load_samples(path)

    def test_count_and_only(self):
        table = SampleTable((
            make_sample(row=0), make_sample(row=1, label=WATER),
            make_sample(row=2, label=WATER),
        ))
        assert table.count(PLASTIC) == 1
        assert table.count(WATER) == 2
        assert all(s.label == WATER for s in table.only(WATER))

    def test_canonical_sorts_by_site_date_row_col(self):
        table = SampleTable((
            make_sample(site="z", row=0),
            make_sample(site="a", row=5),
            make_sample(site="a", row=2),
        ))
        assert [s.site for s in table.canonical()] == ["a", "a", "z"]
        assert [s.row for s in table.canonical()] == [2, 5, 0]


class TestLoadSamples:
    def test_valid_file(self, tmp_path):
        table = load_samples(write_csv(tmp_path, VALID_CSV))
        assert len(table) == 4
        assert table.count(PLASTIC) == 2
        assert table.count(WATER) == 2
        first = table.rows[0]
        assert first.site == "calabria"
        assert first.spectrum.band("B8") == 0.25
        assert first.plastic_fraction == 56.0

    def test_labels_case_insensitive_and_numeric(self, tmp_path):
        table = load_samples(write_csv(tmp_path, VALID_CSV))
        assert table.rows[2].label == PLASTIC  # "PLASTIC"
        assert table.rows[3].label == WATER  # "2"

    def test_latlon_row(self, tmp_path):
        row = load_samples(write_csv(tmp_path, VALID_CSV)).rows[2]
        assert row.row is None and row.col is None
        assert (row.lat, row.lon) == (39.1, 26.5)
        assert row.plastic_fraction == 12.5

    def test_blank_lines_skipped(self, tmp_path):
        text = VALID_CSV.replace(
            "mytilene", "\nmytilene"
        )
        assert len(load_samples(write_csv(tmp_path, text))) == 4

    def test_missing_column_named(self, tmp_path):
        text = VALID_CSV.replace("B08,", "").replace(",0.25", "").replace(
            ",0.08", "").replace(",0.21", "").replace(",0.07,0.06", ",0.06")
        with pytest.raises(SchemaMismatchError, match="B08"):
            load_samples(write_csv(tmp_path, text))

    def test_unexpected_column_named(self, tmp_path):
        text = VALID_CSV.replace(HEADER, HEADER + ",comment")
        text = text.replace("56.0", "56.0,hi").replace("water,\n", "water,,\n")
        text = text.replace("12.5", "12.5,").replace("2,\n", "2,,\n")
        with pytest.raises(SchemaMismatchError, match="comment"):
            load_samples(write_csv(tmp_path, text))

    def test_duplicate_columns_named(self, tmp_path):
        text = "\n".join([
            HEADER + ",B04,B8A,B8A",
            "s,2019-04-24,0,0,,,0.05,0.06,0.25,0.02,plastic,56.0,0.07,0.24,0.24",
            "",
        ])
        with pytest.raises(SchemaMismatchError, match=r"duplicate column\(s\) B04, B8A$"):
            load_samples(write_csv(tmp_path, text))

    def test_extra_band_columns_accepted(self, tmp_path):
        text = "\n".join([
            HEADER + ",B02,B8A",
            "s,2019-04-24,0,0,,,0.05,0.06,0.25,0.02,plastic,56.0,0.03,0.24",
            "",
        ])
        table = load_samples(write_csv(tmp_path, text))
        spectrum = table.rows[0].spectrum
        assert spectrum.band("B2") == 0.03
        assert spectrum.band("B8A") == 0.24

    def test_nonnumeric_reflectance_names_column_and_line(self, tmp_path):
        text = VALID_CSV.replace("0.05,0.06,0.25", "0.05,oops,0.25")
        with pytest.raises(NonNumericReflectanceError, match=r"2: column B06"):
            load_samples(write_csv(tmp_path, text))

    def test_unknown_label_token(self, tmp_path):
        text = VALID_CSV.replace("plastic,56.0", "foam,56.0")
        with pytest.raises(BadLabelError, match="foam"):
            load_samples(write_csv(tmp_path, text))

    def test_field_count_mismatch(self, tmp_path):
        text = VALID_CSV.replace("beirut,2020-11-01,3,4,,,", "beirut,2020-11-01,3,4,,")
        with pytest.raises(SchemaMismatchError, match="expected 12 fields"):
            load_samples(write_csv(tmp_path, text))

    def test_bad_row_token(self, tmp_path):
        text = VALID_CSV.replace("calabria,2019-04-24,0,0", "calabria,2019-04-24,x,0")
        with pytest.raises(InvalidSampleError, match="bad row"):
            load_samples(write_csv(tmp_path, text))

    def test_duplicate_keys(self, tmp_path):
        text = VALID_CSV.replace("calabria,2019-04-24,0,1", "calabria,2019-04-24,0,0")
        with pytest.raises(DuplicateKeyError):
            load_samples(write_csv(tmp_path, text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(SchemaMismatchError, match="empty"):
            load_samples(write_csv(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyInputError, match="no sample rows"):
            load_samples(write_csv(tmp_path, HEADER + "\n"))


class TestSaveSamples:
    def test_round_trip(self, tmp_path):
        table = load_samples(write_csv(tmp_path, VALID_CSV))
        out = tmp_path / "copy.csv"
        save_samples(table, out)
        back = load_samples(out)
        assert len(back) == len(table)
        for a, b in zip(back, table):
            assert a.key() == b.key()
            assert a.label == b.label
            assert a.plastic_fraction == b.plastic_fraction
            assert (a.lat, a.lon) == (b.lat, b.lon)
            assert a.spectrum.reflectance == b.spectrum.reflectance

    def test_shared_extra_bands_written(self, tmp_path):
        table = SampleTable((
            make_sample(row=0, B2=0.03), make_sample(row=1, B2=0.04),
        ))
        out = tmp_path / "extra.csv"
        save_samples(table, out)
        assert out.read_text().splitlines()[0].endswith(",B02")
        back = load_samples(out)
        assert back.rows[0].spectrum.band("B2") == 0.03

    def test_unshared_extra_bands_omitted(self, tmp_path):
        table = SampleTable((
            make_sample(row=0, B2=0.03), make_sample(row=1),
        ))
        out = tmp_path / "partial.csv"
        save_samples(table, out)
        assert "B02" not in out.read_text().splitlines()[0]

    def test_refuses_empty_table(self, tmp_path):
        with pytest.raises(EmptyInputError):
            save_samples(SampleTable(()), tmp_path / "never.csv")


class TestCaseIds:
    @pytest.mark.parametrize("case_id", ["TC0", "TC6", "tc1", "TC"])
    def test_bad_ids(self, case_id):
        with pytest.raises(ValueError):
            CaseSpec(case_id)

    def test_multipliers(self):
        assert [c.water_multiplier for c in TEST_CASES] == [1, 2, 3, 4, 5]


class TestBuildTestCase:
    @pytest.mark.parametrize("case", TEST_CASES)
    def test_class_counts(self, plastic_pool, water_pool, case):
        for seed in (0, 1, 2):
            table = build_test_case(plastic_pool, water_pool, case, seed=seed)
            assert table.count(PLASTIC) == len(plastic_pool)
            assert table.count(WATER) == case.water_multiplier * len(plastic_pool)

    def test_all_plastic_rows_kept(self, plastic_pool, water_pool):
        table = build_test_case(plastic_pool, water_pool, CaseSpec("TC2"), seed=0)
        assert {s.key() for s in table if s.label == PLASTIC} == {
            s.key() for s in plastic_pool
        }

    def test_waters_drawn_without_replacement(self, plastic_pool, water_pool):
        table = build_test_case(plastic_pool, water_pool, CaseSpec("TC5"), seed=4)
        waters = [s.key() for s in table if s.label == WATER]
        assert len(waters) == len(set(waters))

    def test_deterministic(self, plastic_pool, water_pool):
        runs = [
            [s.key() for s in build_test_case(plastic_pool, water_pool,
                                              CaseSpec("TC3"), seed=9)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_input_order_does_not_matter(self, plastic_pool, water_pool):
        shuffled_p = SampleTable(tuple(reversed(plastic_pool.rows)))
        shuffled_w = SampleTable(tuple(reversed(water_pool.rows)))
        a = build_test_case(plastic_pool, water_pool, CaseSpec("TC2"), seed=5)
        b = build_test_case(shuffled_p, shuffled_w, CaseSpec("TC2"), seed=5)
        assert [s.key() for s in a] == [s.key() for s in b]

    def test_output_is_shuffled(self, plastic_pool, water_pool):
        table = build_test_case(plastic_pool, water_pool, CaseSpec("TC1"), seed=0)
        labels = [s.label for s in table]
        assert labels != sorted(labels)

    def test_seed_changes_water_draw(self, plastic_pool, water_pool):
        draws = {
            frozenset(
                s.key() for s in build_test_case(
                    plastic_pool, water_pool, CaseSpec("TC1"), seed=seed
                ) if s.label == WATER
            )
            for seed in range(6)
        }
        assert len(draws) > 1

    def test_insufficient_water_pool(self):
        pool = gen_dataset(SynthConfig(n_plastic=54, n_water=53, seed=0))
        with pytest.raises(InsufficientWaterPoolError, match="54"):
            build_test_case(
                pool.only(PLASTIC), pool.only(WATER), CaseSpec("TC1"), seed=0
            )

    def test_mislabelled_pool(self, plastic_pool, water_pool):
        with pytest.raises(BadLabelError):
            build_test_case(water_pool, water_pool, CaseSpec("TC1"), seed=0)
        with pytest.raises(BadLabelError):
            build_test_case(plastic_pool, plastic_pool, CaseSpec("TC1"), seed=0)

    def test_empty_plastic_pool(self, water_pool):
        with pytest.raises(EmptyInputError):
            build_test_case(SampleTable(()), water_pool, CaseSpec("TC1"), seed=0)


@pytest.fixture(scope="module")
def tc1_sized_pool():
    return gen_dataset(SynthConfig(n_plastic=54, n_water=108, seed=21))


class TestSplit:
    def test_published_counts(self, tc1_sized_pool):
        result = split(tc1_sized_pool, 0.7, seed=0)
        assert result.train.count(PLASTIC) == 38
        assert result.test.count(PLASTIC) == 16
        assert result.train.count(WATER) == 76
        assert result.test.count(WATER) == 32

    def test_every_sample_exactly_once(self, tc1_sized_pool):
        result = split(tc1_sized_pool, 0.7, seed=3)
        before = sorted(s.key() for s in tc1_sized_pool)
        after = sorted(
            [s.key() for s in result.train] + [s.key() for s in result.test]
        )
        assert after == before

    @pytest.mark.parametrize("fraction", [0.5, 0.6, 0.7, 0.8])
    def test_stratification_within_one_sample(self, tc1_sized_pool, fraction):
        result = split(tc1_sized_pool, fraction, seed=1)
        for label in (PLASTIC, WATER):
            n = tc1_sized_pool.count(label)
            assert abs(result.train.count(label) - fraction * n) <= 0.5 + 1e-9

    def test_deterministic_and_seed_sensitive(self, tc1_sized_pool):
        a = split(tc1_sized_pool, 0.7, seed=5)
        b = split(tc1_sized_pool, 0.7, seed=5)
        c = split(tc1_sized_pool, 0.7, seed=6)
        assert [s.key() for s in a.train] == [s.key() for s in b.train]
        assert {s.key() for s in a.train} != {s.key() for s in c.train}

    def test_input_order_does_not_matter(self, tc1_sized_pool):
        shuffled = SampleTable(tuple(reversed(tc1_sized_pool.rows)))
        a = split(tc1_sized_pool, 0.7, seed=2)
        b = split(shuffled, 0.7, seed=2)
        assert [s.key() for s in a.train] == [s.key() for s in b.train]
        assert [s.key() for s in a.test] == [s.key() for s in b.test]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, tc1_sized_pool, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            split(tc1_sized_pool, fraction, seed=0)

    def test_class_too_small(self):
        table = SampleTable((
            make_sample(row=0),
            make_sample(row=1, label=WATER),
            make_sample(row=2, label=WATER),
        ))
        with pytest.raises(ClassTooSmallError, match="plastic"):
            split(table, 0.7, seed=0)


class TestFeatureMatrix:
    def test_shape_and_labels(self, default_pool):
        spec = band_spec(3)
        X, y = feature_matrix(default_pool, spec)
        assert X.shape == (len(default_pool), 3)
        assert sorted(set(y.tolist())) == [PLASTIC, WATER]
        first = default_pool.rows[0]
        assert X[0, 0] == first.spectrum.band("B2")

    def test_empty_table(self):
        with pytest.raises(EmptyInputError):
            feature_matrix(SampleTable(()), band_spec(2))

    @pytest.mark.parametrize("model_id", sorted(MODEL_SPECS))
    def test_rows_bit_identical_to_feature_vector(self, default_pool, model_id):
        spec = MODEL_SPECS[model_id]
        X, y = feature_matrix(default_pool, spec)
        rows = [feature_vector(s.spectrum, spec).values for s in default_pool.rows]
        assert X.dtype == np.float64
        assert np.array_equal(X, np.array(rows, dtype=np.float64))
        assert y.tolist() == [s.label for s in default_pool.rows]

    def test_degenerate_denominator_raises(self):
        table = SampleTable((make_sample(row=0), make_sample(row=1, B4=-0.05, B8=0.05)))
        with pytest.raises(DegenerateDenominatorError):
            feature_matrix(table, MODEL_SPECS["Model4"])

    def test_missing_band_named(self):
        sample = Sample(
            site="s", date="2019-04-24", row=0, col=0, label=WATER,
            spectrum=PixelSpectrum({"B4": 0.1, "B8": 0.22, "B11": 0.05}),
        )
        with pytest.raises(MissingBandError, match=r"sample \('s', '2019-04-24', 0, 0\): .*B6"):
            feature_matrix(SampleTable((sample,)), MODEL_SPECS["Model1"])


class TestFractionCategory:
    @pytest.mark.parametrize(
        ("fraction", "category"),
        [
            (0.0, "0-10%"),
            (9.999, "0-10%"),
            (10.0, "10-20%"),  # bins close on the left
            (19.999, "10-20%"),
            (20.0, "20-30%"),
            (30.0, "30-40%"),
            (39.999, "30-40%"),
            (40.0, ">40%"),
            (56.0, ">40%"),
            (100.0, ">40%"),
        ],
    )
    def test_binning(self, fraction, category):
        assert fraction_category(fraction) == category

    @pytest.mark.parametrize("fraction", [-0.001, 100.001])
    def test_out_of_range(self, fraction):
        with pytest.raises(InvalidSampleError):
            fraction_category(fraction)

    def test_category_names(self):
        assert FRACTION_CATEGORIES == ("0-10%", "10-20%", "20-30%", "30-40%", ">40%")


class TestSpectralProfile:
    def make_table(self):
        return SampleTable((
            make_sample(row=0, fraction=56.0, B4=0.10, B8=0.30),
            make_sample(row=1, fraction=60.0, B4=0.30, B8=0.10),
            make_sample(row=2, fraction=5.0, B4=0.07, B8=0.09),
            make_sample(row=3, label=WATER),
        ))

    def test_grouped_means(self):
        profile = spectral_profile(self.make_table())
        assert profile.bands == ("B4", "B6", "B8", "B11")
        assert profile.categories == ("0-10%", ">40%")
        assert profile.counts == (1, 2)
        b4 = profile.bands.index("B4")
        b8 = profile.bands.index("B8")
        assert profile.means[0, b4] == 0.07
        assert profile.means[1, b4] == pytest.approx(0.2)
        assert profile.means[1, b8] == pytest.approx(0.2)

    def test_boundary_sample_lands_in_upper_bin(self):
        table = SampleTable((
            make_sample(row=0, fraction=10.0),
            make_sample(row=1, fraction=9.0),
        ))
        profile = spectral_profile(table)
        assert profile.categories == ("0-10%", "10-20%")
        assert profile.counts == (1, 1)

    def test_row_order_does_not_matter(self):
        table = self.make_table()
        reordered = SampleTable(tuple(reversed(table.rows)))
        a = spectral_profile(table)
        b = spectral_profile(reordered)
        assert a.categories == b.categories
        np.testing.assert_array_equal(a.means, b.means)

    def test_custom_bands(self):
        profile = spectral_profile(self.make_table(), bands=("B8", "B4"))
        assert profile.bands == ("B8", "B4")
        assert profile.means.shape == (2, 2)

    def test_water_only_table(self):
        with pytest.raises(EmptyInputError, match="plastic"):
            spectral_profile(SampleTable((make_sample(row=0, label=WATER),)))

    def test_missing_fraction(self):
        table = SampleTable((make_sample(row=0, fraction=None),))
        with pytest.raises(MissingFractionError):
            spectral_profile(table)
