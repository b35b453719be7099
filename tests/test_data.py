"""Ingestion, synthetic generation, windowing, splitting, and scaling."""

import numpy as np
import pytest

from fedbeam.data import (
    CATEGORIES,
    CSV_HEADER,
    BeamSeries,
    Scaler,
    default_profiles,
    generate_synthetic,
    load_csv,
    render_csv,
    train_count,
    window_arrays,
)
from fedbeam.errors import ConfigurationError, IngestionError
from fedbeam.federation import build_client


def toy_series(n: int) -> BeamSeries:
    """Hand-built series with recognizable volumes for indexing checks."""
    t = np.arange(n, dtype=np.float64)
    volumes = np.stack([10.0 * t, 10.0 * t + 1.0], axis=1)
    return BeamSeries("toy", volumes, np.tile([0.4, 0.3, 0.2, 0.1], (n, 1)))


def test_window_count_743_hours():
    series = generate_synthetic(7, 743, default_profiles(1)[0])
    assert len(series) == 743
    features, targets = window_arrays(series, 5)
    assert features.shape == (738, 10)
    assert targets.shape == (738, 4)


def test_window_count_boundary():
    features, targets = window_arrays(toy_series(6), 5)
    assert len(features) == len(targets) == 1


def test_window_indexing_contract():
    features, targets = window_arrays(toy_series(8), 5)
    # Hours 0..4 interleaved as [dl_t, ul_t], oldest first.
    expected = np.array([0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0, 40.0, 41.0])
    assert np.array_equal(features[0], expected)
    assert np.array_equal(targets[0], np.array([0.4, 0.3, 0.2, 0.1]))
    # Window t starts at hour t.
    assert features[1, 0] == 10.0


def test_window_rejects_short_series():
    with pytest.raises(ConfigurationError):
        window_arrays(toy_series(5), 5)
    with pytest.raises(ConfigurationError):
        window_arrays(toy_series(10), 0)


def test_split_738_into_590_148():
    features, _ = window_arrays(generate_synthetic(7, 743, default_profiles(1)[0]), 5)
    n_train = train_count(len(features), 0.8)
    assert n_train == 590
    assert len(features) - n_train == 148


def test_split_small_case_and_partition():
    features, targets = window_arrays(toy_series(15), 5)
    n_train = train_count(len(features), 0.8)
    assert n_train == 8 and len(features) - n_train == 2
    client = build_client(toy_series(15), 5, 0.8)
    # The test windows are the ones right after the training windows.
    assert client.test_features.shape == (2, 10)
    assert np.array_equal(
        np.concatenate([client.train_targets, client.test_targets]), targets
    )


def test_split_rejects_bad_fraction_and_empty_sides():
    n = len(window_arrays(toy_series(10), 5)[0])
    with pytest.raises(ConfigurationError):
        train_count(n, 0.0)
    with pytest.raises(ConfigurationError):
        train_count(n, 1.0)
    with pytest.raises(ConfigurationError):
        train_count(n, 0.05)


def test_scaler_maps_fit_set_into_unit_interval():
    series = generate_synthetic(3, 120, default_profiles(1)[0])
    features, targets = window_arrays(series, 5)
    n_train = train_count(len(features), 0.8)
    scaled = Scaler.fit(features[:n_train]).transform(features[:n_train])
    assert scaled.min() >= 0.0
    assert scaled.max() <= 1.0
    # A client's training rows are these; its targets pass through untouched.
    client = build_client(series, 5, 0.8)
    assert np.array_equal(client.train_features, scaled)
    assert np.array_equal(client.train_targets, targets[:n_train])


def test_scaler_degenerate_column_maps_to_zero():
    features = np.array([[2.0, 5.0], [2.0, 9.0]])
    scaled = Scaler.fit(features).transform(features)
    assert scaled[0, 0] == 0.0
    assert scaled[1, 0] == 0.0
    assert scaled[1, 1] == 1.0


def test_scaler_leakage_tripwire():
    # Refitting with test data included must change the scaler whenever the
    # test range extends past the training range.
    features, _ = window_arrays(toy_series(20), 5)
    n_train = train_count(len(features), 0.8)
    scaler_train = Scaler.fit(features[:n_train])
    scaler_all = Scaler.fit(features)
    assert not np.array_equal(scaler_train.feature_max, scaler_all.feature_max)
    # Out-of-range test features may exceed 1 after scaling.
    assert scaler_train.transform(features[n_train:]).max() > 1.0
    assert build_client(toy_series(20), 5, 0.8).test_features.max() > 1.0


def test_synthetic_is_deterministic():
    profile = default_profiles(2)[1]
    a = generate_synthetic(11, 64, profile)
    b = generate_synthetic(11, 64, profile)
    assert np.array_equal(a.hourly_volumes, b.hourly_volumes)
    assert np.array_equal(a.hourly_shares, b.hourly_shares)
    c = generate_synthetic(12, 64, profile)
    assert not np.array_equal(a.hourly_volumes, c.hourly_volumes)


def test_synthetic_shares_sum_to_one():
    series = generate_synthetic(5, 200, default_profiles(1)[0])
    sums = series.hourly_shares.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    assert np.all(series.hourly_volumes > 0.0)


def test_synthetic_beams_have_distinct_means():
    profiles = default_profiles(4)
    means = [generate_synthetic(7, 743, p).hourly_volumes[:, 0].mean() for p in profiles]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(means[i] - means[j]) > 0.0


def test_csv_round_trip(tmp_path):
    series = generate_synthetic(9, 50, default_profiles(1)[0])
    path = tmp_path / "beam.csv"
    path.write_text(render_csv(series), encoding="utf-8")
    loaded = load_csv(str(path), beam_id=series.beam_id)
    assert len(loaded) == 50
    assert np.array_equal(loaded.hourly_volumes, series.hourly_volumes)
    assert np.allclose(loaded.hourly_shares, series.hourly_shares, rtol=0, atol=1e-12)


def test_csv_load_743_rows(tmp_path):
    series = generate_synthetic(7, 743, default_profiles(1)[0])
    path = tmp_path / "beam.csv"
    path.write_text(render_csv(series), encoding="utf-8")
    assert len(load_csv(str(path))) == 743


def test_csv_accepts_exact_quarter_shares(tmp_path):
    path = tmp_path / "flat.csv"
    rows = [CSV_HEADER]
    for t in range(8):
        rows.append(f"{t},5.0,2.0,0.25,0.25,0.25,0.25")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    series = load_csv(str(path))
    assert len(series) == 8
    assert np.array_equal(series.hourly_shares[0], np.full(4, 0.25))


def test_csv_rejects_bad_share_sum_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [CSV_HEADER, "0,5.0,2.0,0.25,0.25,0.25,0.25", "1,5.0,2.0,0.4,0.3,0.1,0.1"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(IngestionError) as err:
        load_csv(str(path))
    assert "line 3" in str(err.value)
    assert "0.9" in str(err.value)


def test_csv_renormalizes_near_misses(tmp_path):
    path = tmp_path / "near.csv"
    rows = [CSV_HEADER, "0,5.0,2.0,0.2503,0.2501,0.2499,0.2499"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    series = load_csv(str(path))
    assert series.hourly_shares[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("hour,down,up,a,b,c,d\n0,1,1,0.25,0.25,0.25,0.25\n", encoding="utf-8")
    with pytest.raises(IngestionError) as err:
        load_csv(str(path))
    assert "header" in str(err.value)


def test_csv_rejects_nan_and_gaps(tmp_path):
    nan_path = tmp_path / "nan.csv"
    nan_path.write_text(
        f"{CSV_HEADER}\n0,nan,2.0,0.25,0.25,0.25,0.25\n", encoding="utf-8"
    )
    with pytest.raises(IngestionError):
        load_csv(str(nan_path))

    gap_path = tmp_path / "gap.csv"
    gap_path.write_text(
        f"{CSV_HEADER}\n0,1.0,2.0,0.25,0.25,0.25,0.25\n2,1.0,2.0,0.25,0.25,0.25,0.25\n",
        encoding="utf-8",
    )
    with pytest.raises(IngestionError) as err:
        load_csv(str(gap_path))
    assert "line 3" in str(err.value)


def test_csv_rejects_negative_volume_and_short_rows(tmp_path):
    neg = tmp_path / "neg.csv"
    neg.write_text(f"{CSV_HEADER}\n0,-1.0,2.0,0.25,0.25,0.25,0.25\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(str(neg))

    short = tmp_path / "short.csv"
    short.write_text(f"{CSV_HEADER}\n0,1.0,2.0,0.25,0.25\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(str(short))

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(str(empty))

    header_only = tmp_path / "header_only.csv"
    header_only.write_text(CSV_HEADER + "\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(str(header_only))


def test_categories_order_is_stable():
    assert CATEGORIES == ("communication", "streaming", "cloud_services", "system_updates")
    assert CSV_HEADER.endswith("communication,streaming,cloud_services,system_updates")


GOOD_ROW = "5.0,2.0,0.25,0.25,0.25,0.25"


def rows_of(*cells: str) -> list[str]:
    """Data lines numbered from hour 0, each followed by the given cells."""
    return [f"{t},{c}" for t, c in enumerate(cells)]


@pytest.mark.parametrize(
    "lines, message",
    [
        (["hour,down,up,a,b,c,d", "0," + GOOD_ROW],
         "{path}: header must be exactly " + repr(CSV_HEADER) + ", got 'hour,down,up,a,b,c,d'"),
        ([], "{path}: file is empty"),
        ([CSV_HEADER], "{path}: no data rows"),
        ([CSV_HEADER, "", "  "], "{path}: no data rows"),
        ([CSV_HEADER, *rows_of(GOOD_ROW, "5.0,2.0,0.25,0.25,0.5")],
         "{path} line 3: expected 7 columns, got 6"),
        ([CSV_HEADER, "3.0," + GOOD_ROW], "{path} line 2: hour is not an integer: '3.0'"),
        ([CSV_HEADER, "0," + GOOD_ROW, "2," + GOOD_ROW],
         "{path} line 3: hour 2 breaks the 0-based consecutive sequence (expected 1)"),
        ([CSV_HEADER, *rows_of("5.0,2.0,0.25,x,0.5,0.25")],
         "{path} line 2: streaming is not a number: 'x'"),
        ([CSV_HEADER, *rows_of(GOOD_ROW, "nan,2.0,0.25,0.25,0.25,0.25")],
         "{path} line 3: downlink is not finite: 'nan'"),
        ([CSV_HEADER, *rows_of("5.0,inf,0.25,0.25,0.25,0.25")],
         "{path} line 2: uplink is not finite: 'inf'"),
        ([CSV_HEADER, *rows_of("-1.0,2.0,0.25,0.25,0.25,0.25")],
         "{path} line 2: volumes must be non-negative"),
        ([CSV_HEADER, *rows_of("5.0,2.0,1.2,0.0,0.0,0.0")],
         "{path} line 2: shares must lie in [0, 1], got [1.2, 0.0, 0.0, 0.0]"),
        ([CSV_HEADER, *rows_of(GOOD_ROW, "5.0,2.0,0.4,0.3,0.1,0.1")],
         "{path} line 3: shares sum to 0.900000, outside 1 +/- 0.001"),
        # Two faulty lines: the earlier one is reported, whatever its check.
        ([CSV_HEADER, *rows_of(GOOD_ROW, "5.0,2.0,0.4,0.3,0.1,0.1", "5.0,2.0,0.25"),
          "9," + GOOD_ROW],
         "{path} line 3: shares sum to 0.900000, outside 1 +/- 0.001"),
        # Two faults on one line: the checks run in column order.
        ([CSV_HEADER, "0," + GOOD_ROW, "5,nan,2.0,0.25,0.25,0.25,0.25"],
         "{path} line 3: hour 5 breaks the 0-based consecutive sequence (expected 1)"),
        ([CSV_HEADER, *rows_of("-1.0,2.0,x,0.25,0.25,0.25")],
         "{path} line 2: volumes must be non-negative"),
        ([CSV_HEADER, *rows_of("5.0,2.0,1.2,0.0,0.0,nan")],
         "{path} line 2: system_updates is not finite: 'nan'"),
        # A blank line keeps the numbers of the lines after it.
        ([CSV_HEADER, "0," + GOOD_ROW, "", "1,5.0,2.0,0.4,0.3,0.1,0.1"],
         "{path} line 4: shares sum to 0.900000, outside 1 +/- 0.001"),
        # "\udcff" is written as the raw byte 0xff.
        ([CSV_HEADER, *rows_of(GOOD_ROW, GOOD_ROW + "\udcff")],
         "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 134: "
         "invalid start byte"),
    ],
    ids=[
        "header", "empty", "header-only", "blank-only", "six-columns", "float-hour",
        "hour-gap", "share-not-a-number", "nan-volume", "inf-volume", "negative-volume",
        "share-above-one", "share-sum", "earlier-line-first", "hour-before-volume",
        "volume-before-share", "finite-before-range", "blank-line-numbering", "not-utf8",
    ],
)
def test_csv_rejection_messages(tmp_path, lines, message):
    path = tmp_path / "beam.csv"
    text = "\n".join(lines) + ("\n" if lines else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(IngestionError) as err:
        load_csv(str(path))
    assert str(err.value) == message.format(path=repr(str(path)))


def test_csv_accepts_python_number_spellings(tmp_path):
    path = tmp_path / "beam.csv"
    rows = rows_of(*[GOOD_ROW] * 7) + [" 7,1_000,1e3,0.25,0.25,0.25,0.25"]
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    series = load_csv(str(path))
    assert len(series) == 8
    assert series.hourly_volumes[7].tolist() == [1000.0, 1000.0]
