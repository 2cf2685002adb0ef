"""The host yardstick samples at most once per gap and scales to reference speed."""

import yardstick


def test_samples_are_spaced_and_scale_to_reference_speed():
    stick = yardstick.Yardstick()
    stick.sample()
    stick.sample()
    assert len(stick.samples) == 1
    stick.samples = [5.0, yardstick.REFERENCE_MS * 2, 40.0]
    assert stick.median_ms() == yardstick.REFERENCE_MS * 2
    assert stick.scale() == 0.5
