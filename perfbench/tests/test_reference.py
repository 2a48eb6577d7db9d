"""The reference computation does fixed work, and the probe samples it at
the ends of a pass and between operations."""

from reference import ReferenceProbe, subset_construction


def test_fixed_work():
    assert subset_construction() == 4096


def test_probe_samples():
    probe = ReferenceProbe(interval=3600.0)
    probe.start_pass()
    probe.between()  # too soon after the start: no sample
    assert len(probe.samples) == 1
    assert probe.end_pass() > 0
    assert len(probe.samples) == 2
    probe.interval = 0.0
    probe.start_pass()
    probe.between()
    probe.between()
    probe.end_pass()
    assert len(probe.samples) == 4
