"""Default-duplication regression: one registry default, every consumer.

``BootstrapConfig`` and the hand-counted schedule layer once held
independent literal copies of the same defaults (and drifted).  Both now
resolve through :func:`repro.tuning.knob_default`, which these tests
prove by overriding a default and watching *all* consumers move
together — a reintroduced literal copy fails here immediately.
"""

from repro.ckks.bootstrap import BootstrapConfig
from repro.ckks.params import ParameterSets
from repro.tuning import build_pipeline, knob_default, overriding_default
from repro.workloads.bootstrap_workload import (
    bootstrap_schedule,
    eval_mod_schedule,
)
from repro.workloads.recorded import RECORDED_BOOT_CONFIG, _recorded_boot_config


def _item_counts(schedule):
    return [(i.op, i.level, i.count, i.discount) for i in schedule.items]


def test_bootstrap_config_and_schedule_share_fuse_default():
    """Override ``boot.fuse`` once: the dataclass default, the
    hand-counted schedule and the built pipeline all move."""
    params = ParameterSets.boot()
    with overriding_default("boot.fft_factored", True), \
            overriding_default("boot.fuse", 4):
        assert BootstrapConfig().fuse == 4
        assert _item_counts(bootstrap_schedule(params)) == _item_counts(
            bootstrap_schedule(params, fft_factored=True, fuse=4)
        )
        assert build_pipeline().boot_config.fuse == 4
    # Scoped: everything snaps back after the context exits.
    assert BootstrapConfig().fuse == 1
    assert _item_counts(bootstrap_schedule(params)) == _item_counts(
        bootstrap_schedule(params, fft_factored=False, fuse=1)
    )


def test_sine_degree_default_single_source():
    with overriding_default("boot.sine_degree", 127):
        assert BootstrapConfig().sine_degree == 127
        assert _item_counts(eval_mod_schedule(10)) == _item_counts(
            eval_mod_schedule(10, degree=127)
        )


def test_schedule_defaults_move_with_registry():
    """A default changed in the registry changes the *priced* schedule —
    no call site holds a stale literal."""
    params = ParameterSets.boot()
    baseline = _item_counts(bootstrap_schedule(params))
    with overriding_default("boot.fft_factored", True):
        factored = _item_counts(bootstrap_schedule(params))
    assert factored != baseline
    assert factored == _item_counts(
        bootstrap_schedule(params, fft_factored=True)
    )


def test_recorded_boot_config_is_registry_view():
    """The calibrated recording dict is the ``recorded.*`` defaults —
    not an independent copy that could drift."""
    assert RECORDED_BOOT_CONFIG == {
        "proxy_log2n": knob_default("recorded.proxy_log2n"),
        "fuse": knob_default("recorded.fuse"),
    }
    with overriding_default("recorded.fuse", 2):
        assert _recorded_boot_config()["fuse"] == 2


def test_bootstrap_config_fields_track_registry():
    for field_name, knob_name in (
        ("sine_degree", "boot.sine_degree"),
        ("eval_range", "boot.eval_range"),
        ("bsgs", "boot.bsgs"),
        ("fft_factored", "boot.fft_factored"),
        ("fuse", "boot.fuse"),
    ):
        assert getattr(BootstrapConfig(), field_name) == \
            knob_default(knob_name)
