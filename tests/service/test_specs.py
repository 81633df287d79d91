"""Request validation: field-pathed errors and canonical job keys."""

from __future__ import annotations

import pytest

from repro.core.cluster_frame import DEFAULT_RADIUS
from repro.service.specs import validate_job_request
from repro.simgpu.config import GpuConfig
from repro.util.validation import FieldValidationError

from tests.service.conftest import job_payload


def _field_paths(exc: FieldValidationError) -> list:
    return sorted(e.field_path for e in exc.errors)


def test_minimal_generate_submission_validates():
    spec = validate_job_request(job_payload())
    assert spec.kind == "simulate"
    assert spec.trace["generate"]["game"] == "bioshock1_like"
    assert spec.config["preset"] == "mainstream"
    assert spec.params == {}


def test_subset_params_get_defaults():
    spec = validate_job_request(job_payload(kind="subset"))
    assert set(spec.params) == {
        "radius", "interval_length", "tolerance", "seed"
    }


def test_subset_default_radius_is_the_clustering_default():
    spec = validate_job_request(job_payload(kind="subset"))
    assert spec.params["radius"] == DEFAULT_RADIUS


def test_unknown_kind_is_rejected_with_field_path():
    with pytest.raises(FieldValidationError) as info:
        validate_job_request({"kind": "frobnicate", "trace": {}})
    assert _field_paths(info.value) == ["kind"]


def test_every_bad_field_is_reported_at_once():
    payload = {
        "kind": "subset",
        "trace": {"generate": {"game": "quake", "frames": -3}},
        "config": {"preset": "mainstream", "overrides": {"bogus_field": 1}},
        "params": {"radius": -0.5, "nope": True},
    }
    with pytest.raises(FieldValidationError) as info:
        validate_job_request(payload)
    assert _field_paths(info.value) == [
        "config.overrides.bogus_field",
        "params.nope",
        "params.radius",
        "trace.generate.frames",
        "trace.generate.game",
    ]


def test_override_value_errors_carry_the_field_path():
    payload = job_payload(
        config={"preset": "mainstream", "overrides": {"tex_cache_kb": "big"}}
    )
    with pytest.raises(FieldValidationError) as info:
        validate_job_request(payload)
    assert _field_paths(info.value) == ["config.overrides.tex_cache_kb"]


def test_trace_requires_exactly_one_source():
    with pytest.raises(FieldValidationError) as info:
        validate_job_request({"kind": "simulate", "trace": {}})
    assert _field_paths(info.value) == ["trace"]


def test_missing_trace_path_is_a_field_error(tmp_path):
    with pytest.raises(FieldValidationError) as info:
        validate_job_request(
            {"kind": "simulate", "trace": {"path": str(tmp_path / "no.jsonl")}}
        )
    assert _field_paths(info.value) == ["trace.path"]


def test_gpu_config_applies_overrides():
    spec = validate_job_request(
        job_payload(
            config={"preset": "mainstream", "overrides": {"tex_cache_kb": 256}}
        )
    )
    config = spec.gpu_config()
    assert config.tex_cache_kb == 256
    base = GpuConfig.preset("mainstream")
    assert config.num_shader_cores == base.num_shader_cores


def test_job_key_is_submission_order_invariant():
    a = validate_job_request(
        {
            "kind": "simulate",
            "trace": {"generate": {"seed": 7, "frames": 4}},
            "config": {"preset": "mainstream", "overrides": {}},
        }
    )
    b = validate_job_request(
        {
            "config": {"overrides": {}, "preset": "mainstream"},
            "trace": {"generate": {"frames": 4, "seed": 7}},
            "kind": "simulate",
        }
    )
    assert a.job_key() == b.job_key()


def test_job_key_distinguishes_different_work():
    a = validate_job_request(job_payload(seed=1))
    b = validate_job_request(job_payload(seed=2))
    c = validate_job_request(job_payload(seed=1, kind="subset"))
    assert len({a.job_key(), b.job_key(), c.job_key()}) == 3


def test_path_trace_key_pins_file_content(tmp_path):
    from repro.gfx.traceio import save_trace_auto
    from repro.synth.generator import generate_trace

    path = tmp_path / "t.jsonl"
    save_trace_auto(generate_trace("bioshock1_like", 2, seed=1, scale=0.05), path)
    key_one = validate_job_request(
        {"kind": "simulate", "trace": {"path": str(path)}}
    ).job_key()
    save_trace_auto(generate_trace("bioshock1_like", 2, seed=9, scale=0.05), path)
    key_two = validate_job_request(
        {"kind": "simulate", "trace": {"path": str(path)}}
    ).job_key()
    assert key_one != key_two
