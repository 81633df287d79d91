"""Job-request validation and normalization.

A submission is a JSON object::

    {
      "kind": "simulate" | "subset" | "sweep",
      "trace": {"path": "trace.jsonl"}
             | {"generate": {"game": ..., "frames": ..., "seed": ..., "scale": ...}},
      "config": {"preset": "mainstream", "overrides": {"tex_cache_kb": 256, ...}},
      "params": {...}     # kind-specific; only "subset" takes any today
    }

Validation is collective and field-pathed: every rejected field comes
back as ``{field_path, message}`` (the service's 422 body and the CLI's
per-field error lines), derived from the same dataclass validation the
library applies — ``config.overrides`` entries are checked against
:class:`~repro.simgpu.config.GpuConfig` field by field, and ``params``
against :class:`~repro.core.pipeline.SubsettingPipeline`.

The *normalized* spec (defaults filled, keys sorted) is what the job
store persists and what the dedup key hashes, so two submissions that
mean the same work produce byte-identical canonical forms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.cluster_frame import DEFAULT_RADIUS
from repro.core.phasedetect import DEFAULT_INTERVAL_LENGTH, DEFAULT_TOLERANCE
from repro.simgpu.config import GpuConfig
from repro.synth.profiles import BIOSHOCK_SERIES
from repro.util.validation import (
    FieldErrors,
    FieldValidationError,
    build_dataclass,
    check_fraction,
    check_in,
    check_positive,
    check_type,
)

#: Work the executor knows how to run.
JOB_KINDS: Tuple[str, ...] = ("simulate", "subset", "sweep")

_DEFAULT_SUBSET_PARAMS: Dict[str, Any] = {
    "radius": DEFAULT_RADIUS,
    "interval_length": DEFAULT_INTERVAL_LENGTH,
    "tolerance": DEFAULT_TOLERANCE,
    "seed": 0,
}


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized job submission."""

    kind: str
    trace: Mapping[str, Any]
    config: Mapping[str, Any]
    params: Mapping[str, Any]
    #: SHA-256 of the trace file's bytes for path traces (pins content,
    #: not just the path); ``None`` for generate specs, whose canonical
    #: form already pins the content.
    trace_fingerprint: Optional[str] = None

    def canonical(self) -> Dict[str, Any]:
        """The JSON-safe normalized form the store persists."""
        return {
            "kind": self.kind,
            "trace": _deep_dict(self.trace),
            "config": _deep_dict(self.config),
            "params": _deep_dict(self.params),
        }

    def job_key(self) -> str:
        """Content-addressed dedup key for this submission.

        Includes :data:`~repro.runtime.keys.CACHE_FORMAT_VERSION` so a
        simulator-semantics bump separates results, exactly as it does
        for runtime artifacts.
        """
        from repro.runtime.keys import CACHE_FORMAT_VERSION

        record = {
            "version": CACHE_FORMAT_VERSION,
            "spec": self.canonical(),
            "trace_fingerprint": self.trace_fingerprint,
        }
        canonical = json.dumps(record, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def gpu_config(self) -> GpuConfig:
        """The validated :class:`GpuConfig` this spec names."""
        base = GpuConfig.preset(str(self.config["preset"]))
        overrides = dict(self.config.get("overrides", {}))
        if not overrides:
            return base
        return build_dataclass(
            GpuConfig, overrides, base=base, path="config.overrides"
        )


def _deep_dict(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _deep_dict(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_deep_dict(v) for v in value]
    return value


def _require_mapping(
    errors: FieldErrors, path: str, value: Any, allow_none: bool = True
) -> Optional[Mapping[str, Any]]:
    if value is None and allow_none:
        return {}
    if not isinstance(value, Mapping):
        errors.add(path, f"must be an object, got {type(value).__name__}")
        return None
    return value


def _validate_trace(
    errors: FieldErrors, trace: Any
) -> Tuple[Dict[str, Any], Optional[str]]:
    """Normalize the trace source; returns (spec, file fingerprint)."""
    section = _require_mapping(errors, "trace", trace, allow_none=False)
    if section is None:
        return {}, None
    has_path = "path" in section
    has_generate = "generate" in section
    unknown = sorted(set(section) - {"path", "generate"})
    for key in unknown:
        errors.add(f"trace.{key}", "unknown field (expected path or generate)")
    if has_path == has_generate:
        errors.add("trace", "provide exactly one of 'path' or 'generate'")
        return {}, None
    if has_path:
        path_value = section["path"]
        if not isinstance(path_value, str) or not path_value:
            errors.add("trace.path", "must be a non-empty string")
            return {}, None
        candidate = Path(path_value)
        if not candidate.is_file():
            errors.add("trace.path", f"no such trace file: {path_value}")
            return {}, None
        digest = hashlib.sha256(candidate.read_bytes()).hexdigest()
        return {"path": path_value}, digest
    gen = _require_mapping(
        errors, "trace.generate", section["generate"], allow_none=False
    )
    if gen is None:
        return {}, None
    spec: Dict[str, Any] = {
        "game": gen.get("game", BIOSHOCK_SERIES[0]),
        "frames": gen.get("frames"),
        "seed": gen.get("seed", 0),
        "scale": gen.get("scale", 1.0),
    }
    for key in sorted(set(gen) - set(spec)):
        errors.add(f"trace.generate.{key}", "unknown field")
    errors.collect(
        "trace.generate.game", check_in,
        "game", spec["game"], BIOSHOCK_SERIES,
    )
    if spec["frames"] is not None:
        if errors.collect(
            "trace.generate.frames", check_type, "frames", spec["frames"], int
        ):
            errors.collect(
                "trace.generate.frames", check_positive,
                "frames", spec["frames"],
            )
    errors.collect(
        "trace.generate.seed", check_type, "seed", spec["seed"], int
    )
    errors.collect(
        "trace.generate.scale", check_positive, "scale", spec["scale"]
    )
    return {"generate": spec}, None


def _validate_config(errors: FieldErrors, config: Any) -> Dict[str, Any]:
    section = _require_mapping(errors, "config", config)
    if section is None:
        return {}
    preset = section.get("preset", "mainstream")
    overrides = section.get("overrides", {})
    for key in sorted(set(section) - {"preset", "overrides"}):
        errors.add(f"config.{key}", "unknown field (expected preset, overrides)")
    preset_ok = errors.collect(
        "config.preset", check_in, "preset", preset, GpuConfig.preset_names()
    )
    overrides_map = _require_mapping(errors, "config.overrides", overrides)
    clean_overrides: Dict[str, Any] = {}
    if overrides_map:
        clean_overrides = dict(overrides_map)
        if preset_ok:
            try:
                build_dataclass(
                    GpuConfig,
                    clean_overrides,
                    base=GpuConfig.preset(str(preset)),
                    path="config.overrides",
                )
            except FieldValidationError as exc:
                errors.extend(exc)
    return {"preset": preset, "overrides": clean_overrides}


def _validate_params(
    errors: FieldErrors, kind: str, params: Any
) -> Dict[str, Any]:
    section = _require_mapping(errors, "params", params)
    if section is None:
        return {}
    if kind != "subset":
        for key in sorted(section):
            errors.add(
                f"params.{key}", f"kind {kind!r} takes no parameters"
            )
        return {}
    spec = dict(_DEFAULT_SUBSET_PARAMS)
    for key in sorted(set(section) - set(spec)):
        choices = ", ".join(sorted(spec))
        errors.add(f"params.{key}", f"unknown field (known fields: {choices})")
    spec.update({k: v for k, v in section.items() if k in spec})
    errors.collect("params.radius", check_positive, "radius", spec["radius"])
    if errors.collect(
        "params.interval_length", check_type,
        "interval_length", spec["interval_length"], int,
    ):
        errors.collect(
            "params.interval_length", check_positive,
            "interval_length", spec["interval_length"],
        )
    errors.collect(
        "params.tolerance", check_fraction, "tolerance", spec["tolerance"]
    )
    errors.collect("params.seed", check_type, "seed", spec["seed"], int)
    return spec


def validate_job_request(payload: Any) -> JobSpec:
    """Validate a raw submission payload into a :class:`JobSpec`.

    Raises :class:`~repro.util.validation.FieldValidationError` carrying
    *every* rejected field; the API layer renders it as the 422 body.
    """
    errors = FieldErrors()
    body = _require_mapping(errors, "", payload, allow_none=False)
    if body is None:
        errors.raise_if_any()
        raise AssertionError("unreachable")  # pragma: no cover
    for key in sorted(set(body) - {"kind", "trace", "config", "params"}):
        errors.add(key, "unknown field (expected kind, trace, config, params)")
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        errors.add(
            "kind",
            f"must be one of {', '.join(JOB_KINDS)}, got {kind!r}",
        )
        errors.raise_if_any()
    trace_spec, fingerprint = _validate_trace(errors, body.get("trace"))
    config_spec = _validate_config(errors, body.get("config"))
    params_spec = _validate_params(errors, str(kind), body.get("params"))
    errors.raise_if_any()
    return JobSpec(
        kind=str(kind),
        trace=trace_spec,
        config=config_spec,
        params=params_spec,
        trace_fingerprint=fingerprint,
    )
