"""Deterministic random-number helpers.

All randomness in the library flows through explicit integer seeds.  A
top-level seed is *derived* into per-component seeds with a stable hash so
that, for example, regenerating only frame 17 of a synthetic trace yields
exactly the bytes it had inside a full-trace generation.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEED_MODULUS = 2**63 - 1


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a path of components.

    The derivation is a SHA-256 over the textual path, so it is stable
    across processes, platforms, and Python versions (unlike ``hash()``).

    >>> derive_seed(1, "frame", 3) == derive_seed(1, "frame", 3)
    True
    >>> derive_seed(1, "frame", 3) != derive_seed(1, "frame", 4)
    True
    """
    if not isinstance(base_seed, int):
        raise TypeError(f"base_seed must be int, got {type(base_seed).__name__}")
    text = repr((base_seed,) + tuple(str(c) for c in components))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def make_rng(base_seed: int, *components: object) -> np.random.Generator:
    """Return a numpy ``Generator`` seeded from a derived seed."""
    return np.random.default_rng(derive_seed(base_seed, *components))


def stable_hash(*components: object) -> int:
    """A process-stable 63-bit hash of the given components.

    Used for deterministic pseudo-random perturbations keyed by identity
    (e.g. a per-draw-call 'unmodeled micro-architecture effect') without
    consuming any RNG stream state.
    """
    text = repr(tuple(str(c) for c in components))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def stable_unit(*components: object) -> float:
    """A deterministic float in [0, 1) keyed by the given components."""
    return stable_hash(*components) / float(_SEED_MODULUS)
