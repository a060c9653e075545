"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import perceptqa
from perceptqa.charts import sample_chart_spec
from perceptqa.render import render_chart

_pool_cache: list = []


def _grow(n: int) -> None:
    while len(_pool_cache) < n:
        spec = sample_chart_spec(len(_pool_cache))
        svg, geom = render_chart(spec)
        _pool_cache.append((spec, svg, geom))


def chart_pool(n: int):
    """First n seeded charts as (spec, geometry) pairs; cached."""
    _grow(n)
    return [(spec, geom) for spec, _, geom in _pool_cache[:n]]


def rendered_pool(n: int):
    """First n seeded charts as (spec, svg, geometry) triples; cached."""
    _grow(n)
    return _pool_cache[:n]


def src_env(**extra) -> dict:
    """This process's environment plus extra, with perceptqa's source
    importable, for running the program in a subprocess."""
    src = str(Path(perceptqa.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
