"""The benchmark tracer's patch targets all resolve in the program.

``perfbench/tracer.py`` wraps functions where their callers look them
up (``repro.core.pipeline.gsnp_counting`` and so on).  A refactor that
renames or stops importing one of those names would make ``--trace 1``
fail, or silently lose a layer's spans; this guard catches it in tier-1.
The tracer is only imported and installed, never edited.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer_mod(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _lookup(module: str, attr: str):
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    leaf = parts[-1]
    return owner.__dict__[leaf] if isinstance(owner, type) else getattr(
        owner, leaf
    )


def test_every_target_resolves(tracer_mod):
    for _, module, attr in tracer_mod.TARGETS:
        assert _lookup(module, attr) is not None, (module, attr)


def test_install_wraps_and_uninstall_restores(tracer_mod):
    before = {
        (module, attr): _lookup(module, attr)
        for _, module, attr in tracer_mod.TARGETS
    }
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for key, raw in before.items():
            assert _lookup(*key) is not raw, key
    finally:
        tracer.uninstall()
    for key, raw in before.items():
        assert _lookup(*key) is raw, key
