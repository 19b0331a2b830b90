"""The per-layer benchmark tracer still finds every name it wraps.

``perfbench/tracer.py`` patches module and class attributes of
``repro`` by name.  A refactor that renames or deletes one of them
breaks a traced benchmark run, which the regular suite never starts.
This loads the tracer from its file, installs it, uninstalls it, and
checks that every patched attribute is the original object again.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_attributes(tracer_mod):
    """(owner, attribute) of every name ``Tracer.install`` wraps."""
    owners = []
    for module, attr, _span in (
        *tracer_mod.FUNCTION_SPANS, *tracer_mod.ITERATOR_SPANS
    ):
        owners.append((importlib.import_module(module), attr))
    for module, cls_name, attr, _span in tracer_mod.METHOD_SPANS:
        owners.append((getattr(importlib.import_module(module), cls_name), attr))
    for module in tracer_mod.BACKEND_CALLERS:
        owners.append((importlib.import_module(module), "get_backend"))
    return owners


def test_install_wraps_and_uninstall_restores_every_attribute():
    tracer_mod = _load_tracer()
    owners = _patched_attributes(tracer_mod)
    originals = [getattr(owner, attr) for owner, attr in owners]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in owners]
    finally:
        tracer.uninstall()

    for (owner, attr), original, traced in zip(owners, originals, wrapped):
        name = f"{owner.__name__}.{attr}"
        assert traced is not original, f"{name} was not wrapped"
        assert getattr(owner, attr) is original, f"{name} was not restored"
