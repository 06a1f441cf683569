"""The benchmark's traced run wraps dispest functions by name; a renamed or
deleted one would break it, so every listed name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TARGETS


def test_every_traced_name_exists():
    for module_name, functions, classes in load_targets().values():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                assert name in vars(cls), f"{module_name}.{cls_name}.{name}"
