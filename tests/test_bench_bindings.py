"""Every weylkit name the traced benchmark run wraps still exists.

``bench/spans.py`` wraps functions by (module, attribute) and methods and
caches by reference; a rename in ``weylkit`` would break only the traced
run, so this loads that file unchanged and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # binds the METHODS and CACHES entries
    return module


def test_every_wrapped_function_resolves():
    spans = load_spans()
    names = [(module, attr) for _, module, attr, _ in spans.SPANS]
    names += [(module, attr) for _, module, attr in spans.COUNTERS]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_wrapped_method_and_cache_resolves():
    spans = load_spans()
    assert all(callable(cls.__dict__[method]) for _, cls, method, _ in spans.METHODS)
    assert all(callable(fn.cache_info) for _, fn in spans.CACHES)
