"""Every library name the benchmark's tracer rebinds must exist.

``perfbench/spans.py`` wraps module globals and methods by name; a rename
or removal in the library would make every traced benchmark op fail with
a KeyError, so tier-1 checks the names here.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_resolves():
    wrapped = [(owner, attr) for owner, attr, *_ in spans.SPANNED + spans.COUNTED]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in wrapped
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr])
    ]
    assert wrapped and not missing
