"""The names the benchmark harness wraps and prints must exist.

perfbench's own tests run outside the tier-1 suite, so without this test
a renamed or deleted entry point would only show when the harness runs.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402
from stitkit import kernel  # noqa: E402


def test_entry_points_exist():
    missing = [f"{layer}.{name}" for layer, name, _ in spans.ENTRY_POINTS
               if not callable(getattr(
                   importlib.import_module(f"stitkit.{layer}"), name, None))]
    assert missing == []


def test_backend_name_exists():
    # perfbench/run.py prints it with the environment of a run
    assert isinstance(kernel.BACKEND_NAME, str)
