"""Every stitkit name the benchmark workloads use must exist.

perfbench/workloads.py reaches stitkit only as ``st.<module>.<name>``,
and perfbench's own tests run outside the tier-1 suite, so without this
test a renamed or deleted name would only show when the harness runs.
The file is read as text, as the harness is not imported here.
"""

import importlib
import re
from pathlib import Path

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def test_workload_names_exist():
    used = set(re.findall(r"\bst\.(\w+)\.(\w+)", WORKLOADS.read_text()))
    assert ("kernel", "eval_mask") in used  # the pattern reads the calls
    missing = sorted(f"{layer}.{name}" for layer, name in used
                     if not hasattr(importlib.import_module(
                         f"stitkit.{layer}"), name))
    assert missing == []
