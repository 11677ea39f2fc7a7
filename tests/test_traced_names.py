"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps the
package's public calls by name; a rename must not break it silently."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"biasrep.{layer}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                assert method in vars(getattr(module, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
