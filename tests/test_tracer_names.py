"""Every layer the benchmark tracer patches still resolves in the package.

``bench/layers.py`` names functions and methods by module and attribute;
a deleted or renamed name would otherwise surface only in a traced
benchmark run.  The file is loaded by path and only read.
"""

import importlib
import runpy
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_traced_names_resolve():
    spans = runpy.run_path(str(LAYERS))["SPANS"]
    missing = []
    for name, module_name, attr in spans:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches a method in the class's own namespace
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{name}: {module_name}.{attr}")
    assert len(spans) > 0
    assert not missing, f"traced names that no longer resolve: {missing}"
