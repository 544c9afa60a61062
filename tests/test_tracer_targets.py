"""Every target of the benchmark tracer must exist in the package.

perfbench/tracer.py wraps package functions by module and qualified name; a
target that no longer resolves is reported missing and its per-layer metrics
drop out of the benchmark.  This test makes such a rename fail here instead.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module_name, qualname, _ in targets:
        # the tracer's own lookup: an attribute defined on the module or class
        owner = importlib.import_module(f"semicayley.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
