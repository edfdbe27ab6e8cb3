"""Guard of the benchmark tracer's patch targets.

``perfbench/tracing.py`` wraps names in the package's module namespaces
(``TARGETS``: caller module, attribute, metric prefix).  A rename in the
package would make the tracer fail at install time, so every target must
resolve: ``vngale.<module>.<attr>``, or for ``Class.method`` a method
defined on that class itself.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    # executed from its source text, so no bytecode is written next to it
    namespace = {"__name__": "_perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize("mod_name, attr, prefix", _targets())
def test_target_resolves(mod_name, attr, prefix):
    owner = importlib.import_module(f"vngale.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type)
        assert attr in owner.__dict__
    assert callable(getattr(owner, attr))
