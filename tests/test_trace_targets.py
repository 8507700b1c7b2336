"""The span targets of perfbench/spans.py name live objects.

The tracer looks each target up by module and attribute name, so a rename in
monodyn would otherwise surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_span_targets_resolve():
    for name, modname, attr, clsname in _targets():
        mod = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(mod, attr, None)), name
        else:
            assert attr in vars(getattr(mod, clsname)), name


def test_scan_binds_the_traced_functions():
    # the tracer wraps these through monodyn.scan's own bindings
    import monodyn.galois as galois
    import monodyn.preper as preper
    import monodyn.scan as scan
    assert scan.decompose_binomial_roots is galois.decompose_binomial_roots
    assert scan.minimal_polynomial is preper.minimal_polynomial


def test_names_read_outside_targets_exist():
    # perfbench reads these directly: twin_class sorts minimal-polynomial
    # spans by class kind, and the caches give hit counts and sizes
    import monodyn.galois as galois
    import monodyn.preper as preper
    assert callable(galois.twin_class)
    assert isinstance(galois._decompose_cache, dict)
    assert isinstance(preper._minpoly_cache, dict)
    assert galois.unit_group_generators.cache_info().currsize >= 0
