"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions and
methods by name and skips any name it cannot find, so a renamed or deleted
name would leave its per-layer metrics reading 0 without an error; its
counters swallow ``AttributeError``, so a changed table record would zero
their metrics the same way.  These guards read the tracer's name lists and
counters and edit nothing there."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import latticeframes as lf

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# names the tracer still lists that were deleted from the package on purpose:
# no workload calls them, so no per-layer metric read anything from them.
# Drop them here when the tracer's lists drop them
DELETED = ["lattice.lattice_points_in_box", "lattice.wrap_to_unit_cell"]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_the_package():
    tracing = _tracing()
    home = {layer: importlib.import_module(f"{tracing.PACKAGE}.{layer}")
            for layer in tracing.LAYERS}
    missing = [f"{layer}.{name}" for layer, names in tracing.FUNCTIONS.items()
               for name in names if not callable(getattr(home[layer], name, None))]
    for layer, base_name, methods in tracing.METHODS:
        base = getattr(home[layer], base_name, None)
        classes = [c for c in vars(home[layer]).values()
                   if base is not None and inspect.isclass(c) and issubclass(c, base)]
        # a method is traced where some class of the module defines it concretely
        missing += [f"{layer}.{base_name}.{meth}" for meth in methods
                    if not any(meth in c.__dict__
                               and not getattr(c.__dict__[meth], "__isabstractmethod__", False)
                               for c in classes)]
    assert missing == DELETED


def test_compute_phi_counter_reads_every_route():
    counter = _tracing().COUNTERS["periodization.compute_phi"]
    shear = lf.new_lattice([[1.0, 1.0], [0.0, 1.0]])
    cases = [(lf.Sinc(2), shear, "step"), (lf.BSpline(2, 2), shear, "dual")]
    plain = lf.Sinc(1)
    plain.indicator_box = lambda: None  # the sinc without its step route
    cases.append((plain, lf.new_lattice([[1.0]]), "direct"))
    for g, lattice, route in cases:
        table = lf.compute_phi(g, lattice, 16)
        assert table.route == route
        counts = counter((g, lattice, 16), {}, table)
        assert set(counts) == {"radius", "main_terms_points"}, g.label
        assert counts["radius"] == table.trunc_radius
