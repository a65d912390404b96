"""The replint rule set — importing this package registers every rule.

Each module houses one ``RPR`` rule; the framework's ``@register``
decorator adds it to :data:`repro.analysis.framework.REGISTRY` at import
time, so dropping a new ``rules/*.py`` file with a decorated class is
all it takes to extend the linter.
"""

from repro.analysis.rules import (  # noqa: F401 - imported for registration
    clock_discipline,
    float_equality,
    fork_safety,
    hygiene,
    no_print,
    nondet_flow,
    numpy_guard,
    ordered_iteration,
    picklable,
    resource_paths,
    shared_memory,
    surface_drift,
)
