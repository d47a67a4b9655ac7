"""Path complexes for graph distinguishability.

Lift simple graphs to path, clique-simplicial, or ring-cell complexes; run
WL-style color refinement over any of them; push random-weight message
passing through the same incidence structure; and benchmark failure rates on
strongly-regular-graph families.

The package exports every name in the ``__all__`` of ``chains``,
``complexes``, ``graphs``, ``network`` and ``refine``.  ``bench``, ``cli``
and ``srg`` load only when imported by name.
"""

from . import chains, complexes, graphs, network, refine

__version__ = "0.1.0"

_MODULES = (chains, complexes, graphs, network, refine)
__all__ = [name for module in _MODULES for name in module.__all__]
globals().update(
    {name: getattr(module, name) for module in _MODULES for name in module.__all__}
)
