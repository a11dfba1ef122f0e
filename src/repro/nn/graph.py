"""The canonical module-graph walk: one traversal, one layer ordering.

Every consumer that needs "the model's layers, in order" — the variation
injector, ``LayerMap`` index resolution, ``analogize``'s in-place
replacement, compensation planning, Lipschitz estimation, the protection
baselines, per-layer sweeps and the crossbar cost model — must agree on a
single ordering, or "layer i" means different things in different
subsystems. Historically each of those call sites walked
``Module.named_modules`` (or a local variant) independently; this module
is now the only place the traversal contract lives.

The contract:

- :func:`module_walk` is a deterministic pre-order walk over the
  registration tree, yielding ``(qualified-name, module)`` pairs with the
  root first (name ``""``). Order is registration order — the order
  ``__init__`` assigned submodules — which the structural fan-in module
  ``Residual`` keeps equal to forward execution order by registering its
  branches in evaluation order. That is what makes
  the ordering well defined on branch-carrying graphs, not just chains.
- Subtrees rooted at a ``digital = True`` module are skipped *entirely*
  (not just the flagged module): the flag marks variation-free digital
  circuitry, and anything inside a digital block is digital too. Pass
  ``into_digital=True`` to walk inside one (the cost model does, to
  charge digital MACs).
- :func:`weighted_layers` filters the walk down to modules owning a
  crossbar-mapped ``weight`` parameter — the paper's "layer i" indexing
  that Fig. 9 sweeps, candidate selection, compensation placement and
  per-layer variation specs all index into.

No consumer may re-derive ordering from ``named_modules`` for these
purposes; import from here (``repro.variation.injector`` re-exports
:func:`weighted_layers` for backwards compatibility).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.nn.module import Module


def _is_digital(module: Module) -> bool:
    return bool(getattr(module, "digital", False))


def module_walk(
    root: Module, *, into_digital: bool = False
) -> Iterator[Tuple[str, Module]]:
    """Deterministic pre-order walk over ``root``'s registration tree.

    Yields ``(qualified-name, module)`` pairs, the root first under the
    name ``""``. With ``into_digital=False`` (the default), subtrees
    rooted at a ``digital = True`` module are skipped entirely — including
    the flagged module itself — so the walk sees exactly the analog
    (variation-bearing) part of the graph.
    """
    if not into_digital and _is_digital(root):
        return
    yield from _walk("", root, into_digital)


def _walk(
    prefix: str, module: Module, into_digital: bool
) -> Iterator[Tuple[str, Module]]:
    # Module-level, not a closure: a self-recursive nested function is a
    # reference cycle, left for the cyclic GC on every walk.
    yield prefix, module
    for name, child in module._modules.items():
        if not into_digital and _is_digital(child):
            continue
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from _walk(child_prefix, child, into_digital)


def weighted_layers(module: Module) -> List[Tuple[str, Module]]:
    """Ordered (name, module) list of layers owning a crossbar-mapped weight.

    This ordering defines the paper's "layer i" indexing: Fig. 9's sweep,
    candidate selection, compensation placement, ``LayerMap`` resolution
    and ``analogize`` seeding all index into it. Digital (compensation)
    subtrees are excluded; ordering is the :func:`module_walk` contract,
    so it is identical in every subsystem, on chains and on
    branch-carrying graphs alike.
    """
    return [
        (name, sub)
        for name, sub in module_walk(module)
        if "weight" in sub._parameters
    ]


def digital_subtrees(module: Module) -> List[Tuple[str, Module]]:
    """The maximal ``digital = True`` subtree roots, in walk order.

    Each entry is the outermost digital module on its path from the root:
    nested digital flags inside an already-digital subtree do not produce
    extra entries, so iterating these and then walking inside each (via
    :func:`weighted_layers_digital`) visits every digital layer exactly
    once.
    """
    out: List[Tuple[str, Module]] = []
    _scan("", module, out)
    return out


def _scan(prefix: str, sub: Module, out: List[Tuple[str, Module]]) -> None:
    if _is_digital(sub):
        out.append((prefix, sub))
        return
    for name, child in sub._modules.items():
        _scan(f"{prefix}.{name}" if prefix else name, child, out)


def weighted_layers_digital(module: Module) -> List[Tuple[str, Module]]:
    """Weighted layers *inside* a digital subtree.

    The injector-facing :func:`weighted_layers` skips digital subtrees by
    contract, so the cost model uses this variant to enumerate the layers
    it charges at digital-MAC energy. Same walk, digital flags ignored.
    """
    return [
        (name, sub)
        for name, sub in module_walk(module, into_digital=True)
        if "weight" in sub._parameters
    ]
