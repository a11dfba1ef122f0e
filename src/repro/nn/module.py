"""``Module`` / ``Parameter``: the stateful layer tree.

The variation-injection machinery (``repro.variation``) and the crossbar
mapper (``repro.hardware``) both walk module trees via
:meth:`Module.named_parameters`, perturb ``Parameter.data`` in place, and
restore it afterwards — so parameters must be stable, named objects rather
than bare arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, Tuple

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` registered as trainable state of a :class:`Module`.

    ``frozen`` supports CorrectNet's compensation training, where original
    layer weights stay fixed while generator/compensator weights train:
    optimizers skip frozen parameters and ``requires_grad`` is dropped.
    """

    __slots__ = ("frozen",)

    def __init__(self, data) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)
        self.frozen = False

    def freeze(self) -> None:
        self.frozen = True
        self.requires_grad = False
        self.grad = None

    def unfreeze(self) -> None:
        self.frozen = False
        self.requires_grad = True


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__``; attribute assignment auto-registers them, enabling
    recursive traversal, state dicts and train/eval mode propagation.
    """

    # Registered state (populated in __init__ via object.__setattr__; the
    # annotations let strictly-typed consumers like repro.nn.graph walk
    # the registration tree without casts).
    _parameters: "OrderedDict[str, Parameter]"
    _modules: "OrderedDict[str, Module]"
    training: bool

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's overhead denominator)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Freeze every parameter in this subtree (used on original layers
        during compensation training)."""
        for param in self.parameters():
            param.freeze()
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.unfreeze()
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for key, value in state.items():
            if key not in params:
                raise KeyError(f"unexpected key in state dict: {key}")
            if params[key].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: model {params[key].shape}, "
                    f"state {value.shape}"
                )
            params[key].data = np.asarray(value, dtype=np.float64).copy()

    def save(self, path: str) -> None:
        """Persist the parameters to an ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files})

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        extra = self.extra_repr()
        if not self._modules:
            return f"{type(self).__name__}({extra})"
        lines = [f"{type(self).__name__}({extra}"]
        for name, module in self._modules.items():
            body = "\n    ".join(repr(module).split("\n"))
            lines.append(f"  ({name}): {body}")
        lines.append(")")
        return "\n".join(lines)
