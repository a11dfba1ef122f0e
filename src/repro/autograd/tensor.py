"""The :class:`Tensor` class: numpy data + reverse-mode gradient tape.

A differentiable operation computes its output array, defines a backward
closure and hands both to :meth:`Tensor._make_child`, the one place a tape
entry is made. The tape keeps two rules:

1. An output is taped — it keeps its parents and its closure — only when
   grad is enabled and some parent requires grad. Under :func:`no_grad`,
   or when every operand is a constant or a frozen parameter, the output
   is a plain untaped tensor.
2. No closure references the tensor it is attached to.
   :meth:`Tensor.backward` runs the closures in reverse topological order
   as ``node._backward(node.grad)``: a closure receives its output
   gradient as the argument, and one that needs the output's value
   captures the array, not the tensor. A closure adds operand gradients
   into ``parent.grad``, and computes an operand's gradient only when that
   operand requires grad.

So the tape only points from children to parents and never forms a
reference cycle: a training graph is freed by reference count when its
loss goes out of scope, and an eval forward's activations as soon as the
next layer has consumed them, without waiting for Python's cyclic GC.
reprolint's ``TAPE001`` rule keeps rule 2 (``docs/CONTRACTS.md``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.context import is_grad_enabled

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: A backward closure: receives the output gradient, accumulates into parents.
Backward = Callable[[np.ndarray], None]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    numpy broadcasting prepends singleton axes and stretches size-1 axes;
    the adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _grad_buffer(grad: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A fresh float64 gradient buffer for ``like``, holding ``grad``.

    One pass over the buffer, and bitwise ``np.zeros_like(like) + grad``:
    ``-0.0 + 0.0`` is ``+0.0``, and the add broadcasts and casts to float64
    exactly like ``+=`` into zeros. The buffer keeps ``like``'s memory
    layout, as ``zeros_like`` does: a gradient's strides decide how BLAS
    reads it downstream, and so the rounding of every product it feeds.
    """
    return np.add(grad, 0.0, out=np.empty_like(like, dtype=np.float64))


def _c_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """The strides ``_grad_buffer`` gives a C-contiguous float64 buffer.

    ``flags.c_contiguous`` ignores the stride of a length-1 axis, so an
    adopted gradient must match these exactly to keep the buffer's layout.
    """
    strides = []
    step = 8
    for size in reversed(shape):
        strides.append(step)
        step *= size
    return tuple(reversed(strides))


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything :func:`numpy.asarray` accepts. Floating data is kept in its
        dtype (default ``float64`` for exact gradient checking).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":  # promote integers/bools for arithmetic
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Backward] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make_child(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        backward: Backward,
    ) -> "Tensor":
        """Wrap ``data`` as the output of ``op``: the one recording site.

        The output keeps ``parents`` and ``backward`` only when grad is
        enabled and some parent requires grad; otherwise it is untaped and
        ``backward`` is dropped with the caller's frame.
        """
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        ``fresh=True`` says that ``grad`` is a new array no one else reads
        and that it holds no -0.0: a scatter into zeros or a GEMM product.
        A first write then adopts it when it already has the buffer's
        form — float64, ``data``'s shape, C-contiguous like ``data`` — and
        is byte-equal to the copy, because ``0.0 + g`` only changes -0.0.
        Anything else, and every other producer, takes the copy.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            data = self.data
            if (
                fresh
                and grad.dtype == np.float64
                and grad.shape == data.shape
                and grad.flags.c_contiguous
                and data.flags.c_contiguous
                and grad.strides == _c_strides(grad.shape)
            ):
                self.grad = grad
            else:
                self.grad = _grad_buffer(grad, data)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (standard for scalar losses). Gradients
        accumulate into :attr:`grad` of every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape "
                    f"{self.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if self.grad is None:
            self.grad = _grad_buffer(grad, self.data)
        else:
            self.grad += grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Binary arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def _backward(gout: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gout, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(gout, other.shape))

        return self._make_child(self.data + other.data, (self, other), "add", _backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def _backward(gout: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gout, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-gout, other.shape))

        return self._make_child(self.data - other.data, (self, other), "sub", _backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def _backward(gout: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gout * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(gout * self.data, other.shape))

        return self._make_child(self.data * other.data, (self, other), "mul", _backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def _backward(gout: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gout / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-gout * self.data / (other.data**2), other.shape)
                )

        return self._make_child(self.data / other.data, (self, other), "div", _backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")

        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout * exponent * self.data ** (exponent - 1))

        return self._make_child(self.data**exponent, (self,), "pow", _backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 1-D and (optionally batched) 2-D operands."""
        other = as_tensor(other)

        # Every operand gradient but the inner product's is a GEMM product
        # (or its broadcast sum): a fresh array with no -0.0, which a first
        # write adopts.
        def _backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar grad
                if self.requires_grad:
                    self._accumulate(g * b)
                if other.requires_grad:
                    other._accumulate(g * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n)
                if self.requires_grad:
                    ga = (np.expand_dims(g, -2) @ np.swapaxes(b, -1, -2)).reshape(
                        b.shape[:-2] + a.shape
                    )
                    self._accumulate(_unbroadcast(ga, self.shape), fresh=True)
                if other.requires_grad:
                    gb = np.expand_dims(a, -1) @ np.expand_dims(g, -2)
                    other._accumulate(_unbroadcast(gb, other.shape), fresh=True)
                return
            if b.ndim == 1:  # (..., m, k) @ (k,)
                if self.requires_grad:
                    ga = np.expand_dims(g, -1) @ np.expand_dims(b, -2)
                    self._accumulate(_unbroadcast(ga, self.shape), fresh=True)
                if other.requires_grad:
                    gb = (np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1)).reshape(
                        a.shape[:-2] + b.shape
                    )
                    if gb.ndim > 1:
                        gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                    other._accumulate(_unbroadcast(gb, other.shape), fresh=True)
                return
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape), fresh=True)
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape), fresh=True)

        return self._make_child(self.data @ other.data, (self, other), "matmul", _backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        val = np.exp(self.data)

        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout * val)

        return self._make_child(val, (self,), "exp", _backward)

    def tanh(self) -> "Tensor":
        val = np.tanh(self.data)

        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout * (1.0 - val**2))

        return self._make_child(val, (self,), "tanh", _backward)

    def relu(self) -> "Tensor":
        # Single pass over the data; the backward mask (data > 0) is only
        # materialized if backward actually runs. np.maximum(x, 0) is
        # bitwise identical to x * (x > 0) for finite inputs.
        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout * (self.data > 0))

        return self._make_child(np.maximum(self.data, 0.0), (self,), "relu", _backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        def _backward(gout: np.ndarray) -> None:
            grad = gout
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make_child(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", _backward
        )

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        """Biased (population) variance, matching batch-norm's convention."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout.reshape(self.shape))

        return self._make_child(self.data.reshape(shape), (self,), "reshape", _backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])

        def _backward(gout: np.ndarray) -> None:
            self._accumulate(gout.transpose(np.argsort(axes)))

        return self._make_child(
            self.data.transpose(axes), (self,), "transpose", _backward
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        def _backward(gout: np.ndarray) -> None:
            grad = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(grad, index, gout)
            self._accumulate(grad)

        return self._make_child(self.data[index], (self,), "getitem", _backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a (non-differentiable) :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]

    def _backward(gout: np.ndarray) -> None:
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * gout.ndim
            slicer[axis] = slice(int(start), int(stop))
            tensor._accumulate(gout[tuple(slicer)])

    return Tensor._make_child(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors),
        "concat",
        _backward,
    )

