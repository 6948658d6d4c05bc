"""Named parameter storage.

Parameters live in an ordered map from dotted names ("stage4.sfm0.h.weight")
to leaf tensors.  Batch-norm running statistics are kept in the same map so
they persist with the weights, but they are flagged as buffers: they are
not counted as trainable parameters and receive no gradients.  Every
value that enters a store, by ``add`` or ``set_data``, must be finite.

Each block declares its tensors once, in one layout function that calls
``weight``/``zeros``/``ones`` on a parameter source: an
:class:`Initializer` creates each tensor as it is declared, a
:class:`ParamReader` returns the stored one.  A linear
(:func:`linear_params`) and a norm (:func:`norm_params`) are each one
group: a ``(weight, bias)`` or ``(gain, bias)`` pair, held in one field of
the block's parameter dataclass.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpec, ShapeMismatch
from .tape import Tensor

_BUFFER_SUFFIXES = (".running_mean", ".running_var")


def is_buffer_name(name: str) -> bool:
    return name.endswith(_BUFFER_SUFFIXES)


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InvalidSpec(f"{name}: non-finite values")
    return arr


class ParamStore:
    """Ordered map from dotted name to a parameter tensor."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = self._entries[name] = Tensor(_finite(name, np.asarray(value)))
        return t

    def tensor(self, name: str) -> Tensor:
        return self._entries[name]

    def data(self, name: str) -> np.ndarray:
        return self._entries[name].data

    def set_data(self, name: str, value: np.ndarray) -> None:
        """Replace the payload of an entry in place, keeping the tensor
        identity (uid).  Weight loading assigns through it; the value must
        have the entry's shape (``ShapeMismatch``) and be finite
        (``InvalidSpec``), each error naming the tensor."""
        t = self._entries[name]
        arr = np.asarray(value, dtype=t.data.dtype)
        if arr.shape != t.data.shape:
            raise ShapeMismatch(
                f"{name}: cannot assign shape {arr.shape} to {t.data.shape}"
            )
        t.data = _finite(name, arr)

    def items(self):
        return self._entries.items()

    def param_names(self) -> list[str]:
        """Trainable entries only (buffers excluded)."""
        return [n for n in self._entries if not is_buffer_name(n)]

    def scalar_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(self._entries[n].data.size for n in self.param_names())

    def as_dtype(self, dtype) -> "ParamStore":
        """A parallel store with every payload cast to ``dtype``: the one
        float64 route, as a pass runs in its store's dtype.  Tensor
        identities are fresh, so gradients key against the view's tensors."""
        view = ParamStore()
        for name, t in self._entries.items():
            view.add(name, t.data.astype(dtype))
        return view


class Initializer:
    """Deterministic float32 parameter creation.

    Weights draw from a centered uniform distribution with bound
    ``1/sqrt(fan-in)``, where the fan-in is the product of all dims of the
    shape but the last; biases and norm shifts start at zero, norm gains at
    one.  A single seeded generator is consumed in insertion order, so a
    given config and seed always produce identical parameters.
    """

    def __init__(self, store: ParamStore, seed: int):
        self.store = store
        self.rng = np.random.default_rng(seed)

    def weight(self, name: str, shape: tuple[int, ...]) -> Tensor:
        bound = 1.0 / np.sqrt(math.prod(shape[:-1]))
        return self._add(name, shape, lambda: self.rng.uniform(-bound, bound, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._add(name, shape, lambda: np.zeros(shape, dtype=np.float32))

    def ones(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._add(name, shape, lambda: np.ones(shape, dtype=np.float32))

    def _add(self, name: str, shape: tuple[int, ...], make) -> Tensor:
        """Store ``make()`` under ``name``; InvalidSpec if numpy cannot allocate it."""
        try:
            data = make().astype(np.float32, copy=False)
        except (ValueError, MemoryError) as exc:
            raise InvalidSpec(f"{name}: cannot allocate shape {tuple(shape)}") from exc
        return self.store.add(name, data)


class LayoutTemplate(Initializer):
    """An :class:`Initializer` that draws nothing: float32 weights start at
    zero like biases.  It declares a layout's names and shapes cheaply, for
    a store whose values are loaded afterwards."""

    def __init__(self, store: ParamStore):
        self.store = store

    def weight(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self.zeros(name, shape)


class ParamReader:
    """Reads a layout back from a store: the calls of :class:`Initializer`,
    returning the stored tensor after checking that it has the declared
    shape (``ShapeMismatch`` naming the tensor otherwise)."""

    def __init__(self, store: ParamStore):
        self.store = store

    def _read(self, name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in self.store:
            raise ShapeMismatch(f"{name}: missing from the store (layout shape {shape})")
        t = self.store.tensor(name)
        if t.data.shape != tuple(shape):
            raise ShapeMismatch(f"{name}: stored shape {t.data.shape} != layout shape {shape}")
        return t

    weight = zeros = ones = _read


# what a layout function declares its tensors on
ParamSource = Initializer | ParamReader
# one group: a linear's (weight, bias) or a norm's (gain, bias)
ParamPair = tuple[Tensor, Tensor]


def linear_params(p: ParamSource, prefix: str, c_in: int, c_out: int) -> ParamPair:
    """Layout of a ``c_in -> c_out`` linear: its weight, then its zero bias."""
    return p.weight(f"{prefix}.weight", (c_in, c_out)), p.zeros(f"{prefix}.bias", (c_out,))


def norm_params(p: ParamSource, prefix: str, c: int) -> ParamPair:
    """Layout of a norm over ``c`` channels: its unit gain, then its zero bias."""
    return p.ones(f"{prefix}.gain", (c,)), p.zeros(f"{prefix}.bias", (c,))
