"""Sparse tensor representation, coordinate indexing, and rulebooks.

A sparse tensor is a list of active voxel coordinates plus an N x C feature
block.  Convolutions are executed from a rulebook: for every kernel offset,
the list of (input_row, output_row) pairs that offset connects.  Rulebooks
fix the iteration order of every reduction, which is what makes the whole
engine bitwise deterministic.

Coordinate arrays are int64 of shape (N, 1 + D) with columns
``[batch, i0, ..., i_{D-1}]``.  A :class:`Geometry` owns one read-only
coordinate array together with everything derived from it (its index and
its rulebooks), and every tensor on that active set shares it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DuplicateCoordinate, InvalidSpec, ShapeMismatch
from .tape import Tensor


class VoxelCoord(NamedTuple):
    """One active grid cell: batch index plus integer grid indices."""

    batch: int
    ijk: tuple[int, ...]


def check_kernels(kernel: tuple[int, ...], dilation: tuple[int, ...]) -> None:
    """Raise InvalidSpec unless every kernel size is odd and positive and
    every dilation positive."""
    if any(k < 1 or k % 2 == 0 for k in kernel):
        raise InvalidSpec(f"kernel sizes must be odd and positive: {kernel}")
    if any(d < 1 for d in dilation):
        raise InvalidSpec(f"dilations must be positive: {dilation}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel, dilation, stride and padding of one sparse convolution."""

    kernel: tuple[int, ...]
    dilation: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]

    def __post_init__(self):
        dims = len(self.kernel)
        for name in ("dilation", "stride", "padding"):
            if len(getattr(self, name)) != dims:
                raise InvalidSpec(f"{name} must have {dims} entries")
        check_kernels(self.kernel, self.dilation)
        if any(s < 1 for s in self.stride):
            raise InvalidSpec(f"strides must be positive: {self.stride}")
        if any(p < 0 for p in self.padding):
            raise InvalidSpec(f"padding must be non-negative: {self.padding}")

    @property
    def dims(self) -> int:
        return len(self.kernel)

    @property
    def volume(self) -> int:
        return math.prod(self.kernel)

    @property
    def is_unit_stride(self) -> bool:
        return all(s == 1 for s in self.stride)

    @classmethod
    def same(cls, kernel, dilation=None, dims: int | None = None) -> "KernelSpec":
        """Unit-stride spec with same-size padding ``dilation*(kernel-1)/2``."""
        if isinstance(kernel, int):
            if dims is None:
                raise InvalidSpec("dims required when kernel is a scalar")
            kernel = (kernel,) * dims
        kernel = tuple(int(k) for k in kernel)
        if dilation is None:
            dilation = (1,) * len(kernel)
        elif isinstance(dilation, int):
            dilation = (dilation,) * len(kernel)
        dilation = tuple(int(d) for d in dilation)
        padding = tuple(d * (k - 1) // 2 for k, d in zip(kernel, dilation))
        return cls(kernel, dilation, (1,) * len(kernel), padding)

    @classmethod
    def downsample(cls, dims: int) -> "KernelSpec":
        """Kernel 3, stride 2, padding 1 in every dim."""
        return cls((3,) * dims, (1,) * dims, (2,) * dims, (1,) * dims)


def centered_offsets(kernel: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Kernel offsets relative to the center, row-major over the volume."""
    ranges = [range(-(k - 1) // 2, (k - 1) // 2 + 1) for k in kernel]
    return list(itertools.product(*ranges))


def raw_offsets(kernel: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Kernel offsets as raw indices 0..k-1, row-major over the volume."""
    return list(itertools.product(*(range(k) for k in kernel)))


def check_key_space(n_batch: int, spatial_shape: tuple[int, ...]) -> None:
    """Raise InvalidSpec unless keys ``0 .. n_batch * prod(shape) - 1`` fit int64."""
    cells = n_batch * math.prod(spatial_shape)
    if cells > 2**63:
        raise InvalidSpec(f"{n_batch} batch(es) of a {tuple(spatial_shape)} grid hold "
                          f"{cells} cells, more than int64 keys can address (2**63)")


def flat_keys(coords: np.ndarray, spatial_shape: tuple[int, ...]) -> np.ndarray:
    """Row-major int64 key of each ``[batch, i0, ...]`` row.

    For rows inside a grid that passes :func:`check_key_space`, key order
    is lexicographic (batch, ijk) order, so sorting keys sorts coordinates.
    """
    keys = coords[:, 0].astype(np.int64)
    for d, extent in enumerate(spatial_shape):
        keys = keys * extent + coords[:, 1 + d]
    return keys


def _unflatten(keys: np.ndarray, spatial_shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`flat_keys`."""
    coords = np.empty((keys.size, 1 + len(spatial_shape)), dtype=np.int64)
    for d in reversed(range(len(spatial_shape))):
        keys, coords[:, 1 + d] = np.divmod(keys, spatial_shape[d])
    coords[:, 0] = keys
    return coords


def unique_coords(
    coords: np.ndarray, spatial_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(coords, axis=0, return_inverse=True)`` on in-grid rows,
    computed on flat keys: sorted distinct rows plus each row's index."""
    keys, inverse = np.unique(flat_keys(coords, spatial_shape), return_inverse=True)
    return _unflatten(keys, spatial_shape), inverse.reshape(-1)


class CoordIndex:
    """Bijection from (batch, ijk) coordinates onto row indices [0, N).

    Backed by a sorted flat-key array for vectorized lookups; absent
    coordinates report -1.
    """

    def __init__(self, coords: np.ndarray, spatial_shape: tuple[int, ...]):
        self.spatial_shape = tuple(spatial_shape)
        keys = flat_keys(coords, self.spatial_shape)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if sorted_keys.size > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
            dup_pos = int(np.nonzero(sorted_keys[1:] == sorted_keys[:-1])[0][0])
            row = order[dup_pos + 1]
            raise DuplicateCoordinate(
                f"coordinate {tuple(coords[row])} appears more than once"
            )
        self._sorted_keys = sorted_keys
        self._rows = order.astype(np.int64)
        # the largest key's batch: a query above it is absent, and its key could wrap
        self._max_batch = int(sorted_keys[-1]) // math.prod(spatial_shape) if keys.size else -1

    @property
    def n(self) -> int:
        return self._rows.size

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Row index per flat key (see :func:`flat_keys`); -1 where absent."""
        if self.n == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._sorted_keys, keys)
        np.minimum(pos, self.n - 1, out=pos)
        return np.where(self._sorted_keys[pos] == keys, self._rows[pos], -1)

    def lookup(self, coord) -> int | None:
        """Row of one ``(batch, *ijk)`` coordinate; None where absent or out of grid."""
        if isinstance(coord, VoxelCoord):
            coord = (coord.batch, *coord.ijk)
        batch, *ijk = coord
        if not (0 <= batch <= self._max_batch
                and all(0 <= i < s for i, s in zip(ijk, self.spatial_shape))):
            return None
        hit = int(self.find(flat_keys(np.array([coord], dtype=np.int64), self.spatial_shape))[0])
        return None if hit < 0 else hit


class Geometry:
    """One active set on one grid, shared by every tensor that lives on it.

    ``coords`` is read-only: an input array is kept only when it and every
    array it views are read-only; any other input is copied once and the
    copy frozen, so nothing derived from the coordinates can go stale.
    The coordinate index is built here, so a repeated coordinate raises
    DuplicateCoordinate when the geometry is made, and a grid too large for
    int64 keys (see :func:`check_key_space`) raises InvalidSpec.  The
    rulebook cache (see :meth:`rulebook`) lives exactly as long as the
    geometry, keyed by ``KernelSpec`` for submanifold rulebooks and by
    ``(KernelSpec, out_shape)`` for regular ones.
    """

    def __init__(self, coords, spatial_shape: tuple[int, ...]):
        self.spatial_shape = tuple(int(s) for s in spatial_shape)
        coords = np.ascontiguousarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 1 + len(self.spatial_shape):
            raise ShapeMismatch(
                f"coords shape {coords.shape} does not match spatial rank "
                f"{len(self.spatial_shape)}"
            )
        check_key_space(int(coords[:, 0].max(initial=0)) + 1, self.spatial_shape)
        if coords.shape[0]:
            if coords[:, 0].min(initial=0) < 0:
                raise InvalidSpec("batch indices must be non-negative")
            lo = coords[:, 1:].min(axis=0)
            hi = coords[:, 1:].max(axis=0)
            if (lo < 0).any() or (hi >= np.asarray(self.spatial_shape)).any():
                raise InvalidSpec("grid indices out of the declared spatial shape")
        if not _frozen(coords):
            coords = coords.copy()
            coords.flags.writeable = False
        self.coords = coords
        self.index = CoordIndex(coords, self.spatial_shape)
        self._rulebooks: dict = {}

    @property
    def n_active(self) -> int:
        return self.coords.shape[0]

    @property
    def dims(self) -> int:
        return len(self.spatial_shape)

    def rulebook(self, key, build: Callable[[], "Rulebook"]) -> "Rulebook":
        """The cached rulebook under ``key``; ``build()`` makes it on a miss."""
        rb = self._rulebooks.get(key)
        if rb is None:
            rb = self._rulebooks[key] = build()
        return rb


def _frozen(a: np.ndarray) -> bool:
    """Whether no writable array shares ``a``'s memory: ``a`` and every
    array it views are read-only, down to one that owns its data."""
    while a is not None:
        if not isinstance(a, np.ndarray) or a.flags.writeable:
            return False
        a = a.base
    return True


class SparseTensor:
    """Feature rows on a :class:`Geometry` (coordinates plus grid).

    ``SparseTensor(coords, features, spatial_shape)`` makes a new geometry;
    ``SparseTensor(geometry, features)`` puts features on an existing one
    without re-validating its coordinates.  ``features`` is a tape-aware
    tensor so layers can thread gradients; a plain array is accepted and
    wrapped.  Features must be finite.
    """

    def __init__(self, coords, features, spatial_shape: tuple[int, ...] | None = None):
        if isinstance(coords, Geometry):
            self.geometry = coords
        else:
            self.geometry = Geometry(coords, spatial_shape)
        if not isinstance(features, Tensor):
            features = Tensor(np.asarray(features))
        if features.data.ndim != 2 or features.data.shape[0] != self.geometry.n_active:
            raise ShapeMismatch(
                f"features rows {features.data.shape} != coords rows "
                f"{self.geometry.n_active}"
            )
        if not np.all(np.isfinite(features.data)):
            raise InvalidSpec("features must be finite")
        self.features = features

    @property
    def coords(self) -> np.ndarray:
        return self.geometry.coords

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.geometry.spatial_shape

    @property
    def n_active(self) -> int:
        return self.geometry.n_active

    @property
    def channels(self) -> int:
        return self.features.data.shape[1]

    @property
    def dims(self) -> int:
        return self.geometry.dims

    def with_features(self, features: Tensor) -> "SparseTensor":
        """Same geometry, new feature block, checked as by the constructor."""
        return SparseTensor(self.geometry, features)


@dataclass
class Rulebook:
    """Execution plan for one sparse convolution.

    ``pairs[m]`` is a read-only int32 array of shape (P, 2) with columns
    (input_row, output_row), sorted ascending by output_row; no output row
    repeats within one offset.  ``offsets[m]`` is the m-th kernel offset in
    row-major enumeration order: center-relative for submanifold
    rulebooks, raw 0..k-1 for regular ones.  The center offset of a
    submanifold rulebook (see :attr:`identity_offset`) pairs every row
    with itself.  Blocks need not be C-contiguous or own their memory: in a
    submanifold rulebook the center block is a broadcast view and each
    offset after the center views its mirror with the columns swapped.
    A regular rulebook also holds its output ``Geometry``, whose coords
    are ``out_coords``; a submanifold rulebook's output geometry is its
    input's.
    """

    offsets: tuple[tuple[int, ...], ...]
    pairs: list[np.ndarray]
    out_coords: np.ndarray
    kind: str = "submanifold"
    out_geometry: Geometry | None = field(default=None, repr=False)

    @property
    def n_out(self) -> int:
        return self.out_coords.shape[0]

    @property
    def identity_offset(self) -> int:
        """Index of the offset whose pairs are ``(i, i)`` for every row: the
        center of a submanifold rulebook; -1 for a regular one."""
        return len(self.offsets) // 2 if self.kind == "submanifold" else -1

    @property
    def total_pairs(self) -> int:
        return sum(p.shape[0] for p in self.pairs)


def _offset_candidates(masks: list[np.ndarray]):
    """Per kernel offset, row-major over the kernel as in
    :func:`centered_offsets` and :func:`raw_offsets`: the offset's per-axis
    kernel indices and the ascending rows where every per-axis mask holds.

    ``masks[d][a, n]`` says whether row n can pair through an offset whose
    d-th component is the a-th kernel value along that axis.
    """
    for index in itertools.product(*(range(m.shape[0]) for m in masks)):
        valid = masks[0][index[0]]
        for m, a in zip(masks[1:], index[1:]):
            valid = valid & m[a]
        yield index, np.flatnonzero(valid)


def _pair_block(in_rows: np.ndarray, out_rows: np.ndarray) -> np.ndarray:
    """Read-only int32 (input_row, output_row) block of one offset."""
    block = np.empty((in_rows.size, 2), dtype=np.int32)
    block[:, 0] = in_rows
    block[:, 1] = out_rows
    block.flags.writeable = False
    return block


def build_rulebook_submanifold(t: SparseTensor, spec: KernelSpec) -> Rulebook:
    """Rulebook whose output active set equals the input active set.

    For the center-relative offset ``o``, pair (i, j) exists iff
    ``coords[i] == coords[j] - o * dilation`` and both sites are active,
    so offset ``-o`` holds exactly the pairs (j, i).  Only the offsets
    before the center are searched in the index, one offset at a time,
    which bounds the scratch to one offset's candidates.
    The center block is a read-only identity view (every row paired with
    itself) and each later offset is the column-swapped view of its
    mirror: with the rows in key order, ``i`` ascends with ``j``, so the
    swapped pairs are already sorted by output row.  Otherwise a mirrored
    block is a sorted copy.
    """
    if not spec.is_unit_stride:
        raise InvalidSpec("submanifold convolution requires stride 1")
    if spec.dims != t.dims:
        raise InvalidSpec(f"spec rank {spec.dims} != tensor rank {t.dims}")
    coords, shape = t.coords, t.spatial_shape
    masks = []
    key_shift = np.zeros(1, dtype=np.int64)  # flat key of each offset's shift
    for d, (k, dil) in enumerate(zip(spec.kernel, spec.dilation)):
        half = (k - 1) // 2
        shift = np.arange(-half, half + 1, dtype=np.int64) * dil
        target = coords[None, :, 1 + d] - shift[:, None]
        masks.append((target >= 0) & (target < shape[d]))
        key_shift = (key_shift[:, None] * shape[d] + shift[None, :]).reshape(-1)
    keys, center = flat_keys(coords, shape), key_shift.size // 2
    pairs = []
    for o, (_, out_rows) in enumerate(itertools.islice(_offset_candidates(masks), center)):
        # inside the grid, key(coords[j] - shift) == key(coords[j]) - key(shift)
        in_rows = t.geometry.index.find(keys[out_rows] - key_shift[o])
        hit = in_rows >= 0
        pairs.append(_pair_block(in_rows[hit], out_rows[hit]))
    rows = np.arange(t.n_active, dtype=np.int32)
    pairs.append(np.broadcast_to(rows[:, None], (rows.size, 2)))
    key_ordered = bool((keys[1:] > keys[:-1]).all())
    for block in reversed(pairs[:center]):  # offset K-1-o mirrors offset o
        if key_ordered:
            pairs.append(block[:, ::-1])
        else:
            order = np.argsort(block[:, 0])
            pairs.append(_pair_block(block[order, 1], block[order, 0]))
    return Rulebook(
        offsets=tuple(centered_offsets(spec.kernel)),
        pairs=pairs,
        out_coords=coords,
        kind="submanifold",
    )


def regular_out_shape(
    in_shape: tuple[int, ...], spec: KernelSpec
) -> tuple[int, ...]:
    """ceil((in + 2*pad - dilation*(k-1) - 1) / stride) + 1 per dim."""
    out = []
    for s_in, k, d, s, p in zip(
        in_shape, spec.kernel, spec.dilation, spec.stride, spec.padding
    ):
        num = s_in + 2 * p - d * (k - 1) - 1
        out.append(max(0, -(-num // s) + 1))
    return tuple(out)


def build_rulebook_regular(
    t: SparseTensor, spec: KernelSpec, out_shape: tuple[int, ...]
) -> Rulebook:
    """Rulebook for a strided (feature-expanding) sparse convolution.

    An output position j exists iff some input i and raw kernel offset o
    satisfy ``i == j * stride + o * dilation - padding`` with j inside
    ``out_shape``.  Output coordinates are sorted lexicographically by
    (batch, ijk); they come from one unique over the flat keys of every
    candidate output, which also yields each pair's output row.
    """
    if spec.dims != t.dims:
        raise InvalidSpec(f"spec rank {spec.dims} != tensor rank {t.dims}")
    coords = t.coords
    out_shape = tuple(int(s) for s in out_shape)
    masks, out_ijk = [], []
    for d, (k, dil, stride, pad) in enumerate(
        zip(spec.kernel, spec.dilation, spec.stride, spec.padding)
    ):
        # solve j * stride = i + padding - o * dilation
        num = coords[None, :, 1 + d] + pad - np.arange(k, dtype=np.int64)[:, None] * dil
        j = num // stride
        masks.append((num % stride == 0) & (j >= 0) & (j < out_shape[d]))
        out_ijk.append(j)
    in_rows, keys = [], []
    for index, rows in _offset_candidates(masks):
        key = coords[rows, 0]
        for d, a in enumerate(index):
            key = key * out_shape[d] + out_ijk[d][a, rows]
        in_rows.append(rows)
        keys.append(key)
    out_keys, out_rows = np.unique(np.concatenate(keys), return_inverse=True)
    out_coords = _unflatten(out_keys, out_shape)
    out_coords.flags.writeable = False
    out_geometry = Geometry(out_coords, out_shape)
    pairs = []
    for rows, out in zip(in_rows, np.split(out_rows, np.cumsum([r.size for r in in_rows])[:-1])):
        order = np.argsort(out)  # no output row repeats within an offset
        pairs.append(_pair_block(rows[order], out[order]))
    return Rulebook(
        offsets=tuple(raw_offsets(spec.kernel)),
        pairs=pairs,
        out_coords=out_geometry.coords,
        kind="regular",
        out_geometry=out_geometry,
    )


# float64 entries per scatter block of either executor (256 KB)
SCATTER_ENTRIES = 1 << 15


def _offset_rows(rulebook: Rulebook, o: int):
    """``(in_rows, out_rows)`` of offset ``o``; ``(None, None)`` for the
    identity offset, meaning every row, in order."""
    return (None, None) if o == rulebook.identity_offset else tuple(rulebook.pairs[o].T)


def _take_rows(a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``a[rows]`` as a new C-ordered block; all of ``a`` for None, copied
    only if it is not C-ordered: a product with the whole block then has
    the bits of one with a gathered copy."""
    return np.ascontiguousarray(a) if rows is None else np.take(a, rows, axis=0)


def _scatter_add(acc: np.ndarray, rows: np.ndarray | None, y: np.ndarray) -> None:
    """``acc[rows] += y[:rows.size]`` in row blocks of at most
    ``SCATTER_ENTRIES`` entries, which bounds the float64 gather and sum of
    the touched rows; ``acc += y`` for None.  ``rows`` holds no repeat, so
    the blocks give the bits of one whole scatter.  Rows of ``y`` past
    ``rows.size`` (a padded product) are not read."""
    if rows is None:
        acc += y
        return
    step = max(1, SCATTER_ENTRIES // max(acc.shape[1], 1))
    for a in range(0, rows.size, step):
        block = rows[a : a + step]
        acc[block] += y[a : a + block.size]


def gather_scatter_matmul(
    features: np.ndarray,
    rulebook: Rulebook,
    weights: np.ndarray,
    bias: np.ndarray | None,
) -> np.ndarray:
    """Execute a rulebook: ``out[j] = bias + sum_o sum_{(i,j)} x[i] @ W_o``.

    Per-offset contributions are accumulated into a float64 buffer in
    offset order, each as soon as it is computed (then cast back to the
    input dtype), which bounds summation-order error and fixes the result
    bit for bit.  Within one offset no two pairs share an output row, so
    the scatter is collision-free (see :func:`_scatter_add`).  The identity
    offset of a submanifold rulebook needs neither gather nor scatter.
    """
    weights = np.asarray(weights)
    k = len(rulebook.offsets)
    if weights.ndim != 3 or weights.shape[0] != k:
        raise ShapeMismatch(
            f"need {k} per-offset weight blocks, got shape {weights.shape}"
        )
    if features.ndim != 2 or features.shape[1] != weights.shape[1]:
        raise ShapeMismatch(
            f"features {features.shape} incompatible with weights {weights.shape}"
        )
    c_out = weights.shape[2]
    if bias is not None and np.asarray(bias).shape != (c_out,):
        raise ShapeMismatch("bias length != output channels")
    acc = np.zeros((rulebook.n_out, c_out), dtype=np.float64)
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)
    for o in range(k):
        in_rows, out_rows = _offset_rows(rulebook, o)
        _scatter_add(acc, out_rows, _take_rows(features, in_rows) @ weights[o])
    return acc.astype(features.dtype, copy=False)


# OpenBLAS (0.3.31, measured on an AVX-512 x86-64 CPU) runs ``a @ b.T`` with
# ``b`` C-ordered through a small-matrix kernel when the product has at most
# this many entries and the inner dimension is 32 or more; that kernel's row
# bits depend on the row count, the blocked kernel's do not
SMALL_GEMM_ENTRIES = 1200


def _live_rows(cotangent: np.ndarray) -> np.ndarray | None:
    """Mask of the cotangent rows with an entry that is nonzero or NaN; None
    when every row has one.  Only the rows whose first entry is zero are
    read past column 0."""
    live = cotangent[:, 0] != 0
    dead = np.flatnonzero(~live)
    if dead.size == 0:
        return None
    live[dead] = (np.take(cotangent, dead, axis=0) != 0).any(axis=1)
    return None if live.all() else live


def gather_scatter_vjp(
    features: np.ndarray,
    rulebook: Rulebook,
    weights: np.ndarray,
    cotangent: np.ndarray,
    with_weights: bool = True,
):
    """Backward pass of :func:`gather_scatter_matmul`.

    ``grad_features[i] = sum_o sum_{(i,j)} cot[j] @ W_o^T``;
    ``grad_W_o = sum_{(i,j)} x[i]^T @ cot[j]``.  Returns (grad_features,
    grad_weights) in the features' dtype; grad_weights is None when
    ``with_weights`` is false, in which case no input row is gathered and
    only the shape and dtype of ``features`` are read.  A bias gradient
    is the cotangent's column sum, which the conv forms itself.
    Accumulation order mirrors the forward pass, so gradients are
    deterministic as well.  A cotangent that is not (output rows, C_out)
    raises ShapeMismatch.

    ``grad_features`` takes only the pairs whose cotangent row is live (an
    entry is nonzero or NaN) and has the bytes of the all-pairs loop: a dead
    row times finite weights is a signed zero, and adding one leaves the
    float64 buffer, which starts at +0.0 and never reaches -0.0, unchanged.
    Live rows go through the same transposed weight view, in a product of
    at least ``max(2, SMALL_GEMM_ENTRIES // C_in + 1)`` rows, padded with
    repeated live rows: that keeps it out of numpy's gemv (one row) and of
    OpenBLAS's small-matrix kernel, whose row bits depend on the row count.
    An offset with no more pairs than that keeps the all-pairs product, and so
    does every offset when all rows are live, when the features have one
    column (gemv again) or when a weight is not finite.  ``grad_weights``
    always uses every pair.
    """
    weights = np.asarray(weights)
    k = len(rulebook.offsets)
    if cotangent.shape != (rulebook.n_out, weights.shape[-1]):
        raise ShapeMismatch(
            f"cotangent shape {cotangent.shape} != (rulebook outputs "
            f"{rulebook.n_out}, output channels {weights.shape[-1]})"
        )
    grad_features = np.zeros(features.shape, dtype=np.float64)
    # one product per offset: stored directly, no float64 accumulator
    grad_weights = np.zeros(weights.shape, dtype=features.dtype) if with_weights else None
    c_in = features.shape[1]
    live = _live_rows(cotangent) if c_in > 1 and cotangent.size else None
    if live is not None and not np.isfinite(weights).all():
        live = None
    min_rows = max(2, SMALL_GEMM_ENTRIES // max(c_in, 1) + 1)
    for o in range(k):
        in_rows, out_rows = _offset_rows(rulebook, o)
        cot_rows = None
        if with_weights:
            cot_rows = _take_rows(cotangent, out_rows)
            grad_weights[o] = _take_rows(features, in_rows).T @ cot_rows
        if live is None or rulebook.pairs[o].shape[0] <= min_rows:
            if cot_rows is None:
                cot_rows = _take_rows(cotangent, out_rows)
            targets = in_rows
        else:
            hit = np.flatnonzero(live if out_rows is None else live[out_rows])
            if hit.size == 0:
                continue
            rows = hit if hit.size >= min_rows else np.resize(hit, min_rows)
            cot_rows = _take_rows(cotangent, rows if out_rows is None else out_rows[rows])
            targets = hit if in_rows is None else in_rows[hit]
        gx = cot_rows @ weights[o].T
        del cot_rows  # free each offset's gathers and product before the next's
        _scatter_add(grad_features, targets, gx)
        del gx
    return grad_features.astype(features.dtype, copy=False), grad_weights
