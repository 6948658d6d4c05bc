"""Reverse-mode gradient tape.

The engine records forward operations on a :class:`GradTape` as a Wengert
list.  Every op makes its output through :func:`emit`, which appends the
op's node only when the op's inputs carry a tape.  Replaying the list in
strict reverse order with per-node vector-Jacobian products yields
gradients for every leaf tensor the computation touched; leaves the
computation never reached simply have no entry in the gradient map.

A tape is single-writer and single-replay: one forward pass, then one
backward pass.  The replay frees each cotangent once its consumer has run
and each node's VJP closure (with the forward arrays it saved) once the
node is passed, so a second replay raises :class:`TapeConsumed`.  Tensors
are immutable value holders; parameters are plain leaf tensors with no
tape attached.  On a default tape they still receive gradients, because
nodes reference them as inputs.  An input-only tape,
``GradTape(params=False)``, differentiates only the tensors attached to
it: parameters and other untaped leaves get no gradient there, and no op
saves forward state or spends work to form one.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from .errors import ShapeMismatch, TapeConsumed

_uids = itertools.count()


class Tensor:
    """A dense array plus an identity the tape can track.

    ``tape`` is None for leaf tensors (inputs before a pass starts,
    parameters, constants).  Results of recorded operations carry the tape
    they were recorded on.
    """

    __slots__ = ("data", "tape", "uid")

    def __init__(self, data, tape: "GradTape | None" = None):
        self.data = np.asarray(data)
        self.tape = tape
        self.uid = next(_uids)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, uid={self.uid})"


class _Node:
    __slots__ = ("name", "out_uid", "in_uids", "vjp")

    def __init__(self, name, out_uid, in_uids, vjp):
        self.name = name
        self.out_uid = out_uid
        self.in_uids = in_uids
        self.vjp = vjp


class GradTape:
    """Ordered log of executed operations, replayed once for gradients.

    ``params`` says whether untaped leaves (parameters, constants) are
    differentiated.  With ``params=False`` only tensors attached to this
    tape are: :func:`emit` asks :meth:`needs` once per input, and an op
    keeps no state for an input that needs no gradient.
    """

    def __init__(self, params: bool = True):
        self._nodes: list[_Node] = []
        self._consumed = False
        self.params = params

    def __len__(self):
        return len(self._nodes)

    def needs(self, t: Tensor) -> bool:
        """Whether ``t`` gets a gradient from this tape."""
        return t.tape is self or (t.tape is None and self.params)

    def node_names(self) -> list[str]:
        return [n.name for n in self._nodes]

    def gradients(self, output: Tensor, cotangent, trace: list[str] | None = None) -> dict[int, np.ndarray]:
        """Replay the tape backwards from ``output`` seeded with ``cotangent``.

        Returns a map from leaf tensor uid to accumulated gradient.  Leaves
        are parameters (on a default tape only) and taped inputs that no
        node on this tape produced (and ``output`` itself when it is one);
        intermediate results have no entry.  Nodes whose output never
        received a cotangent are skipped; their inputs stay absent from the
        map.  ``trace``, if given, collects the names of visited nodes in
        replay order.

        A VJP may return a zero-argument callable in place of an input's
        cotangent (see :func:`emit`).  One for a non-leaf input is called
        at once.  A leaf's contributions, arrays and callables alike, are
        queued in replay order and summed after the last node: each
        callable is called then, exactly once, and each part is dropped
        as it is summed, so a leaf gradient has the bytes of summing every
        part as its node ran.

        The replay releases memory as it goes and can run once per tape:
        a second call raises TapeConsumed.  Node names survive it.
        """
        if self._consumed:
            raise TapeConsumed("this tape has already been replayed")
        cot = np.asarray(cotangent)
        if cot.shape != output.data.shape:
            raise ShapeMismatch(
                f"cotangent shape {cot.shape} != output shape {output.data.shape}"
            )
        return self._replay(output.uid, cot, trace)

    def _replay(self, out_uid: int, cot: np.ndarray, trace: list[str] | None = None):
        """:meth:`gradients` without its checks, for a VJP that replays an
        inner tape it has just recorded: ``gradients`` itself then runs once
        per pass, so a wrapper around it (``perfbench/tracing.py``) sees
        only the outer tape."""
        self._consumed = True
        produced = {node.out_uid for node in self._nodes}
        grads: dict[int, np.ndarray] = {out_uid: cot}
        leaf_parts: deque = deque()
        for node in reversed(self._nodes):
            vjp, node.vjp = node.vjp, None
            # every consumer of this output comes later on the tape, so
            # its cotangent is complete here and nothing reads it after
            out_cot = grads.pop(node.out_uid, None)
            if out_cot is None:
                continue
            if trace is not None:
                trace.append(node.name)
            for uid, g in zip(node.in_uids, vjp(out_cot)):
                if uid is None or g is None:
                    continue
                if uid in produced:
                    _accumulate(grads, uid, g)
                else:
                    leaf_parts.append((uid, g))
        # the last node's cotangent, VJP closure and part would otherwise
        # stay alive while the leaf parts are formed
        out_cot = vjp = g = None
        while leaf_parts:
            _accumulate(grads, *leaf_parts.popleft())
        return grads


def _accumulate(grads: dict[int, np.ndarray], uid: int, g) -> None:
    """Add one cotangent part, an array or a callable that forms it."""
    if callable(g):
        g = g()
    acc = grads.get(uid)
    grads[uid] = g if acc is None else acc + g


def active_tape(*tensors: Tensor | None) -> GradTape | None:
    """The single tape shared by the given tensors, or None.

    Mixing tensors from two different live tapes in one op is a usage bug
    (tapes are single-writer) and raises.
    """
    tape = None
    for t in tensors:
        if t is None or t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ShapeMismatch("operands recorded on different tapes")
    return tape


def emit(name: str, data, inputs: tuple[Tensor | None, ...], vjp_of) -> Tensor:
    """Make an op's output tensor and, under a tape, append the op's node.

    ``inputs`` are the op's operands, with None for an absent optional one
    (a layer without bias).  Only when they carry a tape is
    ``vjp_of(needs)`` called, with one flag per input saying whether that
    input gets a gradient (:meth:`GradTape.needs`), so an untaped op builds
    no VJP state.  It returns the VJP: a map from the output's cotangent to
    a tuple of cotangents, one per input (None for inputs that get none).
    A cotangent may also be a zero-argument callable that forms it, as a
    convolution returns a weight gradient larger than its cotangent; the
    replay calls it once, at once for an intermediate and after the last
    node for a leaf (:meth:`GradTape.gradients`).  Inputs that need no
    gradient get no uid, so the replay drops whatever the VJP returns for
    them.
    """
    tape = active_tape(*inputs)
    out = Tensor(data, tape)
    if tape is not None:
        needs = tuple(t is not None and tape.needs(t) for t in inputs)
        in_uids = tuple(t.uid if need else None for t, need in zip(inputs, needs))
        tape._nodes.append(_Node(name, out.uid, in_uids, vjp_of(needs)))
    return out


def grad_of(grads: dict[int, np.ndarray], tensor: Tensor) -> np.ndarray | None:
    """Gradient for ``tensor`` from a replay result, or None if untouched."""
    return grads.get(tensor.uid)
