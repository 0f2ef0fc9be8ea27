"""Multi-input AND gates: the static term tables of the comparison tree.

A comparison-tree level folds groups of ``k`` nodes with one radix-``k``
combine each; ABY2.0's multi-input AND gates (Patra et al., USENIX Security
2021) evaluate all its product terms in one round.  This module holds what
the dealer, the fused finish kernel (:mod:`repro.crypto.kernels`) and the
schedule's cost count share: the term table of a combine (:func:`and_terms`,
:class:`AndTable`) and the bit-packed planes its mask products live in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


def plane_bytes(element: Tuple[int, ...]) -> int:
    """Bytes of one bit-packed plane over ``element``: eight bits a byte."""
    return (math.prod(element) + 7) // 8


def pack_planes(bits: np.ndarray) -> np.ndarray:
    """``(rows,) + S`` bits (0/1 bytes) → ``(rows, plane_bytes(S))`` packed
    planes, little bit order."""
    flat = bits.reshape((len(bits), math.prod(bits.shape[1:])))
    return np.packbits(flat, axis=-1, bitorder="little")


def unpack_planes(planes: np.ndarray, element: Tuple[int, ...]) -> np.ndarray:
    """The inverse of :func:`pack_planes`: ``(..., B)`` → ``(...,) + S``."""
    count = math.prod(element)
    bits = np.unpackbits(planes, axis=-1, count=count, bitorder="little")
    return bits.reshape(planes.shape[:-1] + tuple(element))


def _submasks(mask: int):
    """Every non-empty submask of ``mask``."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


@dataclass(frozen=True, eq=False)
class AndTable:
    """The static term table of one radix-``k`` comparison combine.

    A combine folds nodes ``0..k-1`` (node 0 most significant) into ``gt =
    gt_0 ⊕ ⊕_j eq_0···eq_{j-1}·gt_j`` and, when ``outputs == 2``, ``eq =
    eq_0···eq_{k-1}``; the terms are mutually exclusive, so XOR is exact.
    ``gt_0`` enters linearly; every other operand is an *input*, opened once
    as ``d = x ⊕ λ`` under a fresh mask.  Inputs are ordered ``eq_0..`` then
    ``gt_1..``; ``monomials`` holds ``(output, input bitmask)`` per product
    term.  Plane ``p`` of an item is the mask product over ``subsets[p]`` —
    the first ``inputs`` planes are the masks themselves, then every other
    subset some monomial's expansion ``∏(d_i ⊕ λ_i) = ⊕_T d_{m∖T}·λ_T``
    reads.  ``radix=2, outputs=1`` is a plain AND gate ``x·y``.  Planes are
    bit-packed (:func:`pack_planes`): the products are bytewise ANDs.

    The kernel index arrays: ``grow`` builds products of growing size from
    smaller ones (``(start, stop, parents, inputs)`` per size, rows into a
    plane stack, whose last row holds the empty product); ``coef_layers``
    XOR the products of the opened ``d`` into one public coefficient plane
    per ``(output, T)`` (layer ``j``: the rows with a ``j``-th term, and
    that term); the ``T ≠ ∅`` rows are ANDed with the share planes
    ``lane_planes`` and XOR-reduced per output over ``lane_bounds``, and
    the ``T = ∅`` rows (the public products) go to lane 0.
    """

    radix: int
    outputs: int
    inputs: int
    monomials: Tuple[Tuple[int, int], ...]
    subsets: Tuple[int, ...]
    planes: Dict[int, int]
    grow: Tuple[Tuple[int, int, np.ndarray, np.ndarray], ...]
    coef_layers: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    lane_planes: np.ndarray
    lane_bounds: Tuple[Tuple[int, int], ...]

    def products(self, stack: np.ndarray) -> None:
        """Fill the product rows of ``stack`` (leading axis: planes, then the
        empty product if present) from its first ``inputs`` rows, in place."""
        for start, stop, parents, inputs in self.grow:
            np.bitwise_and(stack[parents], stack[inputs], out=stack[start:stop])


@functools.lru_cache(maxsize=64)
def and_terms(
    radix: int, outputs: int
) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """``(inputs, monomials, subsets)`` of a radix-``radix`` combine with
    ``outputs`` outputs (1: ``gt`` only, 2: ``gt`` and ``eq``), as
    :class:`AndTable` lays them out — all a cost count needs."""
    if radix < 2 or outputs not in (1, 2):
        raise ValueError(f"no AND combine of radix {radix} with {outputs} outputs")
    eq = range(radix - 2 + outputs)
    inputs = len(eq) + radix - 1
    prefix = [sum(1 << i for i in eq[:j]) for j in range(radix + 1)]
    monomials = [(0, prefix[j] | 1 << (len(eq) + j - 1)) for j in range(1, radix)]
    if outputs == 2:
        monomials.append((1, prefix[radix]))
    family = {sub for _, mask in monomials for sub in _submasks(mask)}
    larger = sorted((s for s in family if s & (s - 1)), key=lambda s: (bin(s).count("1"), s))
    return inputs, tuple(monomials), tuple(1 << i for i in range(inputs)) + tuple(larger)


@functools.lru_cache(maxsize=64)
def and_table(radix: int, outputs: int) -> AndTable:
    """The :class:`AndTable` of :func:`and_terms` ``(radix, outputs)``."""
    inputs, monomials, subsets = and_terms(radix, outputs)
    planes = {subset: p for p, subset in enumerate(subsets)}
    planes[0] = len(subsets)  # the empty product's row in a kernel stack

    grow = []
    for size in range(2, max(bin(s).count("1") for s in subsets) + 1):
        rows = [p for p, s in enumerate(subsets) if bin(s).count("1") == size]
        grow.append(
            (
                rows[0],
                rows[-1] + 1,
                np.array([planes[subsets[p] & (subsets[p] - 1)] for p in rows]),
                np.array([(subsets[p] & -subsets[p]).bit_length() - 1 for p in rows]),
            )
        )
    coefficients: List[List[int]] = []
    lane_planes: List[int] = []
    lane_bounds: List[Tuple[int, int]] = []
    for output in range(outputs):
        masks = [mask for o, mask in monomials if o == output]
        start = len(lane_planes)
        for subset in subsets:
            terms = [planes[mask ^ subset] for mask in masks if mask & subset == subset]
            if terms:
                coefficients.append(terms)
                lane_planes.append(planes[subset])
        lane_bounds.append((start, len(lane_planes)))
    for output in range(outputs):  # the T = ∅ rows: the public products d_m
        coefficients.append([planes[mask] for o, mask in monomials if o == output])
    coef_layers = tuple(
        (
            np.array([row for row, terms in enumerate(coefficients) if len(terms) > j]),
            np.array([terms[j] for terms in coefficients if len(terms) > j]),
        )
        for j in range(max(map(len, coefficients)))
    )
    return AndTable(
        radix=radix,
        outputs=outputs,
        inputs=inputs,
        monomials=monomials,
        subsets=subsets,
        planes=planes,
        grow=tuple(grow),
        coef_layers=coef_layers,
        lane_planes=np.array(lane_planes),
        lane_bounds=tuple(lane_bounds),
    )
