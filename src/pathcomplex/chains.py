"""Integer-coefficient chains of vertex sequences and the signed boundary operator.

Chains here live in the unrestricted formal space: terms may be non-allowed or
non-simple sequences, and a sequence is distinct from its reverse.  The
canonical-orientation identification only applies to complex members, not to
chain terms.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .graphs import SimpleGraph

__all__ = [
    "SignedChain",
    "signed_boundary",
    "chain_boundary",
    "is_allowed",
    "is_boundary_invariant",
]


class SignedChain:
    """Formal integer combination of vertex sequences; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = ()):
        cleaned = {}
        for seq, coeff in dict(terms).items():
            if coeff:
                cleaned[tuple(seq)] = int(coeff)
        self.terms = cleaned

    @staticmethod
    def unit(seq: Sequence[int], coeff: int = 1) -> "SignedChain":
        return SignedChain({tuple(seq): coeff})

    def __add__(self, other: "SignedChain") -> "SignedChain":
        out = dict(self.terms)
        for seq, coeff in other.terms.items():
            out[seq] = out.get(seq, 0) + coeff
        return SignedChain(out)

    def __neg__(self) -> "SignedChain":
        return SignedChain({seq: -c for seq, c in self.terms.items()})

    def __sub__(self, other: "SignedChain") -> "SignedChain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedChain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "SignedChain(0)"
        parts = []
        for seq, coeff in sorted(self.terms.items()):
            label = "e(" + ",".join(str(v) for v in seq) + ")"
            parts.append(f"{coeff:+d}*{label}")
        return "SignedChain(" + " ".join(parts) + ")"


def signed_boundary(seq: Sequence[int]) -> SignedChain:
    """Alternating-sign sum of the one-vertex deletions of ``seq``.

    A length-(p+1) sequence yields p+1 terms with signs ``(-1)**q`` before any
    cancellation; deleting from a length-1 sequence yields the empty chain.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("cannot take the boundary of an empty sequence")
    out = {}
    for q in range(len(seq)):
        dropped = seq[:q] + seq[q + 1:]
        if not dropped:
            continue
        sign = 1 if q % 2 == 0 else -1
        out[dropped] = out.get(dropped, 0) + sign
    return SignedChain(out)


def chain_boundary(chain: SignedChain) -> SignedChain:
    """Apply the signed boundary term-wise and cancel."""
    out = {}
    for seq, coeff in chain.terms.items():
        for face, sign in signed_boundary(seq).terms.items():
            out[face] = out.get(face, 0) + sign * coeff
    return SignedChain(out)


def is_allowed(g: SimpleGraph, seq: Sequence[int]) -> bool:
    """True iff consecutive vertices of ``seq`` are adjacent in ``g``.

    Length-1 sequences are always allowed (provided the vertex exists).
    """
    seq = tuple(seq)
    if not seq:
        return False
    if any(not 0 <= v < g.n for v in seq):
        return False
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def is_boundary_invariant(chain: SignedChain, g: SimpleGraph) -> bool:
    """Membership test for the space of chains whose boundary stays allowed.

    Every input term must itself be an allowed sequence in ``g``; the chain
    passes iff after applying the signed boundary term-wise and cancelling,
    every surviving term is still allowed.
    """
    if not chain:
        return True
    for seq in chain.terms:
        if not is_allowed(g, seq):
            raise ValueError(f"chain term {seq} is not an allowed path in the graph")
    reduced = chain_boundary(chain)
    return all(is_allowed(g, seq) for seq in reduced.terms)
