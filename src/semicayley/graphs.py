"""Construction of semi-Cayley graphs SC(G, R, L, S) over abelian groups.

A spec is the triple (R, L, S) of subsets of G; vertices are (g, layer) with
layer 0 or 1, and the adjacency follows three edge rules: within layer 0 by
membership of the difference in R, within layer 1 by L, and across layers by
S.  Also adapts Cayley graphs over groups that contain an abelian subgroup of
index 2 (generalized dihedral and dicyclic groups included) and provides the
standard named families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .groups import MAX_ORDER, AbelianGroup, Element, integer, subset_to_json

if TYPE_CHECKING:
    from .spectra import Spectrum


class Vertex(NamedTuple):
    element: Element
    layer: int


@dataclass(frozen=True)
class SemiCayleySpec:
    """The data (G, R, L, S) defining SC(G, R, L, S).

    R and L must be inverse-closed and avoid the identity; S is unconstrained
    (it may be empty, contain the identity, or fail to be inverse-closed).
    Each subset is validated and deduplicated into a frozenset, and an
    invalid element is a ValidationError prefixed with its subset's name;
    its enumeration indices are then read once from the validated elements
    (subset_indices), and every later check and table works on them.  Like
    the group's index tables, the spectrum and the adjacency matrix are
    computed on first use and kept on the spec; equality and hashing see only
    (G, R, L, S).
    """

    group: AbelianGroup
    R: frozenset[Element]
    L: frozenset[Element]
    S: frozenset[Element]

    def __post_init__(self):
        g = self.group
        for name in ("R", "L", "S"):
            try:
                object.__setattr__(self, name, g.subset(getattr(self, name)))
            except ValidationError as exc:
                raise ValidationError(f"{name}: {exc}") from exc
        for name in ("R", "L"):
            if g.identity in getattr(self, name):
                raise ValidationError(f"{name} must not contain the identity")
            if not self._inverse_closed(name):
                raise ValidationError(f"{name} must be inverse-closed")

    @cached_property
    def subset_indices(self) -> dict[str, np.ndarray]:
        """Sorted enumeration indices of R, L and S by name, read-only."""
        out = {}
        for name in ("R", "L", "S"):
            indices = self.group.index_array(getattr(self, name))
            indices.flags.writeable = False
            out[name] = indices
        return out

    def _inverse_closed(self, name: str) -> bool:
        xs = self.subset_indices[name]
        return np.array_equal(np.sort(self.group.power_indices(xs, -1)), xs)

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def max_degree(self) -> int:
        """rho, the largest row sum of build(self): a row has |R| + |S| or |L| + |S| ones."""
        return max(len(self.R), len(self.L)) + len(self.S)

    @cached_property
    def spectrum(self) -> "Spectrum":
        """Closed-form eigen-data of every character, as columns (see spectra.spectrum)."""
        from . import spectra  # spectra imports this module

        return spectra.spectrum(self)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """build(self), read-only: the oracle's one copy of the dense adjacency."""
        adjacency = build(self)
        adjacency.flags.writeable = False
        return adjacency

    @cached_property
    def s_inverse_closed(self) -> bool:
        return self._inverse_closed("S")

    def connecting_index(self, u: Vertex, v: Vertex) -> int:
        """Index of a = g^{-1} h for u = (g, r), v = (h, s): H_uv(t) depends only on a and the layers."""
        group = self.group
        return self._connecting_index(group.validate_element(u.element), group.validate_element(v.element))

    def _connecting_index(self, g: Element, h: Element) -> int:
        # connecting_index of already validated elements
        group = self.group
        return int(group.add_indices(group.power_indices(group._index(g), -1), group._index(h)))

    def vertex_index(self, v: Vertex) -> int:
        return self._vertex_index(self.validate_vertex(v))

    def _vertex_index(self, v: Vertex) -> int:
        # vertex_index of a validated vertex
        return v.layer * self.n + self.group._index(v.element)

    def validate_vertex(self, v) -> Vertex:
        """v as a Vertex: refuses all but a pair of a group element's integer exponents and the int 0 or 1."""
        try:
            element, layer = v
            element = tuple(map(integer, element))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"vertex must be [[exponents],layer], got {v!r}") from exc
        if isinstance(layer, bool) or not isinstance(layer, (int, np.integer)) or layer not in (0, 1):  # 1.0 == 1
            raise ValidationError(f"vertex layer must be 0 or 1, got {layer!r}")
        return Vertex(self.group.validate_element(element), int(layer))

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "R": subset_to_json(self.R),
            "L": subset_to_json(self.L),
            "S": subset_to_json(self.S),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SemiCayleySpec":
        try:
            group = AbelianGroup.from_json(obj["group"])
            return cls(group, obj["R"], obj["L"], obj["S"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed graph spec JSON: {exc}") from exc


def cay_adjacency(group: AbelianGroup, connection: Iterable[Element]) -> np.ndarray:
    """n x n 0/1 matrix with entry (x, y) = 1 iff y * x^{-1} is in the set.

    Symmetric when the set is inverse-closed; for an arbitrary set this is the
    (possibly directed, possibly looped) Cayley adjacency used for spokes.
    """
    n = group.order
    rows = np.arange(n)[:, None]
    out = np.zeros((n, n), dtype=np.int64)
    out[rows, group.add_indices(rows, group.index_array(group.subset(connection))[None, :])] = 1
    return out


def build(spec: SemiCayleySpec) -> np.ndarray:
    """Dense 2n x 2n float64 adjacency matrix of SC(G, R, L, S).

    Row/column order: layer-0 vertices in group enumeration order, then
    layer-1 vertices.  One array, filled by the index arithmetic of
    cay_adjacency for each of the three edge rules.
    """
    group, n, indices = spec.group, spec.n, spec.subset_indices
    rows = np.arange(n)[:, None]
    out = np.zeros((2 * n, 2 * n))
    out[rows, group.add_indices(rows, indices["R"][None, :])] = 1
    out[n + rows, n + group.add_indices(rows, indices["L"][None, :])] = 1
    spokes = group.add_indices(rows, indices["S"][None, :])
    out[rows, n + spokes] = 1
    out[n + spokes, rows] = 1
    return out


# -- Cayley graphs over index-2 abelian extensions ---------------------------


def from_cayley_index2(
    subgroup: AbelianGroup,
    sigma: Sequence[int],
    x_square: Element,
    T1: Iterable[Element],
    T2: Iterable[Element],
) -> SemiCayleySpec:
    """Decompose Cay(G, T1 u xT2) over G = H u xH as a semi-Cayley graph.

    The extension is described by x^2 and the automorphism sigma(h) = x^{-1} h x
    of H, as n enumeration indices with sigma(g_i) = g_sigma[i]; associativity
    forces sigma to be an involution fixing x^2.  T1 must be inverse-closed
    without the identity; xT2 is checked for inverse closure in closed form, as
    (x t)^{-1} = x sigma(t)^{-1} x^{-2}.  The spec's vertex order is H, then xH:
    (h, 0) is the element h and (h, 1) is x*h, so relabelling the extension's
    Cayley adjacency in that order reproduces build(spec).
    """
    square = subgroup.index(x_square)
    everything = np.arange(subgroup.order)
    try:
        perm = np.asarray(sigma)
        bijective = perm.dtype.kind in "iu" and np.array_equal(np.sort(perm), everything)
    except ValueError:  # a ragged sequence, or np.sort of a scalar
        bijective = False
    if not bijective:  # a float or bool sigma is refused, not truncated
        raise ValidationError("x-action is not a bijection of the subgroup")
    sums = subgroup.add_indices(everything[:, None], everything[None, :])
    if not np.array_equal(perm[sums], sums[np.ix_(perm, perm)]):
        raise ValidationError("x-action is not an automorphism of the subgroup")
    if not np.array_equal(perm[perm], everything):
        raise ValidationError("x-action must be an involution (sigma^2 = id)")
    if perm[square] != square:
        raise ValidationError("x-action must fix x^2")
    T1, T2 = subgroup.subset(T1), subgroup.subset(T2)
    if subgroup.identity in T1:
        raise ValidationError("connection set must not contain the identity")
    t1, t2 = subgroup.index_array(T1), subgroup.index_array(T2)
    if not np.array_equal(np.sort(subgroup.power_indices(t1, -1)), t1):
        raise ValidationError("connection part T1 must be inverse-closed")
    # T2 must be closed under the bijection t -> sigma(t)^{-1} x^{-2} = (sigma(t) x^2)^{-1}
    if not np.array_equal(np.sort(subgroup.power_indices(subgroup.add_indices(perm[t2], square), -1)), t2):
        raise ValidationError("connection coset part xT2 is not inverse-closed")

    # Edge rules in the vertex order (h,0) <-> h, (h,1) <-> x*h:
    #   (h,0)~(k,0)  iff k h^{-1} in T1, so R = T1
    #   (h,1)~(k,1)  iff (xk)(xh)^{-1} in T1, i.e. k h^{-1} in sigma(T1)
    #   (h,0)~(k,1)  iff (xk) h^{-1} in xT2, i.e. k h^{-1} in T2
    return SemiCayleySpec(subgroup, T1, [subgroup.element(i) for i in perm[t1]], T2)


def inversion(group: AbelianGroup) -> np.ndarray:
    return group.power_indices(np.arange(group.order), -1)


def identity_action(group: AbelianGroup) -> np.ndarray:
    return np.arange(group.order)


def generalized_dihedral(A: AbelianGroup, T1, T2) -> SemiCayleySpec:
    """Cay(Dih(A, x), T1 u xT2): x inverts A and x^2 = 1."""
    return from_cayley_index2(A, inversion(A), A.identity, T1, T2)


def generalized_dicyclic(A: AbelianGroup, y: Element, T1, T2) -> SemiCayleySpec:
    """Cay(Dic(A, y, x), T1 u xT2): x inverts A and x^2 = y, an involution."""
    if A.orders(A.index(y)) != 2:
        raise ValidationError("x^2 must be an involution of A")
    return from_cayley_index2(A, inversion(A), y, T1, T2)


# -- named families -----------------------------------------------------------


def sunlet(n: int) -> SemiCayleySpec:
    """The n-cycle with a pendant edge at every cycle vertex."""
    if n < 3:
        raise ValidationError("sunlet graphs need n >= 3")
    G = AbelianGroup([n])
    return SemiCayleySpec(G, [(1,), (n - 1,)], [], [(0,)])


def cone(n: int) -> SemiCayleySpec:
    """Join of an n-cycle with n isolated vertices."""
    if n < 3:
        raise ValidationError("cone graphs need n >= 3")
    G = AbelianGroup([n])
    return SemiCayleySpec(G, [(1,), (n - 1,)], [], G.elements())


def join_spec(group: AbelianGroup, R, L) -> SemiCayleySpec:
    """SC(G, R, L, G): the join of Cay(G, R) and Cay(G, L)."""
    return SemiCayleySpec(group, R, L, group.elements())


def dihedral_full_coset(A: AbelianGroup) -> SemiCayleySpec:
    """Cay(Dih(A, x), xA) as a semi-Cayley graph: SC(A, {}, {}, A).

    This is the complete bipartite graph K_{|A|,|A|} between the two layers.
    """
    return generalized_dihedral(A, [], A.elements())


def dihedral_involutions(A: AbelianGroup) -> SemiCayleySpec:
    """Cay(Dih(A, x), xA u {involutions of A}) as a semi-Cayley graph."""
    invs = [A.element(i) for i in np.flatnonzero(A.orders(np.arange(A.order)) == 2)]
    return generalized_dihedral(A, invs, A.elements())


def dicyclic_full_coset(A: AbelianGroup, y: Element) -> SemiCayleySpec:
    """Cay(Dic(A, y, x), xA) as a semi-Cayley graph."""
    return generalized_dicyclic(A, y, [], A.elements())


def hypercube(dim: int) -> SemiCayleySpec:
    """The dim-cube: two copies of the (dim-1)-cube joined by a matching."""
    if dim < 1:
        raise ValidationError("hypercube dimension must be >= 1")
    if dim > MAX_ORDER.bit_length():  # order 2^(dim - 1) > MAX_ORDER: refused before [2] * (dim - 1)
        order = 2 ** (dim - 1) if dim < 64 else f"2^{dim - 1}"  # digits only while they are few
        raise ValidationError(f"group order {order} exceeds the supported maximum {MAX_ORDER}")
    if dim == 1:
        G = AbelianGroup([1])
        return SemiCayleySpec(G, [], [], [G.identity])
    G = AbelianGroup([2] * (dim - 1))
    units = [tuple(1 if i == j else 0 for i in range(dim - 1)) for j in range(dim - 1)]
    return SemiCayleySpec(G, units, units, [G.identity])
