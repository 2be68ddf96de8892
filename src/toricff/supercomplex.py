"""Odd-variable extension of a Cayley ring and its de Rham realization.

Every ring variable q_i gets an odd partner eta_i. Elements live in two
isomorphic pictures: SuperElement carries sorted eta index tuples, FormElement
carries sorted dq index tuples, and mu translates between them. Both hold
the int-numerator form of polyalg, and the operators below (odd Laplacian,
potential contraction, twisted differential, Euler contraction) run on the
numerators: each result is built over the denominator of its input, times
the potential's own denominator where a potential enters, since its
partials (Poly.partial_rows) are kept over it.

Sign conventions, with all indices zero based:
  * removing eta_i from a sorted tuple E costs (-1)^(position of i in E),
  * inserting dq_i into a sorted tuple J costs (-1)^(number of entries < i),
  * mu sends (m, E) to (-1)^(sum of E) times (m, complement of E).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .polyalg import (
    Poly,
    _SparseTerms,
    _join_terms,
    _render_term,
    grevlex_key,
    monomial_mul,
    parse_terms,
)


def _merge(a, b):
    """Sorted union of two disjoint sorted index tuples with its Koszul sign.

    Returns (None, 0) when the tuples overlap, which kills the term.
    """
    overlap = set(a) & set(b)
    if overlap:
        return None, 0
    inversions = sum(1 for x in a for y in b if x > y)
    return tuple(sorted(a + b)), (-1 if inversions % 2 else 1)


def _sorted_drop(indices, pos):
    return indices[:pos] + indices[pos + 1 :]


def _insert_sign(i, indices):
    below = sum(1 for j in indices if j < i)
    return -1 if below % 2 else 1


class _OddTerms(_SparseTerms):
    """Shared container: keys are (exponent tuple, sorted odd index tuple)."""

    __slots__ = ()

    @classmethod
    def from_poly(cls, f):
        return cls.from_nums(f.denom, {(exps, ()): n for exps, n in f.nums.items()})

    def _times(self, other):
        if isinstance(other, Poly):
            other = type(self).from_poly(other)
        elif type(other) is not type(self):
            return NotImplemented
        out = {}
        get = out.get
        for (e1, o1), c1 in self.nums.items():
            for (e2, o2), c2 in other.nums.items():
                odd, sign = _merge(o1, o2)
                if odd is None:
                    continue
                key = (monomial_mul(e1, e2), odd)
                out[key] = get(key, 0) + sign * c1 * c2
        return type(self).from_nums(self.denom * other.denom, out)

    def to_poly(self):
        """The polynomial of an element without odd factors; raises
        ValueError on a term with one."""
        out = {}
        for (exps, odd), n in self.nums.items():
            if odd:
                raise ValueError("element carries odd factors")
            out[exps] = n
        return Poly.from_nums(self.denom, out)


class SuperElement(_OddTerms):
    """Polynomial in the q variables and their odd partners eta."""


class FormElement(_OddTerms):
    """Polynomial-coefficient differential form in the dq generators."""


def delta(w):
    """Odd Laplacian: sum over i of d/dq_i d/eta_i."""
    out = {}
    get = out.get
    for (exps, etas), n in w.nums.items():
        for pos, i in enumerate(etas):
            if exps[i] == 0:
                continue
            signed = -n if pos % 2 else n
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            key = (lowered, _sorted_drop(etas, pos))
            out[key] = get(key, 0) + signed * exps[i]
    return SuperElement.from_nums(w.denom, out)


def _q_parts(w, f):
    """The Q contraction kernel: the sum over the terms of w and their eta_i
    of the sign of eta_i times the term with eta_i dropped times the i-th
    partial of the potential f."""
    rows = f.partial_rows()
    out = {}
    get, add = out.get, operator.add
    for (exps, etas), coeff in w.nums.items():
        for pos, i in enumerate(etas):
            row = rows.get(i)
            if row is None:
                continue
            signed = -coeff if pos % 2 else coeff
            dropped = _sorted_drop(etas, pos)
            for pe, pc in row:
                key = (tuple(map(add, exps, pe)), dropped)  # monomial_mul, inlined
                out[key] = get(key, 0) + signed * pc
    return SuperElement.from_nums(w.denom * f.denom, out)


def q_f(w, f, into, scale=1):
    """Add scale * Q_f(w), the contraction of w against the partials of an
    arbitrary even potential f, to into, a polyalg.LinearSum of Polys, in
    place: a term of w with one eta goes straight into the sum's numerators.
    Like to_poly, this raises ValueError, leaving into as it was, when an
    odd factor survives: when the terms of w with two or more etas contract
    to a nonzero element.
    """
    odd = {key: n for key, n in w.nums.items() if len(key[1]) > 1}
    if odd and _q_parts(SuperElement.from_nums(w.denom, odd), f):
        raise ValueError("element carries odd factors")
    rows = f.partial_rows()
    if not (scale and rows and w.nums):
        return
    factor = into.admit(scale, w.denom * f.denom)
    nums = into.nums
    get, add = nums.get, operator.add
    for (exps, etas), coeff in w.nums.items():
        if len(etas) == 1 and (row := rows.get(etas[0])) is not None:
            c = coeff * factor
            for pe, pc in row:
                key = tuple(map(add, exps, pe))  # monomial_mul, inlined
                nums[key] = get(key, 0) + c * pc


def q_s(w, ring):
    """Contraction against the partials of the ring potential S."""
    return _q_parts(w, ring.S)


def k_s(w, ring):
    """Twisted Laplacian Q_S + delta."""
    return q_s(w, ring) + delta(w)


def mu(w):
    """Isomorphism onto forms: (m, E) goes to signed (m, complement of E)."""
    out = {}
    for (exps, etas), n in w.nums.items():
        present = set(etas)
        dqs = tuple(i for i in range(len(exps)) if i not in present)
        out[(exps, dqs)] = -n if sum(etas) % 2 else n
    return FormElement.from_nums(w.denom, out)


def mu_inverse(omega):
    out = {}
    for (exps, dqs), n in omega.nums.items():
        present = set(dqs)
        etas = tuple(i for i in range(len(exps)) if i not in present)
        out[(exps, etas)] = -n if sum(etas) % 2 else n
    return SuperElement.from_nums(omega.denom, out)


def form_d(omega):
    """Exterior derivative on polynomial-coefficient forms."""
    out = {}
    for (exps, dqs), n in omega.nums.items():
        present = set(dqs)
        for i in range(len(exps)):
            if exps[i] == 0 or i in present:
                continue
            sign = _insert_sign(i, dqs)
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            key = (lowered, tuple(sorted(dqs + (i,))))
            out[key] = out.get(key, 0) + sign * n * exps[i]
    return FormElement.from_nums(omega.denom, out)


def wedge_df(f, omega):
    """Left wedge by the exact one-form df."""
    rows = f.partial_rows()
    out = {}
    for (exps, dqs), n in omega.nums.items():
        present = set(dqs)
        for i, row in rows.items():
            if i in present:
                continue
            signed = _insert_sign(i, dqs) * n
            grown = tuple(sorted(dqs + (i,)))
            for pe, pc in row:
                key = (monomial_mul(exps, pe), grown)
                out[key] = out.get(key, 0) + signed * pc
    return FormElement.from_nums(omega.denom * f.denom, out)


def twisted_d(omega, ring):
    """Differential d + dS wedge, conjugate to the twisted Laplacian."""
    return form_d(omega) + wedge_df(ring.S, omega)


def contract_euler(omega, phi):
    """Contraction with the Euler field of an integer weight functional phi."""
    out = {}
    for (exps, dqs), n in omega.nums.items():
        for pos, j in enumerate(dqs):
            if phi[j] == 0:
                continue
            sign = -1 if pos % 2 else 1
            raised = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
            key = (raised, _sorted_drop(dqs, pos))
            out[key] = out.get(key, 0) + sign * n * phi[j]
    return FormElement.from_nums(omega.denom, out)


def epsilon_w_s(omega, ring):
    """Anticommutator of the twisted differential with the weight contraction.

    On a weight-homogeneous form of weight w this acts as multiplication by
    w + S; the composite below is the definition, that closed form is what the
    tests check.
    """
    theta = contract_euler(omega, ring.var_weights)
    return twisted_d(theta, ring) + contract_euler(
        twisted_d(omega, ring), ring.var_weights
    )


def super_weight(ring, exps, etas):
    """Weight of one super term; each eta_i weighs 1 - weight(q_i)."""
    wts = ring.var_weights
    return sum(e * w for e, w in zip(exps, wts)) + sum(1 - wts[i] for i in etas)


def render_super(w, names, eta_names):
    """Canonical text form: eta groups ascending, then descending grevlex."""
    terms = w.terms
    keys = sorted(terms, key=lambda k: grevlex_key(k[0]), reverse=True)
    keys.sort(key=lambda k: k[1])
    return _join_terms(
        [
            _render_term(
                exps, terms[(exps, etas)], names, [eta_names[i] for i in etas]
            )
            for exps, etas in keys
        ]
    )


def parse_super(text, names, eta_names):
    """Inverse of render_super; each term's eta factors distinct and ascending."""
    var_index = {name: i for i, name in enumerate(names)}
    eta_index = {name: i for i, name in enumerate(eta_names)}
    terms = {}
    for coeff, powers in parse_terms(text):
        exps = [0] * len(names)
        etas = []
        for name, e in powers.items():
            if name in var_index:
                exps[var_index[name]] += e
            elif name in eta_index:
                etas.extend([eta_index[name]] * e)
            else:
                raise ValueError(f"unknown variable {name!r}")
        if any(a >= b for a, b in zip(etas, etas[1:])):
            factors = "*".join(eta_names[i] for i in etas)
            raise ValueError(f"eta factors {factors} not distinct and ascending")
        key = (tuple(exps), tuple(etas))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SuperElement(terms)
