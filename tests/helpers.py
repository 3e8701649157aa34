"""Builders shared by the test modules, the free group ring arithmetic
that the Fox calculus oracle needs, and a lognorm certificate check."""

import math

from sympy import Matrix as SymMatrix

from torgrad.groups import fox_derivative, parse_word, reduce_word
from torgrad.crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    atom_norms,
    celt_add,
    fn_add,
)
from torgrad.complexes import MarkedComplex, induce_resolution
from torgrad.discretize import coinvariants_matrix, coinvariants_rank, to_dense


def coinvariants_dense(f):
    """The coinvariants matrix of f as a dense list of rows."""
    return to_dense(coinvariants_matrix(f), coinvariants_rank(f.domain))


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_mul(a, b):
    """Dense product of integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def w(s):
    return parse_word(s)


# integral group ring of the free group: {reduced word: nonzero coeff}

def word_mul(u, v):
    return reduce_word(tuple(u) + tuple(v))


def ring_from_word(word, coeff=1):
    return {tuple(word): coeff} if coeff else {}


def ring_one():
    return {(): 1}


def ring_add(x, y):
    out = dict(x)
    for word, c in y.items():
        s = out.get(word, 0) + c
        if s:
            out[word] = s
        else:
            out.pop(word, None)
    return out


def ring_sub(x, y):
    return ring_add(x, {word: -c for word, c in y.items()})


def ring_mul(x, y):
    out = {}
    for u, cu in x.items():
        for v, cv in y.items():
            word = word_mul(u, v)
            s = out.get(word, 0) + cu * cv
            if s:
                out[word] = s
            else:
                out.pop(word, None)
    return out


def fox_identity_defect(word, num_generators):
    """sum_g d(word)/dg * (g - 1) - (word - 1); zero for every word."""
    total = {}
    for g in range(num_generators):
        bracket = ring_add(ring_from_word(((g, 1),)), ring_from_word((), -1))
        total = ring_add(total, ring_mul(fox_derivative(word, g), bracket))
    return ring_sub(total, ring_sub(ring_from_word(word), ring_one()))


def gm1(s):
    # g - 1 in the group ring
    return {w(s): 1, (): -1}


def free_complex(space, letters="ab"):
    mat = [[gm1(c)] for c in letters]
    return induce_resolution(space, [1, len(letters)], [mat])


def koszul2(space):
    return induce_resolution(
        space,
        [1, 2, 1],
        [
            [[gm1("a")], [gm1("b")]],
            [[{w("b"): -1, (): 1}, gm1("a")]],
        ],
    )


def zres(space, image):
    """Resolution of a single generator pushed along t -> image."""
    return induce_resolution(space, [1, 1], [[[gm1("a")]]], gen_images=[image])


def rebuild(cx, modules=None, entries_patch=None, aug_values=None):
    """Copy a complex, optionally with new modules, patched boundary
    entries {degree: entries}, or new augmentation values."""
    modules = list(modules if modules is not None else cx.modules)
    boundaries = []
    for r in range(1, cx.top_degree + 1):
        entries = (
            entries_patch[r]
            if entries_patch and r in entries_patch
            else [list(row) for row in cx.boundary(r).entries]
        )
        boundaries.append(MarkedMorphism(modules[r], modules[r - 1], entries))
    aug = None
    if cx.augmentation is not None:
        values = list(aug_values if aug_values is not None
                      else cx.augmentation.values)
        aug = Augmentation(modules[0], values)
    return MarkedComplex(modules, boundaries, aug)


def restricted_copy(cx, degree, summand, removed):
    """Copy with carrier points removed from one summand of one degree."""
    modules = list(cx.modules)
    carriers = list(modules[degree].carriers)
    carriers[summand] = carriers[summand] - frozenset(removed)
    modules[degree] = MarkedModule(cx.space, carriers)
    return rebuild(cx, modules=modules)


def with_boundary_extra(cx, r, i, j, extra):
    """Copy with ``extra`` added to entry (i, j) of the degree r boundary."""
    entries = [list(row) for row in cx.boundary(r).entries]
    entries[i][j] = celt_add(entries[i][j], extra)
    return rebuild(cx, entries_patch={r: entries})


def with_aug_extra(cx, i, delta_fn):
    values = list(cx.augmentation.values)
    values[i] = fn_add(values[i], delta_fn)
    return rebuild(cx, aug_values=values)


def certificate_value(f, blocks):
    """The bound of a lognorm certificate from its definition, after
    checking that its blocks are disjoint and cover every atom of nonzero
    norm: each block adds min(size, rank) * log+ (largest atom norm) / |G|,
    the rank taken by sympy over the block's coinvariant columns."""
    norms = atom_norms(f)
    atoms = [atom for block in blocks for atom in block]
    assert len(atoms) == len(set(atoms)), "blocks overlap"
    assert {a for a, n in norms.items() if n} <= set(atoms), "atoms uncovered"
    columns = dict(zip(f.domain.atoms(), zip(*coinvariants_dense(f))))
    total = 0.0
    for block in blocks:
        peak = max(norms[a] for a in block)
        if peak > 1:
            rank = SymMatrix([list(columns[a]) for a in block]).rank()
            total += min(len(block), rank) * math.log(peak)
    return total / f.space.order
