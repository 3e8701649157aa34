"""Builders shared by the test modules, the dense rank over Q that the
tests check against sympy, the lognorm bound of a morphism and the
torsion of a cokernel, the free group ring arithmetic that the Fox
calculus oracle needs, a tuple-key quotient enumeration,
pointwise and copying crossed-ring products, an ambient comparison by
composed maps, a lognorm certificate check, the lognorm certificate by
its route on morphisms and by the CLI, the Rokhlin level contraction atom
by atom, the Rokhlin tile complex and embedding built by scans and
copying sums, and the benchmark's workload definitions."""

import importlib.util
import io
import json
import math
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from operator import add, mod
from pathlib import Path

from sympy import Matrix as SymMatrix

from torgrad.groups import fox_derivative, parse_word, reduce_word
from torgrad.crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    celt_add,
    celt_indicator,
    celt_mul,
    celt_sub,
    marked_inclusion,
    marked_projection,
    measure,
    morphism_stats,
    op_norm,
    vector_l1,
)
from torgrad.complexes import GHReport, MarkedComplex, induce_resolution
from torgrad.constructions import rokhlin_partition
from torgrad.discretize import (
    _sparse_rows,
    coinvariants_matrix,
    coinvariants_rank,
    invariant_factors,
    sparse_rank,
    to_dense,
)
from torgrad.lognorm import EXACT_ATOM_CAP, lognorm_rows
from torgrad.pipeline import main


def coinvariants_dense(f):
    """The coinvariants matrix of f as a dense list of rows."""
    return to_dense(coinvariants_matrix(f), coinvariants_rank(f.domain))


def lognorm_of(f, strategy):
    """The lognorm bound of the morphism f by the named strategy, read
    from its coinvariants matrix."""
    return lognorm_rows(coinvariants_matrix(f), coinvariants_rank(f.domain),
                        f.space.order, strategy)[0]


def log_torsion(a):
    """The log of the order of the torsion of the cokernel of the dense
    integer matrix a, from its invariant factors."""
    return sum(math.log(d) for d in invariant_factors(a) if d > 1)


def matrix_rank(a):
    """Rank over Q of a dense matrix by the sparse echelon, the entry that
    the tests check against sympy's rank."""
    return sparse_rank(_sparse_rows(a))


def cli_certificate(f, strategy, path):
    """The certificate that `torgrad lognorm` prints for f, run in this
    process on f's JSON written to path, in the form the reference gives:
    the value and blocks of (summand, point) atoms.  A refused input
    raises ValueError with the message of its config error."""
    path.write_text(json.dumps(f.to_json()))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["lognorm", "--input", str(path), "--strategy", strategy])
    if code:
        raise ValueError(err.getvalue().removeprefix("config error: "))
    cert = json.loads(out.getvalue().splitlines()[1])
    assert cert["strategy"] == strategy
    return cert["value"], [[tuple(atom) for atom in block]
                           for block in cert["blocks"]]


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


# finite quotients enumerated on tuple keys, one word per element, as an
# oracle for the packed keys and on-demand words of torgrad.groups

class ReferenceQuotient:
    """Breadth-first enumeration of a quotient spec over tuple keys: an
    abelian element is its tuple of residues, a permutation its one-line
    tuple.  Every element's word is built as it is found, by appending the
    step's letter to the parent's word or merging it into the last one."""

    def __init__(self, spec):
        if spec["kind"] == "abelian":
            moduli = tuple(spec["moduli"])
            k = len(moduli)
            vecs = spec.get("images") or [
                [1 if j == i else 0 for j in range(k)] for i in range(k)]
            gen_keys = [tuple(c % m for c, m in zip(v, moduli)) for v in vecs]
            identity = (0,) * k

            def key_mul(x, y):
                return tuple(map(mod, map(add, x, y), moduli))

            def key_inv(x):
                return tuple(-a % m for a, m in zip(x, moduli))
        else:
            rng = range(spec["degree"])
            gen_keys = [tuple(p) for p in spec["images"]]
            identity = tuple(rng)

            def key_mul(p, q):
                return tuple(p[q[i]] for i in rng)

            def key_inv(p):
                out = [0] * len(p)
                for i in rng:
                    out[p[i]] = i
                return tuple(out)
        self._key_mul = key_mul
        self._key_inv = key_inv
        self.keys = [identity]
        self.words = [()]
        self.index = {identity: 0}
        steps = []
        for gi, gk in enumerate(gen_keys):
            steps.append((gi, 1, gk))
            steps.append((gi, -1, key_inv(gk)))
        queue = deque([0])
        while queue:
            i = queue.popleft()
            base = self.words[i]
            last = base[-1] if base else None
            for gi, e, gk in steps:
                nk = key_mul(self.keys[i], gk)
                if nk in self.index:
                    continue
                self.index[nk] = len(self.keys)
                self.keys.append(nk)
                if last is not None and last[0] == gi:
                    merged = last[1] + e
                    self.words.append(base[:-1] + ((gi, merged),)
                                      if merged else base[:-1])
                else:
                    self.words.append(base + ((gi, e),))
                queue.append(self.index[nk])
        self.order = len(self.keys)
        self.generator_images = tuple(self.index[k] for k in gen_keys)
        self._cycles = {}

    def mul(self, i, j):
        return self.index[self._key_mul(self.keys[i], self.keys[j])]

    def inv(self, i):
        return self.index[self._key_inv(self.keys[i])]

    def power(self, i, n):
        # i^n read off the cycle 1, i, i^2, ... of i
        cycle = self._cycles.get(i)
        if cycle is None:
            cycle = self._cycles[i] = [0]
            x = i
            while x:
                cycle.append(x)
                x = self.mul(x, i)
        return cycle[n % len(cycle)]

    def left_table(self, g):
        return [self.mul(g, x) for x in range(self.order)]


# crossed-ring arithmetic evaluated point by point, as an oracle for the
# values of the in-place products of torgrad.crossring

def _pruned(z):
    return {g: {v: c for v, c in f.items() if c}
            for g, f in z.items() if any(f.values())}


def reference_celt_mul(space, x, y):
    """x * y from (f, g)(h, k) = (f * (g.h), g k) at every point v of the
    level, with (g.h)(v) = h(g^-1 v) read through mul and inv."""
    out = {}
    for g, f in x.items():
        back = space.inv(g)
        for k, h in y.items():
            fib = out.setdefault(space.mul(g, k), {})
            for v in range(space.order):
                fib[v] = (fib.get(v, 0)
                          + f.get(v, 0) * h.get(space.mul(back, v), 0))
    return _pruned(out)


def reference_celt_add(space, x, y, sign=1):
    """x + sign * y at every (group element, point) pair of the level."""
    return _pruned({g: {v: x.get(g, {}).get(v, 0)
                        + sign * y.get(g, {}).get(v, 0)
                        for v in range(space.order)}
                    for g in range(space.order)})


def reference_sum(space, terms):
    out = {}
    for z in terms:
        out = reference_celt_add(space, out, z)
    return out


def reference_apply(f, vec):
    return tuple(
        reference_sum(f.space, [reference_celt_mul(f.space, z, row[j])
                                for z, row in zip(vec, f.entries)])
        for j in range(f.codomain.rank))


def reference_aug_apply(eta, vec):
    """eta(x)(u) = sum_i sum_g f_g(u) * xi_i(g^-1 u) at every point u of
    the level, for x_i = sum_g (f_g, g) and xi_i = eta's value on
    summand i."""
    space = eta.space
    out = {}
    for u in range(space.order):
        c = sum(f.get(u, 0) * xi.get(space.mul(space.inv(g), u), 0)
                for z, xi in zip(vec, eta.values) for g, f in z.items())
        if c:
            out[u] = c
    return out


def reference_then(f, g):
    """Entries of g after f: entry (i, k) is sum_j f_ij * g_jk."""
    return tuple(
        tuple(reference_sum(f.space, [reference_celt_mul(f.space, a, col)
                                      for a, col in zip(row, cols)])
              for cols in zip(*g.entries))
        for row in f.entries)


# crossed-ring sums and products that copy before they add, as an oracle
# for the insertion order of the in-place products of torgrad.crossring

def copying_fn_add(f, g):
    out = dict(f)
    for u, c in g.items():
        s = out.get(u, 0) + c
        if s:
            out[u] = s
        else:
            out.pop(u, None)
    return out


def copying_celt_add(x, y):
    out = {g: dict(f) for g, f in x.items()}
    for g, f in y.items():
        merged = copying_fn_add(out.get(g, {}), f)
        if merged:
            out[g] = merged
        else:
            out.pop(g, None)
    return out


def copying_celt_mul(space, x, y):
    out = {}
    for g, f in x.items():
        table = space.left_table(g)
        for k, h in y.items():
            prod = {table[u]: f[table[u]] * c for u, c in h.items()
                    if table[u] in f}
            if prod:
                out = copying_celt_add(out, {table[k]: prod})
    return out


def insertion_order(z):
    """A ring element as nested lists of items, so == compares order."""
    return [(g, list(f.items())) for g, f in z.items()]


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
    values[i] = copying_fn_add(values[i], delta_fn)
    return rebuild(cx, aug_values=values)


def reference_gh_report(left, right, witness):
    """gh_verify by composed maps, as an oracle for its padded boundaries:
    each side's comparison in degree r is pi_r o d_r o iota_{r-1} through
    the prefix projection and inclusion, its augmentation row eta o pi_0,
    and the carrier symmetric difference is summed over every summand of
    the ambient."""
    ambients = witness.ambients
    space = left.space

    def carrier(m, t):
        return m.carriers[t] if t < m.rank else frozenset()

    symdiff = tuple(
        sum((measure(space, len(carrier(L, t) ^ carrier(R, t)))
             for t in range(P.rank)), Fraction(0))
        for L, R, P in zip(left.modules, right.modules, ambients))

    def comparison(cx, r):
        pi = marked_projection(ambients[r], cx.module(r))
        iota = marked_inclusion(cx.module(r - 1), ambients[r - 1])
        return pi.then(cx.boundary(r)).then(iota)

    diffs = [comparison(left, r).sub(comparison(right, r))
             for r in range(1, left.top_degree + 1)]
    aug_size = aug_linf = None
    if left.augmentation is not None:
        rows = [cx.augmentation.after(marked_projection(ambients[0],
                                                        cx.module(0)))
                for cx in (left, right)]
        diff = rows[0].sub(rows[1])
        aug_size, aug_linf = diff.size1(), diff.linf()
    return GHReport(
        symdiff=symdiff,
        map_sizes=tuple(morphism_stats(d).size1 for d in diffs),
        map_norms=tuple(op_norm(d) for d in diffs),
        aug_size=aug_size,
        aug_linf=aug_linf,
        delta=witness.delta,
        k=witness.k,
    )


def gh_within(report):
    """The measured witness stays inside its bounds: every size below
    delta and every norm at most k."""
    return report.max_size < report.delta and report.max_norm <= report.k


def certificate_value(f, blocks):
    """The bound of a lognorm certificate from its definition, after
    checking that its blocks are disjoint and cover every atom of nonzero
    norm: each block adds min(size, rank) * log+ (largest atom norm) / |G|,
    the rank taken by sympy over the block's coinvariant columns."""
    norms = atom_image_masses(f)
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


def atom_image_masses(f):
    """The l1 mass of the image of each domain atom (i, u), by applying f
    to the atom, keyed in atom order."""
    return {(i, u): vector_l1(f.apply(f.domain.atom(i, u)))
            for i, u in f.domain.atoms()}


def _list_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _list_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def reference_lognorm_certificate(f, strategy):
    """The lognorm certificate by its route on morphisms: atom norms summed
    over the fibres of f, blocks hashed as frozensets of (summand, point)
    atoms, and block ranks taken by sympy over the columns of
    coinvariants_dense(f), as certificate_value takes them."""
    masses = [{} for _ in f.entries]
    for i, row in enumerate(f.entries):
        for z in row:
            for fn in z.values():
                for u, c in fn.items():
                    masses[i][u] = masses[i].get(u, 0) + abs(c)
    norms = {(i, u): masses[i].get(u, 0) for i, u in f.domain.atoms()}
    columns = dict(zip(f.domain.atoms(), zip(*coinvariants_dense(f))))
    cache = {}

    def value(block):
        key = frozenset(block)
        if key not in cache:
            norm = max(norms[a] for a in key)
            cache[key] = 0.0
            if norm > 1:
                rank = SymMatrix([list(columns[a]) for a in key]).rank()
                weight = Fraction(min(len(key), rank), f.space.order)
                cache[key] = float(weight) * math.log(norm)
        return cache[key]

    def total(blocks):
        return sum(value(b) for b in blocks)

    live = sorted(a for a, n in norms.items() if n)
    if not live:
        return 0.0, []
    by_norm = {}
    for a in live:
        by_norm.setdefault(norms[a], []).append(a)
    singles = [sorted(v) for _, v in sorted(by_norm.items())]
    if strategy == "block":
        return value(live), [list(live)]
    if strategy == "atoms":
        return total(singles), singles
    if strategy == "greedy":
        blocks = [frozenset(b) for b in singles]
        while len(blocks) > 1:
            best = None
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    merged = blocks[i] | blocks[j]
                    gain = value(merged) - value(blocks[i]) - value(blocks[j])
                    if gain < -1e-12 and (best is None or gain < best[0]):
                        best = (gain, i, j, merged)
            if best is None:
                break
            _, i, j, merged = best
            blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
            blocks.append(merged)
        blocks = [sorted(b) for b in blocks]
        single, spread = value(live), total(blocks)
        return (single, [list(live)]) if single < spread else (spread, blocks)
    if strategy == "exact":
        if len(live) > EXACT_ATOM_CAP:
            raise ValueError(
                f"{len(live)} atoms exceed the exhaustive cap {EXACT_ATOM_CAP}"
            )
        best_val, best_blocks = None, None
        for part in _list_partitions(live):
            val = total(part)
            if best_val is None or val < best_val:
                best_val, best_blocks = val, part
        return best_val, best_blocks
    raise ValueError(f"unknown strategy {strategy!r}")


def reference_level_contraction(result):
    """rokhlin_level_contraction atom by atom: for every atom (chi_u, t^m)
    with u in t^m C, c_0 built from scratch, d_1 applied to all of it, and
    c_{-1} o eta(z) = eta(z) x formed by its own ring product."""
    M = result.modulus
    space = result.complex.space
    point = result.point
    exponent = {point[m]: m for m in range(M)}
    shifts = [frozenset(point[(exponent[p] + j) % M] for p in result.carrier)
              for j in range(M)]
    x = result.witness[0]
    d1 = result.complex.boundary(1)
    aug = result.complex.augmentation
    for m in range(M):
        g = point[m]
        for u in shifts[m]:
            z = {g: {u: 1}}
            c0 = {point[j]: {u: -1} for j in range(m) if u in shifts[j]}
            lhs = d1.apply((c0,))[0]
            eta = aug.apply((z,))
            if lhs != celt_sub(z, celt_mul(space, {0: eta}, x)):
                return False
    return True


def _reference_shifted(point, points, shift):
    """t^shift points, found by a scan of every residue."""
    M = len(point)
    return frozenset(point[(r + shift) % M]
                     for r in range(M) if point[r] in points)


def reference_rokhlin_partition(modulus, tile):
    """The base, remainder, boundary entry and witness of
    rokhlin_partition(modulus, tile) by name, each set found again by a
    scan of the residues and each sum built by copying additions, one
    piece at a time."""
    M, N = modulus, tile
    point = rokhlin_partition(M, N).point
    q = M // N
    base = frozenset(point[j * N] for j in range(q))
    remainder = frozenset(point[k] for k in range(q * N, M))
    x = {}
    for j in range(N):
        x = celt_add(x, celt_indicator(
            _reference_shifted(point, base, j), point[j]))
    x = celt_add(x, celt_indicator(remainder))
    entry = celt_indicator(base | remainder)
    entry = celt_sub(entry, celt_indicator(
        _reference_shifted(point, base, N), point[N % M]))
    entry = celt_sub(entry, celt_indicator(
        _reference_shifted(point, remainder, 1), point[1 % M]))
    return {"base": base, "remainder": remainder, "x": x, "entry": entry}


def reference_integers_embedding(rok):
    """The entries of f_0, f_1, r_0, r_1 and h_0 of integers_embedding(rok)
    by name, built the same way as reference_rokhlin_partition."""
    N, point = rok.tile, rok.point
    tile_top = _reference_shifted(point, rok.base, N)
    x_tilde = {}
    for j in range(N):
        x_tilde = celt_add(x_tilde, celt_indicator(tile_top, point[j]))
    x_tilde = celt_add(x_tilde, celt_indicator(
        _reference_shifted(point, rok.remainder, 1)))
    h_entry = {}
    for j in range(N):
        piece = _reference_shifted(point, rok.base, j)
        for k in range(j):
            h_entry = celt_sub(h_entry, celt_indicator(piece, point[k]))
    chi_c = celt_indicator(rok.carrier)
    return {"f0": rok.witness[0], "f1": chi_c, "r0": chi_c, "r1": x_tilde,
            "h0": h_entry}


def bench_workloads():
    """perfbench/workloads.py, read only: its configs and golden CSVs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module
