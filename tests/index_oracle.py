"""Per-element index arithmetic, kept as the tests' oracle.

The library builds the tables of its structure maps from per-digit
contributions (finset.digit_table) and never decodes an index.  Here every
index is decoded into response tables, rearranged and encoded again, one
element at a time, so the tests can check the library's tables against
these loops.
"""

from dialnet.finset import hom_shape, tensor_shape


def pair_index(i: int, j: int, b_size: int) -> int:
    """Index of the pair (i, j) in A x B, row-major, with |B| = b_size."""
    return i * b_size + j


def fn_index(table: tuple[int, ...], base_size: int) -> int:
    """Index of a table in base^|table|, read as a numeral with table[0] high."""
    k = 0
    for t in table:
        k = k * base_size + t
    return k


def fn_from_index(k: int, dom_size: int, base_size: int) -> tuple[int, ...]:
    digits = [0] * dom_size
    for pos in range(dom_size - 1, -1, -1):
        k, digits[pos] = divmod(k, base_size)
    return tuple(digits)


def fn_pair_index(f: tuple[int, ...], f_base: int, g: tuple[int, ...], g_base: int) -> int:
    """Index of the table pair (f, g) in X^V x Y^U, with |X| = f_base, |Y| = g_base."""
    return fn_index(f, f_base) * g_base ** len(g) + fn_index(g, g_base)


def fn_pair_from_index(
    k: int, f_dom: int, f_base: int, g_dom: int, g_base: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The table pair with index k in f_base^f_dom x g_base^g_dom."""
    fi, gi = divmod(k, g_base**g_dom)
    return fn_from_index(fi, f_dom, f_base), fn_from_index(gi, g_dom, g_base)


# -- the structure maps' tables, one element at a time, from carrier shapes and tables


def associator_bwd(a, b, c) -> tuple[int, ...]:
    """Backward table of tensor(tensor(a, b), c) -> tensor(a, tensor(b, c)), for shapes a, b, c."""
    (au, ax), (bv, by), (cw, cz) = a, b, c
    ab_neg = tensor_shape(a, b)[1]
    bc_neg = tensor_shape(b, c)[1]
    table = []
    for idx in range(tensor_shape(a, tensor_shape(b, c))[1]):
        # target response: f on V x W, and per u a pair (g_u on W, h_u on V)
        f, k = fn_pair_from_index(idx, bv * cw, ax, au, bc_neg)
        gh = [fn_pair_from_index(ku, cw, by, bv, cz) for ku in k]
        # source response: per w a pair (f(-, w), g_-(w)), and h on U x V
        m = tuple(fn_pair_index(f[w::cw], ax, tuple(g[w] for g, _ in gh), by) for w in range(cw))
        n = tuple(z for _, h in gh for z in h)
        table.append(fn_pair_index(m, ab_neg, n, cz))
    return tuple(table)


def symmetry_bwd(a, b) -> tuple[int, ...]:
    """Backward table of tensor(a, b) -> tensor(b, a), for shapes a, b."""
    (au, ax), (bv, by) = a, b
    table = []
    for idx in range(tensor_shape(b, a)[1]):
        g, f = fn_pair_from_index(idx, au, by, bv, ax)
        table.append(fn_pair_index(f, ax, g, by))
    return tuple(table)


def tensor_mor_bwd(src1, tgt1, src2, tgt2, f, fb, g, gb) -> tuple[int, ...]:
    """Backward table of the tensor of (f, fb): src1 -> tgt1 and (g, gb): src2 -> tgt2."""
    (up_t, xn_t), (vp_t, yn_t) = tgt1, tgt2
    xn_s, yn_s = src1[1], src2[1]
    table = []
    for c in range(tensor_shape(tgt1, tgt2)[1]):
        fp, gp = fn_pair_from_index(c, vp_t, xn_t, up_t, yn_t)
        new_f = tuple(fb[fp[gv]] for gv in g)
        new_g = tuple(gb[gp[fu]] for fu in f)
        table.append(fn_pair_index(new_f, xn_s, new_g, yn_s))
    return tuple(table)


def hom_mor_fwd(a_prime, a, b, b_prime, f, fb, g, gb) -> tuple[int, ...]:
    """Forward table of hom(a, b) -> hom(a', b') for (f, fb): a' -> a and (g, gb): b -> b'."""
    table = []
    for idx in range(hom_shape(a, b)[0]):
        h, big_h = fn_pair_from_index(idx, a[0], b[0], b[1], a[1])
        new_h = tuple(g[h[fu]] for fu in f)
        new_big_h = tuple(fb[big_h[gy]] for gy in gb)
        table.append(fn_pair_index(new_h, b_prime[0], new_big_h, a_prime[1]))
    return tuple(table)
