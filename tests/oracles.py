"""Reference implementations the tests check the package against."""


def smul(s1, s2):
    """Full product of two harmonic signals {(harmonic, powA, powAbar): coeff}."""
    out = {}
    for k1, v1 in s1.items():
        for k2, v2 in s2.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def resonant_by_full_product(coeff, sa, sb, sc):
    """coeff times the (1, 2, 1) coefficient of the full triple product."""
    return coeff * smul(smul(sa, sb), sc).get((1, 2, 1), 0.0)
