"""Exact evaluation of every closed-form count, base value, bound and
product rule used by the toolkit.

All values are arbitrary-precision integers, and so is every
intermediate.  Each closed form is one exact division of an integer
numerator by an integer denominator.  A 2-exponent can go negative in a
valid parameter range (the smallest odd-size case over Z/4Z has 2^-1), so
such a power moves to the denominator instead (_ratio_pow2).  A division
with a remainder is a hard InexactDivision, never a rounding.
"""

import math

from .modring import factorize


class InexactResult(ArithmeticError):
    """A formula produced a non-integer; indicates a bug, not bad input."""


class InexactDivision(InexactResult):
    """An internal exact division had a remainder."""


class UnsupportedCase(ValueError):
    """Parameters outside the range any formula covers."""


class NonSquarefree(ValueError):
    """crt_count's modulus pieces share a prime; crt.split, which yields
    coprime prime powers for every modulus, no longer raises it."""


PLUS = 1
MINUS = -1


def normalize_sign(sign) -> int:
    if sign in (PLUS, MINUS):
        return sign
    if sign in ("+", "plus"):
        return PLUS
    if sign in ("-", "minus"):
        return MINUS
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def sign_name(sign: int) -> str:
    return "+" if sign == PLUS else "-"


class FormulaValue:
    """An exact integer tagged with the formula that produced it.

    Not a tuple: arithmetic on it must go through int(), never build a
    sequence.
    """

    __slots__ = ("value", "formula_id", "params")

    def __init__(self, value: int, formula_id: str, params: tuple = ()):
        self.value = value
        self.formula_id = formula_id
        self.params = params

    def __int__(self):
        return self.value

    __index__ = __int__

    def __eq__(self, other):
        if isinstance(other, FormulaValue):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.formula_id}({inner}) = {self.value}"


def _exact(num: int, den: int, formula_id: str, params) -> int:
    """num / den for den > 0, which must divide exactly; the error shows
    the quotient in lowest terms."""
    quotient, remainder = divmod(num, den)
    if remainder:
        g = math.gcd(num, den)
        raise InexactDivision(
            f"{formula_id}{tuple(params)} is not an integer: {num // g}/{den // g}")
    return quotient


def _ratio_pow2(num: int, exponent: int, den: int, formula_id: str, params) -> int:
    """num * 2^exponent / den exactly; a negative exponent shifts the
    denominator instead of the numerator."""
    if exponent >= 0:
        return _exact(num << exponent, den, formula_id, params)
    return _exact(num, den << -exponent, formula_id, params)


def gauss_bracket(m: int, k: int) -> int:
    """(k^m - 1) / (k - 1): 1 + k + ... + k^(m-1)."""
    if m < 1 or k < 2:
        raise ValueError("need m >= 1 and k >= 2")
    return _exact(k ** m - 1, k - 1, "gauss_bracket", (m, k))


def gauss_binom2(m: int, k: int) -> int:
    """(k^m - 1)(k^(m-1) - 1) / ((k - 1)(k^2 - 1))."""
    if m < 1 or k < 2:
        raise ValueError("need m >= 1 and k >= 2")
    return _exact((k ** m - 1) * (k ** (m - 1) - 1), (k - 1) * (k * k - 1),
                  "gauss_binom2", (m, k))


def _prime_of(q: int) -> int:
    """The prime p with q = p^e, or raise for non prime powers."""
    pairs = factorize(q)
    if len(pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    return pairs[0][0]


def u_count(n: int, q: int, sign) -> FormulaValue:
    """Number of size-n tuples over the field with q elements whose
    continuant product is +Id (sign +1) or -Id (sign -1); valid for n > 4.

    The +Id count has no known closed form in characteristic 2, so that
    case is rejected rather than guessed.
    """
    sign = normalize_sign(sign)
    if n <= 4:
        raise UnsupportedCase(f"u_count needs size > 4, got {n}")
    p = _prime_of(q)
    params = (("n", n), ("q", q), ("sign", sign_name(sign)))
    if n % 2:
        if sign == PLUS and p == 2:
            raise UnsupportedCase("no +Id formula in characteristic 2")
        value = gauss_bracket((n - 1) // 2, q * q)
        return FormulaValue(value, "u_count", params)
    half = n // 2
    base = (q - 1) * gauss_binom2(half, q)
    extra = q ** (half - 1)
    if sign == MINUS:
        value = base if (p > 2 and half % 2 == 0) else base + extra
    else:
        if p == 2:
            raise UnsupportedCase("no +Id formula in characteristic 2")
        value = base + extra if half % 2 == 0 else base
    return FormulaValue(value, "u_count", params)


def w4_ring4(n: int, sign) -> FormulaValue:
    """Number of size-n solution tuples over Z/4Z for the given sign; n >= 3."""
    sign = normalize_sign(sign)
    if n < 3:
        raise UnsupportedCase(f"w4_ring4 needs size >= 3, got {n}")
    params = (("n", n), ("sign", sign_name(sign)))
    # every 2-exponent is at least 0 for n >= 3
    if n % 2:
        value = 2 ** (2 * (n - 2)) - 2 ** (n - 3)
    else:
        bigger = 2 ** (2 * (n - 2)) + 4 * 2 ** (n - 3)
        smaller = 2 ** (2 * (n - 2)) - 2 ** (n - 2)
        half_even = (n // 2) % 2 == 0
        if half_even:
            value = bigger if sign == PLUS else smaller
        else:
            value = smaller if sign == PLUS else bigger
    return FormulaValue(_exact(value, 3, "w4_ring4", (n, sign)), "w4_ring4", params)


def w_odd_2m(n_half: int, m: int, sign) -> FormulaValue:
    """Number of solution tuples of odd size 2*n_half + 1 over Z/2^m Z.

    The two signs agree (negating every entry swaps them), so the sign
    only labels the result.  The leading 2-exponent is negative when
    n_half == m == 2; it then divides the denominator.
    """
    sign = normalize_sign(sign)
    if n_half < 2 or m < 2:
        raise UnsupportedCase("w_odd_2m needs n_half >= 2 and m >= 2")
    n = n_half
    value = _ratio_pow2(2 ** (2 * n + 3) - 8, 2 * m * n - 2 * n - 2 * m - 1, 3,
                        "w_odd_2m", (n, m))
    params = (("n_half", n), ("m", m), ("sign", sign_name(sign)))
    return FormulaValue(value, "w_odd_2m", params)


def _target_family(target: str) -> str:
    if target in ("id", "neg-id", "t", "neg-t"):
        return "id"
    if target in ("s", "neg-s"):
        return "s"
    raise ValueError(f"unknown target {target!r}")


def delta_closed_form(n: int, m: int, target: str = "id") -> FormulaValue:
    """Number of size-n tuples over Z/2^m Z with the given product whose
    second entry is a unit; closed form valid for n > 4.

    Targets +-Id and +-T share one formula; +-S has its own.
    """
    if n <= 4:
        raise UnsupportedCase(f"delta_closed_form needs size > 4, got {n}")
    if m < 2:
        raise UnsupportedCase("need m >= 2")
    if _target_family(target) == "id":
        num, exponent = 2 ** (n + 1) + 8 * (-1) ** (n + 1), m * n - n - 3 * m
    else:
        num, exponent = 2 ** n + (-1) ** n * 8, m * n - n - 3 * m + 1
    value = _ratio_pow2(num, exponent, 3, "delta_closed_form", (n, m, target))
    params = (("n", n), ("m", m), ("target", target))
    return FormulaValue(value, "delta_closed_form", params)


def delta_base(n: int, m: int, target: str = "id") -> FormulaValue:
    """Unit-second-entry counts at the recursion base sizes 3 and 4."""
    if n not in (3, 4):
        raise UnsupportedCase(f"delta_base covers sizes 3 and 4, got {n}")
    if m < 2:
        raise UnsupportedCase("need m >= 2")
    if _target_family(target) == "id":
        value = 1 if n == 3 else 2 ** (m - 1)
    else:
        value = 0 if n == 3 else 2 ** m
    return FormulaValue(value, "delta_base", (("n", n), ("m", m), ("target", target)))


def delta_value(n: int, m: int, target: str = "id") -> FormulaValue:
    """delta_base, delta_closed_form, or the enumerated size-2 value 0."""
    if n == 2:
        if m < 2:
            raise UnsupportedCase("need m >= 2")
        # A 2-letter product is [[a1*a2 - 1, -a2], [a1, -1]]; the fixed -1
        # rules out every named target except -Id (needs a2 = 0, not a
        # unit) and -T (exactly (0, 1)).  Backed by enumeration for m >= 2;
        # over Z/2Z, -T is T and the count at T is 1.
        value = 1 if target == "neg-t" else 0
        return FormulaValue(value, "delta_value", (("n", 2), ("m", m), ("target", target)))
    if n in (3, 4):
        return delta_base(n, m, target)
    return delta_closed_form(n, m, target)


def delta_recursion(prev, prev2, m: int) -> FormulaValue:
    """One step of the two-term recursion: 2^(m-1)*prev + 2^(2m-1)*prev2."""
    if m < 1:
        raise UnsupportedCase("need m >= 1")
    value = 2 ** (m - 1) * int(prev) + 2 ** (2 * m - 1) * int(prev2)
    return FormulaValue(value, "delta_recursion",
                        (("prev", int(prev)), ("prev2", int(prev2)), ("m", m)))


def w4_2m(m: int, sign) -> FormulaValue:
    """Size-4 counts over Z/2^m Z: (m+2)*2^(m-1) for +Id, 2^m for -Id."""
    sign = normalize_sign(sign)
    if m < 2:
        raise UnsupportedCase("need m >= 2")
    value = (m + 2) * 2 ** (m - 1) if sign == PLUS else 2 ** m
    return FormulaValue(value, "w4_2m", (("m", m), ("sign", sign_name(sign))))


def w_even_bounds(n_half: int, m: int, sign) -> tuple[FormulaValue, FormulaValue]:
    """Sandwich bounds for the number of solution tuples of even size
    2*n_half over Z/2^m Z; valid for n_half >= 3.

    Both bounds share the first two terms; the upper bound carries its two
    terms on the same smaller set size, kept separate as stated rather
    than merged.
    """
    sign = normalize_sign(sign)
    if n_half < 3 or m < 2:
        raise UnsupportedCase("w_even_bounds needs n_half >= 3 and m >= 2")
    n2 = 2 * n_half
    d_full = int(delta_value(n2, m))
    d_minus1 = int(delta_value(n2 - 1, m))
    d_minus4 = int(delta_value(n2 - 4, m))
    lower = d_full + 2 ** (m - 1) * d_minus1 + m * 2 ** (m - 1) * d_minus4
    upper = d_full + 2 ** (m - 1) * d_minus1 + 2 ** (2 * m - 2) * d_minus1
    params = (("n_half", n_half), ("m", m), ("sign", sign_name(sign)))
    return (FormulaValue(lower, "w_even_lower", params),
            FormulaValue(upper, "w_even_upper", params))


def w8_even(n_half: int) -> FormulaValue:
    """Total (both signs) number of solution tuples of even size 2*n_half
    over Z/8Z; valid for n_half >= 2."""
    if n_half < 2:
        raise UnsupportedCase("w8_even needs n_half >= 2")
    n = n_half
    # 28 * 8^(n-2) + tail / 3, over the common denominator 3
    tail = 2 ** (4 * n - 5) - 2 ** (3 * n - 3) + 2 ** (6 * n - 6) - 2 ** (3 * n)
    value = _exact(3 * 28 * 8 ** (n - 2) + tail, 3, "w8_even", (n,))
    return FormulaValue(value, "w8_even", (("n_half", n),))


def w8_odd(n_half: int, sign) -> FormulaValue:
    """Per-sign number of solution tuples of odd size 2*n_half + 1 over
    Z/8Z; the m = 3 specialization of w_odd_2m, evaluated independently."""
    sign = normalize_sign(sign)
    if n_half < 2:
        raise UnsupportedCase("w8_odd needs n_half >= 2")
    n = n_half
    value = _exact(2 ** (6 * n - 2 * n - 7) * (2 ** (2 * n + 3) - 8), 3, "w8_odd", (n,))
    params = (("n_half", n), ("sign", sign_name(sign)))
    return FormulaValue(value, "w8_odd", params)


def crt_count(n: int, pieces, sign) -> FormulaValue:
    """Product of per-piece counts across coprime modulus pieces.

    ``pieces`` is a sequence of (piece modulus, count) whose moduli are
    pairwise coprime, any prime powers or products of them.
    """
    sign = normalize_sign(sign)
    pieces = [(int(mod_piece), int(cnt)) for mod_piece, cnt in pieces]
    moduli = [mod_piece for mod_piece, _ in pieces]
    if math.lcm(*moduli) != math.prod(moduli):
        raise NonSquarefree(f"modulus pieces {moduli} are not pairwise coprime")
    value = math.prod(cnt for _, cnt in pieces)
    params = (("n", n), ("pieces", tuple(pieces)), ("sign", sign_name(sign)))
    return FormulaValue(value, "crt_count", params)


def zero_pair_count(m: int) -> FormulaValue:
    """m * 2^(m-1): non-unit pairs of Z/2^m Z with product zero."""
    if m < 2:
        raise UnsupportedCase("need m >= 2")
    return FormulaValue(m * 2 ** (m - 1), "zero_pair_count", (("m", m),))
