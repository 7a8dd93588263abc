"""Exact coefficient rings and sparse linear combinations over arbitrary labels.

Three rings are supported: the integers ("z"), the rationals ("q") and the
integers modulo n ("zmod:<n>").  Ring elements are plain Python values --
arbitrary-precision ints, reduced Fractions, or residues in [0, n) -- kept
canonical by the ring object, so equality of elements is plain ``==``.

A :class:`LinComb` is an immutable sparse linear combination of hashable
labels with coefficients in one ring.  Zero coefficients are never stored
and labels serialize in a fixed total order, so two equal elements have
byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InputError(ValueError):
    """Malformed or out-of-range input from a caller; the CLI reports it as a usage error."""


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above decides primality for every n below this bound.
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """One of the integers, the rationals, or the integers modulo n >= 2."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("z", "q", "zmod"):
            raise InputError(f"unknown ring kind {self.kind!r}")
        if self.kind == "zmod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise InputError("modulus must be an integer >= 2")
        elif self.modulus is not None:
            raise InputError("modulus only makes sense for zmod")

    @classmethod
    def integers(cls) -> "CoefficientRing":
        return cls("z")

    @classmethod
    def rationals(cls) -> "CoefficientRing":
        return cls("q")

    @classmethod
    def integers_mod(cls, n: int) -> "CoefficientRing":
        return cls("zmod", n)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "q" else 1 % self.modulus if self.kind == "zmod" else 1

    def normalize(self, value):
        """Coerce ``value`` into canonical form, rejecting non-exact input and bools.

        Ints are read on every ring, and Fractions over Q or, when whole,
        over Z and Z/n; any other type, a string or a Decimal among them,
        is refused.
        """
        if type(value) is int:
            if self.kind == "z":
                return value
            return Fraction(value) if self.kind == "q" else value % self.modulus
        if isinstance(value, (bool, float)):
            raise TypeError(f"{value!r} is not an exact element of {self}")
        if self.kind == "q":
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"{value!r} is not an exact element of {self}")
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise TypeError(f"{value} is not an element of {self}")
            value = value.numerator
        if not isinstance(value, int):
            raise TypeError(f"{value!r} is not an element of {self}")
        return value % self.modulus if self.kind == "zmod" else value

    def from_int(self, k: int):
        """Image of the integer k under the canonical map from the integers."""
        if not isinstance(k, int):
            raise TypeError("from_int expects an int")
        return self.normalize(k)

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        a = self.normalize(a)
        if self.kind == "z":
            return a in (1, -1)
        if self.kind == "q":
            return a != 0
        return gcd(a, self.modulus) == 1

    @property
    def is_field(self) -> bool:
        if self.kind == "q":
            return True
        if self.kind == "zmod":
            if self.modulus >= _PRIME_TEST_BOUND:
                raise InputError(f"modulus {self.modulus} is too large to decide whether Z/n is a field")
            return _is_probable_prime(self.modulus)
        return False

    def format_coeff(self, a) -> str:
        return str(self.normalize(a))

    def parse_coeff(self, s: str):
        """Inverse of :meth:`format_coeff`: ASCII digits, an optional leading minus and an optional denominator."""
        num, slash, den = s.partition("/")
        if not (_is_ascii_digits(num.removeprefix("-")) and (not slash or _is_ascii_digits(den))):
            raise ValueError(f"malformed coefficient {s!r}")
        if self.kind == "q":
            return Fraction(s)
        if "/" in s:
            num, den = s.split("/", 1)
            if int(den) != 1:
                raise ValueError(f"{s!r} is not an element of {self}")
            return self.normalize(int(num))
        return self.normalize(int(s))

    @property
    def tag(self) -> str:
        """Short serialization tag: "z", "q" or "zmod:<n>"."""
        return f"zmod:{self.modulus}" if self.kind == "zmod" else self.kind

    def __str__(self):
        if self.kind == "z":
            return "Z"
        if self.kind == "q":
            return "Q"
        return f"Z/{self.modulus}"


ZZ = CoefficientRing.integers()
QQ = CoefficientRing.rationals()


def integers_mod(n: int) -> CoefficientRing:
    return CoefficientRing.integers_mod(n)


def _is_ascii_digits(text: str) -> bool:
    """Whether ``text`` is one or more of the digits 0-9, which ``int()`` reads as written."""
    return text.isascii() and text.isdigit()


def parse_ring(tag: str) -> CoefficientRing:
    """Inverse of :attr:`CoefficientRing.tag`; the modulus of ``zmod:<n>`` is in ASCII digits."""
    if tag == "z":
        return ZZ
    if tag == "q":
        return QQ
    modulus = tag.removeprefix("zmod:")
    if modulus != tag and _is_ascii_digits(modulus):
        return integers_mod(int(modulus))
    raise InputError(f"unknown ring tag {tag!r}")


def _terms_to_json(ring: CoefficientRing, items, label_to_json) -> dict:
    """The JSON of a linear combination: its ring tag and its ``(label, coeff)`` items, in the order given."""
    format_coeff = ring.format_coeff
    return {"ring": ring.tag, "terms": [{"coeff": format_coeff(c), "label": label_to_json(l)} for l, c in items]}


def _label_key(label):
    """Deterministic total order on labels: a label's own sort_key if any."""
    return getattr(label, "sort_key", label)


class LinComb:
    """An immutable sparse linear combination of labels over one ring.

    ``terms`` may be a dict or an iterable of (label, coefficient) pairs;
    repeated labels are summed and zero coefficients dropped.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: CoefficientRing, terms=()):
        self.ring = ring
        normalize = ring.normalize
        if isinstance(terms, dict):
            # a dict repeats no label, so each value is normalised once
            self._terms = {l: v for l, c in terms.items() if (v := normalize(c)) != 0}
        else:
            tally: dict = {}
            for label, coeff in terms:
                coeff = normalize(coeff)
                if label in tally:
                    coeff = normalize(tally[label] + coeff)
                tally[label] = coeff
            self._terms = {l: c for l, c in tally.items() if c != 0}

    @classmethod
    def _reduced(cls, ring: CoefficientRing, terms: dict) -> "LinComb":
        """Internal constructor skipping reduction: ``terms`` already canonical in the ring, nonzero, and not shared."""
        self = cls.__new__(cls)
        self.ring = ring
        self._terms = terms
        return self

    @classmethod
    def zero(cls, ring: CoefficientRing) -> "LinComb":
        return cls(ring)

    @classmethod
    def linear_combination(cls, ring: CoefficientRing, pairs) -> "LinComb":
        """Sum of c * lin over the (c, lin) pairs, accumulated in one dict.

        Each lin is over ``ring`` or over the integers; integral terms pass
        through the canonical map Z -> ring.  Coefficients are reduced once,
        at the end, which gives the same element as reducing every step.
        """
        acc: dict = {}
        for c, lin in pairs:
            if lin.ring != ring and lin.ring != ZZ:
                raise ValueError("ring mismatch")
            for label, v in lin._terms.items():
                acc[label] = acc.get(label, 0) + c * v
        return cls(ring, acc)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __contains__(self, label):
        return label in self._terms

    def coeff(self, label):
        return self._terms.get(label, self.ring.zero)

    def labels(self):
        return self._terms.keys()

    def items(self):
        """Terms in the deterministic label order."""
        return sorted(self._terms.items(), key=lambda kv: _label_key(kv[0]))

    def unordered_items(self):
        """Terms in no fixed order, for sums and maps whose result does not depend on it."""
        return self._terms.items()

    def combine(self, other: "LinComb", ca=1, cb=1) -> "LinComb":
        """Return ca*self + cb*other."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        ring = self.ring
        return LinComb.linear_combination(ring, ((ring.normalize(ca), self), (ring.normalize(cb), other)))

    def __add__(self, other):
        return self.combine(other)

    def __sub__(self, other):
        return self.combine(other, 1, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "LinComb":
        c = self.ring.normalize(c)
        if c == 0:
            return LinComb(self.ring)
        return LinComb(self.ring, {l: c * v for l, v in self._terms.items()})

    def map_labels(self, f) -> "LinComb":
        """Linear extension of a basis map: f(label) must return a LinComb.

        Each image is over this ring or over the integers, as in
        :meth:`linear_combination`.  The terms are read in no fixed order,
        which the exact sum does not see.
        """
        return LinComb.linear_combination(self.ring, ((c, f(label)) for label, c in self._terms.items()))

    def change_ring(self, target: CoefficientRing) -> "LinComb":
        """Push integral coefficients through the canonical map Z -> target, reducing each once."""
        if self.ring.kind != "z":
            raise ValueError("only integral elements can change ring")
        if target == self.ring:
            return self
        return LinComb(target, self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, LinComb)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for label, c in self.items():
            bits.append(f"{c}*{label!r}")
        return " + ".join(bits)

    def to_json(self, label_to_json) -> dict:
        return _terms_to_json(self.ring, self.items(), label_to_json)

    @classmethod
    def from_json(cls, obj: dict, label_from_json) -> "LinComb":
        ring = parse_ring(obj["ring"])
        terms = [
            (label_from_json(entry["label"]), ring.parse_coeff(entry["coeff"]))
            for entry in obj["terms"]
        ]
        return cls(ring, terms)
