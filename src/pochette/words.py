"""Free-group words over a named alphabet.

Words are stored freely reduced, as flat sequences of signed letters;
the printer re-collects runs into ``name^k`` syllables.  Equality and
hashing of words are therefore structural.  Generators are interned, one
object per name, so equality and hash are identity through ``object``'s
C slots; generators have no order, and code that needs one sorts by
``.name``.  The letter loops test generators with ``is``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from .errors import InputError

__all__ = [
    "Generator",
    "Word",
    "IDENTITY",
    "UnknownGenerator",
    "MalformedFactor",
    "ZeroExponent",
    "AlphabetMismatch",
    "MissingImage",
    "parse_word",
    "word_to_text",
    "invert",
    "cyclically_reduce",
    "exponent_sum",
    "substitute",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FACTOR_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)(?:\^(?P<exp>-?\d+))?")


class UnknownGenerator(InputError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown generator {name!r}")


class MalformedFactor(InputError):
    def __init__(self, position: int, text: str):
        self.position = position
        super().__init__(f"malformed factor {text!r} at position {position}")


class ZeroExponent(InputError):
    def __init__(self, position: int):
        self.position = position
        super().__init__(f"zero exponent at position {position}")


class AlphabetMismatch(InputError):
    pass


class MissingImage(InputError):
    def __init__(self, generator: "Generator"):
        self.generator = generator
        super().__init__(f"no image given for generator {generator.name!r}")


class Generator:
    """A named free-group generator, interned: one immutable object per name.

    ``==`` and ``hash`` are therefore object identity, inherited from
    ``object``'s C slots; generators have no order (sort by ``.name``),
    and pickling or copying one returns the interned object.
    """

    __slots__ = ("name",)
    _interned: ClassVar[dict[str, "Generator"]] = {}

    def __new__(cls, name: str) -> "Generator":
        gen = cls._interned.get(name)
        if gen is None:
            if not _NAME_RE.fullmatch(name):
                raise InputError(f"bad generator name {name!r}")
            gen = object.__new__(cls)
            object.__setattr__(gen, "name", name)
            gen = cls._interned.setdefault(name, gen)
        return gen

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {attr!r}: generators are immutable")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete {attr!r}: generators are immutable")

    def __reduce__(self):
        return (Generator, (self.name,))

    def __repr__(self) -> str:
        return f"Generator(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


Letter = tuple[Generator, int]


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    last = None  # the generator of stack[-1]; None also on an empty stack
    for gen, sign in letters:
        if sign != 1 and sign != -1:
            raise ValueError(f"letter sign must be +-1, got {sign}")
        if gen is last and stack and stack[-1][1] != sign:
            stack.pop()
            last = stack[-1][0] if stack else None
        else:
            stack.append((gen, sign))
            last = gen
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return invert(self) ** (-n)
        return Word(self.letters * n)

    def __str__(self) -> str:
        return word_to_text(self)

    def generators(self) -> set[Generator]:
        return {gen for gen, _ in self.letters}

    @staticmethod
    def from_syllables(syllables: Iterable[tuple[Generator, int]]) -> "Word":
        """Build a word from (generator, exponent) pairs; exponents expand to unit letters."""
        letters: list[Letter] = []
        for gen, exp in syllables:
            sign = 1 if exp > 0 else -1
            letters.extend((gen, sign) for _ in range(abs(exp)))
        return Word(tuple(letters))


IDENTITY = Word()


def parse_word(text: str, alphabet: Iterable[Generator]) -> Word:
    """Parse ``name`` / ``name^k`` factors separated by whitespace or '*'.

    ``1`` or empty text denotes the identity.  Inverses are written with
    ``^-1``; there is no capital-letter shorthand.
    """
    by_name = {g.name: g for g in alphabet}
    stripped = text.strip()
    if stripped in ("", "1"):
        return IDENTITY
    syllables: list[tuple[Generator, int]] = []
    for token in re.finditer(r"[^\s*]+", text):
        piece = token.group()
        match = _FACTOR_RE.fullmatch(piece)
        if match is None:
            raise MalformedFactor(token.start(), piece)
        exp_text = match.group("exp")
        if exp_text is None:
            exp = 1
        else:
            exp = int(exp_text)
            if exp == 0:
                raise ZeroExponent(token.start())
            if exp_text.lstrip("-").startswith("0"):
                raise MalformedFactor(token.start(), piece)
        name = match.group("name")
        if name not in by_name:
            raise UnknownGenerator(name)
        syllables.append((by_name[name], exp))
    return Word.from_syllables(syllables)


def word_to_text(w: Word) -> str:
    """Canonical printer; ``parse_word(word_to_text(w), ...) == w``."""
    if not w.letters:
        return "1"
    parts: list[str] = []
    run_gen, run_exp = w.letters[0][0], w.letters[0][1]
    for gen, sign in w.letters[1:]:
        if gen is run_gen and (run_exp > 0) == (sign > 0):
            run_exp += sign
        else:
            parts.append(run_gen.name if run_exp == 1 else f"{run_gen.name}^{run_exp}")
            run_gen, run_exp = gen, sign
    parts.append(run_gen.name if run_exp == 1 else f"{run_gen.name}^{run_exp}")
    return " ".join(parts)


def invert(w: Word) -> Word:
    """Reversed letters with flipped signs; w * invert(w) is the identity."""
    return Word(tuple((gen, -sign) for gen, sign in reversed(w.letters)))


def cyclically_reduce(w: Word) -> Word:
    """Strip matching first/last letters until none match; w itself if none do."""
    letters = w.letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] is letters[j][0] and letters[i][1] == -letters[j][1]:
        i += 1
        j -= 1
    return w if i == 0 else Word(letters[i : j + 1])


def exponent_sum(w: Word, g: Generator) -> int:
    return sum(sign for gen, sign in w.letters if gen == g)


def substitute(w: Word, images: Mapping[Generator, Word]) -> Word:
    """Replace each letter by the image of its generator, freely reduced."""
    pieces: dict[Letter, tuple[Letter, ...]] = {}  # each image inverted once per call
    letters: list[Letter] = []
    for gen, sign in w.letters:
        piece = pieces.get((gen, sign))
        if piece is None:
            if gen not in images:
                raise MissingImage(gen)
            image = images[gen] if sign == 1 else invert(images[gen])
            piece = pieces[gen, sign] = image.letters
        letters.extend(piece)
    return Word(tuple(letters))
