"""Free-group words over a named alphabet.

Words are stored freely reduced, as flat sequences of signed letters;
the printer re-collects runs into ``name^k`` syllables.  Equality and
hashing are therefore structural.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    "concat",
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


@dataclass(frozen=True, order=True)
class Generator:
    """A named free-group generator.  Identified purely by its name."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise InputError(f"bad generator name {self.name!r}")

    def __str__(self) -> str:
        return self.name


Letter = tuple[Generator, int]


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
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
        if gen == run_gen and (run_exp > 0) == (sign > 0):
            run_exp += sign
        else:
            parts.append(run_gen.name if run_exp == 1 else f"{run_gen.name}^{run_exp}")
            run_gen, run_exp = gen, sign
    parts.append(run_gen.name if run_exp == 1 else f"{run_gen.name}^{run_exp}")
    return " ".join(parts)


def concat(a: Word, b: Word) -> Word:
    """Freely reduced product a*b."""
    return Word(a.letters + b.letters)


def invert(w: Word) -> Word:
    """Reversed letters with flipped signs; concat(w, invert(w)) is the identity."""
    return Word(tuple((gen, -sign) for gen, sign in reversed(w.letters)))


def cyclically_reduce(w: Word) -> Word:
    """Strip matching first/last letters until none match."""
    letters = w.letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
        i += 1
        j -= 1
    return Word(letters[i : j + 1])


def exponent_sum(w: Word, g: Generator) -> int:
    return sum(sign for gen, sign in w.letters if gen == g)


def substitute(w: Word, images: Mapping[Generator, Word]) -> Word:
    """Replace each letter by the image of its generator, freely reduced."""
    letters: list[Letter] = []
    for gen, sign in w.letters:
        if gen not in images:
            raise MissingImage(gen)
        image = images[gen] if sign == 1 else invert(images[gen])
        letters.extend(image.letters)
    return Word(tuple(letters))
