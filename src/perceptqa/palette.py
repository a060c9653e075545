"""Named color lexicon shared by the renderer and the question realizer.

Questions refer to series by phrases like "the series shown in dark red",
so the set of legal colors is a closed list of names with fixed hex
values.  Names pair a shade prefix with a hue family; the family is what
phrases like "shades of blue" select on.
"""

from __future__ import annotations

from .errors import ConfigError

# name -> (hex, hue family)
COLOR_LEXICON: dict[str, tuple[str, str]] = {
    "dark red": ("#8b0000", "red"),
    "light red": ("#f08080", "red"),
    "dark blue": ("#00008b", "blue"),
    "light blue": ("#add8e6", "blue"),
    "dark green": ("#006400", "green"),
    "light green": ("#90ee90", "green"),
    "dark orange": ("#ff8c00", "orange"),
    "light orange": ("#ffd8a8", "orange"),
    "dark purple": ("#4b0082", "purple"),
    "light purple": ("#d8bfd8", "purple"),
    "dark gray": ("#404040", "gray"),
    "light gray": ("#d3d3d3", "gray"),
    "dark brown": ("#5c4033", "brown"),
    "light brown": ("#c4a484", "brown"),
    "dark teal": ("#005f5f", "teal"),
    "light teal": ("#99d5d5", "teal"),
}

COLOR_NAMES: tuple[str, ...] = tuple(COLOR_LEXICON)

# Fill patterns a bar series may carry on top of its color.
PATTERNS: tuple[str, ...] = ("solid", "striped", "dotted")


def color_hex(name: str) -> str:
    try:
        return COLOR_LEXICON[name][0]
    except KeyError:
        raise ConfigError(f"unknown color name: {name!r}") from None


def family_members(family: str) -> tuple[str, ...]:
    members = tuple(
        name for name, (_, fam) in COLOR_LEXICON.items() if fam == family
    )
    if not members:
        raise ConfigError(f"unknown hue family: {family!r}")
    return members
