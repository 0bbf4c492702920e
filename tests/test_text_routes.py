"""The two readers of the text format agree.

A text in the form ``serialize_diagram`` writes is read by one match of
the canonical pattern; every other spelling, and every canonical text
that breaks a rule, by the line reader.  Each text here is parsed twice,
once as shipped and once with the one-match route forced to decline, and
both parses must give the same diagram and the same text written back,
or the same exception with the same message.
"""

import random
import timeit
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from transknot import diagram
from transknot.diagram import MAX_VERTICES, Coorientation, parse_diagram, serialize_diagram
from transknot.errors import ParseError
from transknot.fixtures import (
    minus_unknot,
    one_crossing_unknots,
    trefoil_left,
    trefoil_right,
    trefoil_right_alt,
    u_minus,
    u_minus_forbidden,
)
from transknot.moves_singular import random_valid_diagram, stabilize

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@cache
def corpus() -> dict[str, str]:
    """Canonical texts by name: the benchmark's inputs, the serialized
    fixtures, stabilizations of the right trefoil and random draws."""
    texts = {path.relative_to(INPUTS).as_posix(): path.read_text(encoding="utf-8")
             for path in sorted(INPUTS.glob("*/*.td"))}
    fixtures = [u_minus, u_minus_forbidden, minus_unknot, trefoil_right, trefoil_left,
                trefoil_right_alt]
    texts.update((make.__name__, serialize_diagram(make())) for make in fixtures)
    texts.update((f"one_crossing_unknots[{i}]", serialize_diagram(d))
                 for i, d in enumerate(one_crossing_unknots(8)))
    for edge in (1, 5, 9):
        for count in (1, 3):
            texts[f"trefoil_right e{edge} x{count}"] = serialize_diagram(
                stabilize(trefoil_right(), edge, count))
    for seed in range(20):
        for coor in Coorientation:
            texts[f"random {seed} {coor.value}"] = serialize_diagram(random_valid_diagram(seed, coor))
    return texts


ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def twice(token: str) -> str:
    p, q = Fraction(token).as_integer_ratio()
    return f"{2 * p}/{2 * q}"


def underscored(token: str):
    digits = token.lstrip("-")
    return None if len(digits) < 2 or not digits[1].isdigit() else token.replace(
        digits[:2], f"{digits[0]}_{digits[1]}", 1)


# Each spelling respells one vertex token keeping its value where it
# can (None where the token has no such respelling), and also stands in
# for a token as it is written.
RESPELLINGS = {
    "+1": lambda t: None if t.startswith("-") else "+" + t,
    "01": lambda t: "-0" + t[1:] if t.startswith("-") else "0" + t,
    "-0": lambda t: "-0" if t == "0" else None,
    "0/3": lambda t: "0/3" if t == "0" else None,
    "2/4": twice,
    "1/1": lambda t: None if "/" in t else t + "/1",
    "/0": lambda t: t.partition("/")[0] + "/0",
    "1_0": underscored,
    "1.0": lambda t: None if "/" in t else t + ".0",
    "1e2": lambda t: None if "/" in t else t + "00e-2",
    "٣": lambda t: t[:-1] + t[-1].translate(ARABIC_INDIC),  # its last digit
}


def sections(lines: list[str]) -> tuple[range, range]:
    """The indices of the vertex lines and of the crossing lines."""
    v, o, e = lines.index("vertices:"), lines.index("over:"), lines.index("end")
    return range(v + 1, o), range(o + 1, e)


def mutants(name: str, text: str):
    """(label, text) for each seeded single substitution of ``text``."""
    lines = text.split("\n")  # the last item is the empty one after "end\n"
    verts, crosses = sections(lines)
    body = range(len(lines) - 1)

    def at(label, pick, change):
        rng = random.Random(f"{name}/{label}")
        options = [i for i in pick if change(lines[i]) is not None]
        if options:
            i = rng.choice(options)
            yield label, "\n".join(lines[:i] + [change(lines[i])] + lines[i + 1:])

    def on_token(change):
        def line(text_line):
            x, z = text_line.split(" ")
            return None if change(x) is None else f"{change(x)} {z}"
        return line

    for spelling, respell in RESPELLINGS.items():
        yield from at(f"respell {spelling}", verts, on_token(respell))
        yield from at(f"put {spelling}", verts, on_token(lambda t, s=spelling: s))
    for token in ("0", "-7/2"):  # canonical: the match reads these
        yield from at(f"put {token}", verts, on_token(lambda t, s=token: None if t == s else s))
    yield from at("flipped over", crosses, lambda s: s[:-2] + ("hi" if s.endswith("lo") else "lo"))
    yield from at("doubled space", body, lambda s: s.replace(" ", "  ", 1) if " " in s else None)
    yield from at("tab", body, lambda s: s.replace(" ", "\t", 1) if " " in s else None)
    yield from at("CRLF", body, lambda s: s + "\r")
    yield from at("trailing space", body, lambda s: s + " ")
    yield from at("comment", body, lambda s: s + " # a note")
    yield from at("blank line", body, lambda s: s + "\n")
    yield from at("cross 01", crosses, lambda s: s.replace("cross ", "cross 0", 1))
    yield from at("swapped pair", crosses,
                  lambda s: "cross {1} {0} {2}".format(*s.split()[1:]))
    yield from at("duplicated crossing", crosses, lambda s: f"{s}\n{s}")
    if len(crosses) > 1:
        i = random.Random(f"{name}/swapped lines").choice(crosses[:-1])
        yield "swapped lines", "\n".join(
            lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:])
    yield "no final newline", text[:-1]
    yield "blank line after end", text + "\n"


def outcome(text: str):
    """The parsed diagram and the text it writes back, or the type and
    message of what the parse raised, with a ParseError's line and
    violations."""
    try:
        d = parse_diagram(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "violations", None)
    return d, serialize_diagram(d)


def both_routes(monkeypatch, text: str):
    shipped = outcome(text)
    with monkeypatch.context() as m:
        m.setattr(diagram, "_read_canonical", lambda text: None)
        return shipped, outcome(text)


def test_the_corpus_is_canonical(monkeypatch):
    texts = corpus()
    assert len(texts) == 12 + 6 + 8 + 6 + 40
    for name, text in texts.items():
        assert diagram._read_canonical(text) is not None, name
        shipped, lines_only = both_routes(monkeypatch, text)
        assert shipped == lines_only, name
        if name != "cli/nongeneric.td":
            assert shipped[1] == text, name


def test_every_mutant_reads_the_same_on_both_routes(monkeypatch):
    accepted = declined = 0
    labels = set()
    for name, text in corpus().items():
        for label, mutant in mutants(name, text):
            assert mutant != text, (name, label)
            labels.add(label)
            shipped, lines_only = both_routes(monkeypatch, mutant)
            assert shipped == lines_only, (name, label)
            if diagram._read_canonical(mutant) is None:
                declined += 1
            else:
                accepted += 1
    assert len(labels) == 2 * len(RESPELLINGS) + 15
    # the route is exercised both ways: most mutants are declined, and
    # the canonical ones are read by the match
    assert declined > 1000 and accepted > 20


U_MINUS_TEXT = serialize_diagram(u_minus())


@pytest.mark.parametrize("old, new", [
    ("cross 1 6", "cross 1 " + "9" * 5000),  # past the digits int() reads
    ("cross 1 6", "cross 1 11"),
    ("cross 1 6", "cross 6 6"),
    ("-1 -1\n", "1" * 1001 + " -1\n"),
    ("vertices:\n-1 -1\n1 1\n2 1\n3 0\n2 -1\n1 -1\n-1 1\n-2 1\n", "vertices:\n"),
], ids=["index past int", "index past n", "pair not ascending", "token too long",
        "two vertices"])
def test_canonical_text_that_breaks_a_rule_is_declined(monkeypatch, old, new):
    text = U_MINUS_TEXT.replace(old, new)
    assert diagram._canonical_pattern().fullmatch(text)
    assert diagram._read_canonical(text) is None
    shipped, lines_only = both_routes(monkeypatch, text)
    assert shipped == lines_only and shipped[0] is ParseError


def hostile_text(lines: int) -> str:
    """A canonical file of ``lines`` vertices of two 100-digit tokens each,
    broken on its last line."""
    token = "1234567890" * 10
    return ("transverse-diagram/1\ncoorientation: +\nvertices:\n"
            + f"{token} {token}\n" * lines + "over:\nfin\n")


def best_times(**fns) -> dict:
    """The least time of each function over five rounds that run them
    in turn, so that a busy moment of the host falls on all alike."""
    times = {name: [] for name in fns}
    for _ in range(5):
        for name, fn in fns.items():
            times[name].append(timeit.timeit(fn, number=1))
    return {name: min(t) for name, t in times.items()}


def refused(text: str) -> str:
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    return str(exc.value)


def test_a_large_broken_file_costs_one_match_and_the_line_reader(monkeypatch):
    text, half = hostile_text(MAX_VERTICES), hostile_text(MAX_VERTICES // 2)
    pattern = diagram._canonical_pattern()
    assert pattern.fullmatch(text) is None
    message = refused(text)
    assert message == f"line {MAX_VERTICES + 5}: expected 'cross <lo> <hi> over=<lo|hi>', got 'fin'"

    def lines_only():
        with monkeypatch.context() as m:
            m.setattr(diagram, "_read_canonical", lambda text: None)
            assert refused(text) == message

    t = best_times(match=lambda: pattern.fullmatch(text), half=lambda: pattern.fullmatch(half),
                   shipped=lambda: refused(text), lines=lines_only)
    # half again as slack for a noisy host: a match that backtracked
    # past linear time would cost many times the line reader
    assert t["shipped"] <= 1.5 * (t["lines"] + t["match"])
    # the failed match backtracks not at all: it costs less than the line
    # reader, and half the file takes about half the time
    assert t["match"] < t["lines"]
    assert t["match"] <= 3 * t["half"]
