"""The parsers' rejections, one table row each: a malformed .lp or .setaf
snippet and the exact error it raises, with its class, message, line,
column and byte offsets [start, end). The rows reach every ParseError and
ReservedAtom branch of both grammars, on single and multi-line inputs,
CRLF line ends, blank and comment-only lines, and comments with no final
newline."""

import pytest

from setaflp.textio import ParseError, ReservedAtom, SourceSpan, parse_program, parse_setaf

PARSERS = {"lp": parse_program, "setaf": parse_setaf}
RESERVED = "'_u' is the reserved undefined constant and cannot appear in source"

# (format, text, error class, message, line, column, start, end)
CASES = [
    ('lp', 'a :- .', ParseError, "expected an atom, found '.'", 1, 6, 5, 6),
    ('lp', 'a.\nb :- not .\n', ParseError, "expected an atom, found '.'", 2, 10, 12, 13),
    ('lp', 'a :- b', ParseError, "expected ',' or '.', found 'end of input'", 1, 7, 6, 6),
    ('lp', 'Big.', ParseError, "not a legal atom name: 'Big'", 1, 1, 0, 3),
    ('lp', 'a :- _u.', ReservedAtom, RESERVED, 1, 6, 5, 7),
    ('lp', '_u.', ReservedAtom, RESERVED, 1, 1, 0, 2),
    ('lp', 'a :- not _u.', ReservedAtom, RESERVED, 1, 10, 9, 11),
    ('lp', '#universe _u.', ReservedAtom, RESERVED, 1, 11, 10, 12),
    ('lp', 'not.', ParseError, "not a legal atom name: 'not'", 1, 1, 0, 3),
    ('lp', 'a :- not not.', ParseError, "not a legal atom name: 'not'", 1, 10, 9, 12),
    ('lp', 'a :b.', ParseError, "expected ':-'", 1, 3, 2, 3),
    ('lp', 'a :', ParseError, "expected ':-'", 1, 3, 2, 3),
    ('lp', 'a ;- b.', ParseError, "unexpected character ';'", 1, 3, 2, 3),
    ('lp', '# a.', ParseError, "unknown directive '#'", 1, 1, 0, 1),
    ('lp', '#univ a.', ParseError, "unknown directive '#univ'", 1, 1, 0, 5),
    ('lp', '#universe a b.', ParseError, "expected '.', found 'b'", 1, 13, 12, 13),
    ('lp', '#universe a', ParseError, "expected '.', found 'end of input'", 1, 12, 11, 11),
    ('lp', '#universe .', ParseError, "expected an atom, found '.'", 1, 11, 10, 11),
    ('lp', '#universe a,.', ParseError, "expected an atom, found '.'", 1, 13, 12, 13),
    ('lp', 'arg a.', ParseError, "expected '.' or ':-', found 'a'", 1, 5, 4, 5),
    ('lp', 'a b.', ParseError, "expected '.' or ':-', found 'b'", 1, 3, 2, 3),
    ('lp', 'a', ParseError, "expected '.' or ':-', found 'end of input'", 1, 2, 1, 1),
    ('lp', 'a :- b c.', ParseError, "expected ',' or '.', found 'c'", 1, 8, 7, 8),
    ('lp', 'a :- b,', ParseError, "expected an atom, found 'end of input'", 1, 8, 7, 7),
    ('lp', 'a :- b, .', ParseError, "expected an atom, found '.'", 1, 9, 8, 9),
    ('lp', 'a :- ,b.', ParseError, "expected an atom, found ','", 1, 6, 5, 6),
    ('lp', ':- a.', ParseError, "expected an atom, found ':-'", 1, 1, 0, 2),
    ('lp', ', a.', ParseError, "expected an atom, found ','", 1, 1, 0, 1),
    ('lp', '. a.', ParseError, "expected an atom, found '.'", 1, 1, 0, 1),
    ('lp', 'a. b', ParseError, "expected '.' or ':-', found 'end of input'", 1, 5, 4, 4),
    ('lp', '²a.', ParseError, "not a legal atom name: '²a'", 1, 1, 0, 3),
    ('lp', '1a.', ParseError, "unexpected character '1'", 1, 1, 0, 1),
    ('lp', 'a :- 1b.', ParseError, "unexpected character '1'", 1, 6, 5, 6),
    ('lp', '_a.', ParseError, "not a legal atom name: '_a'", 1, 1, 0, 2),
    ('lp', 'a_B :- Cd.', ParseError, "not a legal atom name: 'Cd'", 1, 8, 7, 9),
    ('lp', 'a-b.', ParseError, "unexpected character '-'", 1, 2, 1, 2),
    ('lp', 'a :- b; c.', ParseError, "unexpected character ';'", 1, 7, 6, 7),
    ('lp', 'é.', ParseError, "not a legal atom name: 'é'", 1, 1, 0, 2),
    ('lp', 'aé :- b.', ParseError, "not a legal atom name: 'aé'", 1, 1, 0, 3),
    ('lp', 'a :- not B.', ParseError, "not a legal atom name: 'B'", 1, 10, 9, 10),
    ('lp', 'a\r\n:- b\r\nc.\r\n', ParseError, "expected ',' or '.', found 'c'", 3, 1, 9, 10),
    ('lp', 'a.\r\nb :- .\r\n', ParseError, "expected an atom, found '.'", 2, 6, 9, 10),
    ('lp', '\n\n\na :- .', ParseError, "expected an atom, found '.'", 4, 6, 8, 9),
    ('lp', '% only a comment\n\nb :- c d.', ParseError, "expected ',' or '.', found 'd'", 3, 8, 25, 26),
    ('lp', '% comment\n% another\n#foo.', ParseError, "unknown directive '#foo'", 3, 1, 20, 24),
    ('lp', 'a :- b. % no final newline, then junk\n$', ParseError, "unexpected character '$'", 2, 1, 38, 39),
    ('lp', 'a :- b % no final newline', ParseError, "expected ',' or '.', found 'end of input'", 1, 26, 25, 25),
    ('lp', 'a :- b\r\n', ParseError, "expected ',' or '.', found 'end of input'", 2, 1, 8, 8),
    ('lp', 'a :- b, not c, not .\n', ParseError, "expected an atom, found '.'", 1, 20, 19, 20),
    ('lp', 'a :-\n  b,\n  not Cc.\n', ParseError, "not a legal atom name: 'Cc'", 3, 7, 16, 18),
    ('lp', 'a :- b.\n\tc :- d e.', ParseError, "expected ',' or '.', found 'e'", 2, 9, 16, 17),
    ('lp', 'a. b. c :- .', ParseError, "expected an atom, found '.'", 1, 12, 11, 12),
    ('lp', 'ä :- b.', ParseError, "not a legal atom name: 'ä'", 1, 1, 0, 2),
    ('lp', 'a :- b. b :- a. c', ParseError, "expected '.' or ':-', found 'end of input'", 1, 18, 17, 17),
    ('lp', 'été :- b.', ParseError, "not a legal atom name: 'été'", 1, 1, 0, 5),
    ('lp', 'a :- b.\n#universe x, _u.', ReservedAtom, RESERVED, 2, 14, 21, 23),
    ('lp', 'a :- b.c :- .', ParseError, "expected an atom, found '.'", 1, 13, 12, 13),
    ('setaf', 'arg a\natt a => a\n', ParseError, "unexpected character '='", 2, 7, 12, 13),
    ('setaf', 'banana a\n', ParseError, "expected 'arg' or 'att', found 'banana'", 1, 1, 0, 6),
    ('setaf', 'arg 1a', ParseError, "not a legal atom name: '1a'", 1, 5, 4, 6),
    ('setaf', 'a -> b.', ParseError, "unexpected character '.'", 1, 7, 6, 7),
    ('setaf', 'arg a.', ParseError, "unexpected character '.'", 1, 6, 5, 6),
    ('setaf', 'arg', ParseError, "expected an atom, found 'end of input'", 1, 4, 3, 3),
    ('setaf', 'arg\n', ParseError, "expected an atom, found 'end of input'", 1, 4, 3, 3),
    ('setaf', 'arg ,', ParseError, "expected an atom, found ','", 1, 5, 4, 5),
    ('setaf', 'att', ParseError, "expected an atom, found 'end of input'", 1, 4, 3, 3),
    ('setaf', 'att a', ParseError, "expected '->', found 'end of line'", 1, 6, 5, 5),
    ('setaf', 'att a b', ParseError, "expected '->', found 'b'", 1, 7, 6, 7),
    ('setaf', 'att a ->', ParseError, "expected an atom, found 'end of input'", 1, 9, 8, 8),
    ('setaf', 'att a -> ', ParseError, "expected an atom, found 'end of input'", 1, 10, 9, 9),
    ('setaf', 'att a, -> b', ParseError, "expected an atom, found '->'", 1, 8, 7, 9),
    ('setaf', 'att -> b', ParseError, "expected an atom, found '->'", 1, 5, 4, 6),
    ('setaf', 'att a -> b c', ParseError, "unexpected trailing input 'c'", 1, 12, 11, 12),
    ('setaf', 'att a -> b,', ParseError, "unexpected trailing input ','", 1, 11, 10, 11),
    ('setaf', 'arg a b', ParseError, "unexpected trailing input 'b'", 1, 7, 6, 7),
    ('setaf', 'arg _u', ReservedAtom, RESERVED, 1, 5, 4, 6),
    ('setaf', 'att _u -> a', ReservedAtom, RESERVED, 1, 5, 4, 6),
    ('setaf', 'att a -> _u', ReservedAtom, RESERVED, 1, 10, 9, 11),
    ('setaf', 'arg Big', ParseError, "not a legal atom name: 'Big'", 1, 5, 4, 7),
    ('setaf', 'arg not', ParseError, "not a legal atom name: 'not'", 1, 5, 4, 7),
    ('setaf', 'att a,B -> c', ParseError, "not a legal atom name: 'B'", 1, 7, 6, 7),
    ('setaf', 'arg ²a', ParseError, "not a legal atom name: '²a'", 1, 5, 4, 7),
    ('setaf', 'arg a\r\narg b\r\natt a ->\r\n', ParseError, "expected an atom, found 'end of input'", 3, 10, 23, 23),
    ('setaf', 'arg a\r\narg $\r\n', ParseError, "unexpected character '$'", 2, 5, 11, 12),
    ('setaf', '\n\n  \narg\n', ParseError, "expected an atom, found 'end of input'", 4, 4, 8, 8),
    ('setaf', '% comment only\n% another\narg a b\n', ParseError, "unexpected trailing input 'b'", 3, 7, 31, 32),
    ('setaf', 'arg a % comment\natt a %no target\n', ParseError, "expected '->', found 'end of line'", 2, 7, 22, 22),
    ('setaf', 'arg a\natt a -> % comment without a final newline', ParseError, "expected an atom, found 'end of input'", 2, 10, 15, 15),
    ('setaf', 'arg a\n   % indented comment\n\tatt\ta\t-\ta', ParseError, "unexpected character '-'", 3, 8, 35, 36),
    ('setaf', 'arg a\narg b\natt a - > b\n', ParseError, "unexpected character '-'", 3, 7, 18, 19),
    ('setaf', 'arg a\natt a >- b\n', ParseError, "unexpected character '>'", 2, 7, 12, 13),
    ('setaf', 'arg a\nARG b\n', ParseError, "expected 'arg' or 'att', found 'ARG'", 2, 1, 6, 9),
    ('setaf', 'arg é\n', ParseError, "not a legal atom name: 'é'", 1, 5, 4, 6),
    ('setaf', 'arg aé\natt aé ->', ParseError, "not a legal atom name: 'aé'", 1, 5, 4, 7),
    ('setaf', 'arg a\narg\u2028b c\n', ParseError, "unexpected trailing input 'c'", 2, 7, 14, 15),
    ('setaf', 'arg\narg $\n', ParseError, "expected an atom, found 'end of input'", 1, 4, 3, 3),
    ('setaf', 'arg a.\narg b\n', ParseError, "unexpected character '.'", 1, 6, 5, 6),
    ('setaf', 'att a -> b -> c', ParseError, "unexpected trailing input '->'", 1, 12, 11, 13),
    ('setaf', ', a', ParseError, "expected 'arg' or 'att', found ','", 1, 1, 0, 1),
    ('setaf', '-> a', ParseError, "expected 'arg' or 'att', found '->'", 1, 1, 0, 2),
    ('setaf', 'arg a:', ParseError, "unexpected character ':'", 1, 6, 5, 6),
    # The first error in text order wins over a bad character further on.
    ('lp', 'a :- .\n$', ParseError, "expected an atom, found '.'", 1, 6, 5, 6),
    ('lp', 'a :- b c\n$', ParseError, "expected ',' or '.', found 'c'", 1, 8, 7, 8),
    ('lp', '#foo.\n$', ParseError, "unknown directive '#foo'", 1, 1, 0, 4),
    ('lp', 'a :- not .\n:', ParseError, "expected an atom, found '.'", 1, 10, 9, 10),
    ('lp', 'Big :- $', ParseError, "not a legal atom name: 'Big'", 1, 1, 0, 3),
    ('lp', 'a\n$', ParseError, "unexpected character '$'", 2, 1, 2, 3),
]


@pytest.mark.parametrize(
    "fmt, text, cls, message, line, column, start, end",
    CASES,
    ids=[f"{case[0]}-{n}" for n, case in enumerate(CASES)],
)
def test_malformed_input_is_rejected_at_the_offending_token(
    fmt, text, cls, message, line, column, start, end
):
    with pytest.raises(ParseError) as err:
        PARSERS[fmt](text)
    assert type(err.value) is cls
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert err.value.span == SourceSpan(line, column, start, end)
