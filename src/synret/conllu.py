"""Reader for single-sentence CoNLL-U dependency parses."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DataError, DataWarning

NOUN_TAGS = frozenset({"NOUN", "PROPN", "PRON"})
VERB_TAG = "VERB"
ADJ_TAG = "ADJ"


@dataclass(frozen=True)
class ParsedToken:
    index: int    # 1-based position in the sentence
    form: str
    upos: str
    head: int     # 0 means root
    deprel: str


def parse_conllu(text: str | bytes) -> list[ParsedToken]:
    """Parse the first sentence of a CoNLL-U document.

    Multiword ranges ("3-4") and empty nodes ("5.1") are skipped. A second
    sentence triggers a `DataWarning` and is ignored.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"conllu: not UTF-8 ({e})") from None
    tokens: list[ParsedToken] = []
    extra_sentences = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            if tokens:
                # blank line ends the first sentence; scan on for a warning only
                extra_sentences = extra_sentences or _has_more_tokens(text, lineno)
                break
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise DataError(f"conllu line {lineno}: expected 10 tab-separated fields, got {len(fields)}")
        tok_id = fields[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword range / empty node
        try:
            index = int(tok_id)
        except ValueError:
            raise DataError(f"conllu line {lineno}: bad token id {tok_id!r}") from None
        try:
            head = int(fields[6])
        except ValueError:
            raise DataError(f"conllu line {lineno}: non-integer head {fields[6]!r}") from None
        tokens.append(ParsedToken(index=index, form=fields[1], upos=fields[3], head=head, deprel=fields[7]))
    if not tokens:
        raise DataError("conllu: no sentence found")
    if extra_sentences:
        warnings.warn("conllu input has multiple sentences; only the first is used",
                      DataWarning, stacklevel=2)
    _validate(tokens)
    return tokens


def _has_more_tokens(text: str, after_line: int) -> bool:
    for line in text.splitlines()[after_line:]:
        line = line.strip()
        if line and not line.startswith("#"):
            return True
    return False


def _validate(tokens: list[ParsedToken]) -> None:
    n = len(tokens)
    for pos, tok in enumerate(tokens, start=1):
        if tok.index != pos:
            raise DataError(f"conllu: token ids not contiguous (expected {pos}, got {tok.index})")
        if not 0 <= tok.head <= n:
            raise DataError(f"conllu: token {tok.index} head {tok.head} out of range")
        if tok.head == tok.index:
            raise DataError(f"conllu: token {tok.index} is its own head")
