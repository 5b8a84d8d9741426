"""Tweet-style text cleaning, class balancing, and translation augmentation.

Cleaning applies, in order: URL removal, @handle removal, emoji removal,
punctuation stripping (keeping word-internal apostrophes and hyphens;
hashtag words keep their text with the ``#`` dropped), and whitespace
collapsing. The pipeline is idempotent: cleaning cleaned text is a no-op.

Samples travel as JSON Lines, one object per line:
``{"sample_id": ..., "text": ..., "label": ..., "lang": ...}``.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .errors import AugmentationError, DataError
from .optimizers.common import check_seed, rng_stream
from .scoreio import _first_repeat, open_input

_URL_RE = re.compile(r"https?://\S*")
_HANDLE_RE = re.compile(r"@\w+")

# Inclusive code-point ranges treated as emoji (plus variation selector,
# zero-width joiner, and regional indicators).
EMOJI_RANGES = (
    (0x1F300, 0x1FAFF),
    (0x2600, 0x27BF),
    (0xFE0F, 0xFE0F),
    (0x200D, 0x200D),
    (0x1F1E6, 0x1F1FF),
)

_APOSTROPHES = {"'", "’"}
_HYPHEN = "-"


@dataclass(frozen=True)
class TextSample:
    """One labeled text with a language tag (e.g. "en", "it")."""

    sample_id: str
    text: str
    label: int
    language: str

    def __post_init__(self):
        if not self.sample_id:
            raise DataError("sample_id must be non-empty")
        if self.label < 0:
            raise DataError(f"sample '{self.sample_id}': negative label")


def identity_translator(text: str, source_lang: str, target_lang: str) -> str:
    """Bundled stub: returns the text unchanged. Keeps augmentation testable offline."""
    return text


def _is_emoji(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in EMOJI_RANGES)


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _is_strippable(ch: str) -> bool:
    # Punctuation, symbols, and control/format characters all count as
    # "unnecessary punctuation"; letters, digits, marks, and whitespace stay
    # (whitespace is handled by the final collapse pass).
    return not ch.isspace() and unicodedata.category(ch)[0] in ("P", "S", "C")


def clean_text(raw: str) -> str:
    """Normalize one text per the module rules. Total and idempotent."""
    text = _URL_RE.sub("", raw)
    text = _HANDLE_RE.sub("", text)
    text = "".join(ch for ch in text if not _is_emoji(ch))
    kept = []
    for i, ch in enumerate(text):
        if ch in _APOSTROPHES or ch == _HYPHEN:
            prev_ok = i > 0 and _is_word_char(text[i - 1])
            next_ok = i + 1 < len(text) and _is_word_char(text[i + 1])
            if prev_ok and next_ok:
                kept.append(ch)
        elif not _is_strippable(ch):
            kept.append(ch)
    return " ".join("".join(kept).split())


def upsample(samples: list[TextSample], seed: int) -> list[TextSample]:
    """Pad minority classes by seeded sampling with replacement.

    Originals are preserved in input order; duplicates are appended with
    suffixed sample_ids until every class matches the majority count.
    """
    check_seed(seed)
    if not samples:
        raise DataError("cannot upsample an empty sample list")
    by_label: dict[int, list[TextSample]] = {}
    for sample in samples:
        by_label.setdefault(sample.label, []).append(sample)
    target = max(len(members) for members in by_label.values())
    out = list(samples)
    rng = rng_stream(seed)
    for label in sorted(by_label):
        members = by_label[label]
        deficit = target - len(members)
        if deficit == 0:
            continue
        picks = rng.integers(0, len(members), size=deficit)
        for n, idx in enumerate(picks, start=1):
            source = members[int(idx)]
            out.append(replace(source, sample_id=f"{source.sample_id}-up{n}"))
    return out


def augment_backtranslate(
    samples: list[TextSample],
    translator: Callable[[str, str, str], str],
    source_lang: str,
    target_lang: str,
) -> list[TextSample]:
    """Append a translated copy of every source-language sample.

    Labels are preserved; the new samples carry derived sample_ids and the
    target language tag. A translator failure is raised naming the offending sample.
    """
    out = list(samples)
    for sample in samples:
        if sample.language != source_lang:
            continue
        try:
            translated = translator(sample.text, source_lang, target_lang)
        except Exception as exc:
            raise AugmentationError(
                f"translation failed for sample '{sample.sample_id}': {exc}"
            ) from exc
        out.append(
            TextSample(
                sample_id=f"{sample.sample_id}-bt",
                text=translated,
                label=sample.label,
                language=target_lang,
            )
        )
    return out


def read_samples(path) -> list[TextSample]:
    """Read JSONL samples, reporting the first offending line: a parse error or a repeated id."""
    path = Path(path)
    samples, seen = [], {}  # sample_id -> its line
    with open_input(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != {"sample_id", "text", "label", "lang"}:
            raise DataError(
                f"{path}:{lineno}: expected an object with keys sample_id, text, label, lang"
            )
        if not isinstance(obj["label"], int) or isinstance(obj["label"], bool):
            raise DataError(f"{path}:{lineno}: label must be an integer")
        try:
            sample = TextSample(
                sample_id=str(obj["sample_id"]),
                text=str(obj["text"]),
                label=obj["label"],
                language=str(obj["lang"]),
            )
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        first = seen.setdefault(sample.sample_id, lineno)
        if first != lineno:
            raise DataError(f"{path}:{lineno}: duplicate sample_id '{sample.sample_id}' "
                            f"(first seen at line {first})")
        samples.append(sample)
    if not samples:
        raise DataError(f"{path}: no samples")
    return samples


def write_samples(samples: list[TextSample], path) -> None:
    """Write JSONL samples; a repeated sample_id raises before the file is opened."""
    path = Path(path)
    repeat = _first_repeat([s.sample_id for s in samples])
    if repeat is not None:
        raise DataError(f"{path}: duplicate sample_id '{samples[repeat[0]].sample_id}'")
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {"sample_id": s.sample_id, "text": s.text, "label": s.label, "lang": s.language},
            ensure_ascii=False,
        )
        for s in samples
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
