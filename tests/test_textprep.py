import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionopt.errors import AugmentationError, ConfigError, DataError
from fusionopt.textprep import (
    TextSample,
    augment_backtranslate,
    clean_text,
    identity_translator,
    read_samples,
    upsample,
    write_samples,
)

# Tweet-like fixtures covering URLs, handles, emoji, hashtags, accents,
# and the odd encoding artifacts real exports carry.
TWEET_BATTERY = [
    "Check https://t.co/abc @user \U0001F4A7 water!!",
    "PPPP Shame please supply water #TharNeedsWaterCanal",
    "#TharNeedsWaterCanal",
    "Alta concentrazione di cloro, acqua non potabile nella zona di San Pietro",
    "Acqua di nuovo potabile a Cabbio e Muggio https://t.co/iiVXhdj6iH.",
    "RT @ContrattiFiume: Che cosa finisce nelle nostre #acque? E con quali impatti su #salute e #ambiente?",
    "1 out of every 3 people on our planet do not have access to clean water.",
    "ho rovesciato una bottiglia d'acqua, mi sono fatta il bagno e allagato la cucina, tt bn.",
    "Neanche le 7 ed ho già cambiato una gomma ad un collega sotto l'acqua",
    "frosty water bottle. ☔️ \U0001F30A",
    "@ApolloVentuno Adesso? che meraviglia \U0001F60D Qui siamo ancora sotto acqua a catinelle.",
    "water-quality report: 100% fine... or is it?!",
    "Se l'occidente avesse problemi di acqua potabile – non ci metteremmo secondi",
    "\U0001F1EE\U0001F1F9 #acqua https://example.org/a?b=c&d=e flag test",
]


class TestCleanText:
    def test_url_handle_emoji_punctuation(self):
        assert clean_text("Check https://t.co/abc @user \U0001F4A7 water!!") == "Check water"

    def test_clean_text_fixed_point_on_plain_text(self):
        assert clean_text("clean water everywhere") == "clean water everywhere"

    def test_hashtag_keeps_word_drops_marker(self):
        assert clean_text("#TharNeedsWaterCanal") == "TharNeedsWaterCanal"

    def test_http_url_without_tls(self):
        assert clean_text("see http://example.com/x now") == "see now"

    def test_intra_word_apostrophe_and_hyphen_survive(self):
        assert clean_text("l'acqua water-quality") == "l'acqua water-quality"

    def test_edge_apostrophes_and_hyphens_are_stripped(self):
        assert clean_text("'quoted' - dash -end start-") == "quoted dash end start"

    def test_unicode_apostrophe_survives_between_words(self):
        assert clean_text("dell’acqua") == "dell’acqua"

    def test_whitespace_collapses(self):
        assert clean_text("  a \t b\n\nc  ") == "a b c"

    def test_handle_mid_text(self):
        assert clean_text("thanks @someone_42 for the update") == "thanks for the update"

    def test_emoji_blocks_removed(self):
        assert clean_text("a\U0001F30Ab ☔ c\U0001F1EE\U0001F1F9") == "ab c"

    def test_total_on_empty_and_symbol_only(self):
        assert clean_text("") == ""
        assert clean_text("!!! ... ???") == ""

    def test_battery_idempotent(self):
        for text in TWEET_BATTERY:
            once = clean_text(text)
            assert clean_text(once) == once, text

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_idempotent_on_arbitrary_text(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_idempotent_on_tweet_shaped_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        pieces = [
            "acqua", "water", "don't", "well-known", "#tag", "@handle",
            "https://t.co/xyz", "http://a.b/c", "\U0001F4A7", "☔️",
            "!!!", "...", "perché", "50%", "a’b", "--", "''",
            "\U0001F1EE\U0001F1F9", "RT", ":", "word",
        ]
        text = " ".join(rng.choice(pieces) for _ in range(int(rng.integers(0, 12))))
        once = clean_text(text)
        assert clean_text(once) == once


def _samples(labels, lang="en"):
    return [
        TextSample(sample_id=f"t{i}", text=f"text {i}", label=int(y), language=lang)
        for i, y in enumerate(labels)
    ]


class TestUpsample:
    def test_eight_two_becomes_eight_eight(self):
        samples = _samples([0] * 8 + [1] * 2)
        out = upsample(samples, seed=1)
        counts = {0: 0, 1: 0}
        for s in out:
            counts[s.label] += 1
        assert counts == {0: 8, 1: 8}

    def test_balanced_input_unchanged(self):
        samples = _samples([0, 1, 0, 1])
        assert upsample(samples, seed=3) == samples

    def test_seventeen_percent_minority_balances_to_even(self):
        # 17.18% of 8000 rounds to 1374 minority samples.
        minority = 1374
        samples = _samples([0] * (8000 - minority) + [1] * minority)
        out = upsample(samples, seed=11)
        counts = {0: 0, 1: 0}
        for s in out:
            counts[s.label] += 1
        assert counts == {0: 6626, 1: 6626}
        assert len(out) == 2 * 6626

    def test_originals_preserved_in_order(self):
        samples = _samples([0, 0, 0, 1])
        out = upsample(samples, seed=5)
        assert out[: len(samples)] == samples

    def test_never_invents_text(self):
        samples = _samples([0] * 6 + [1] * 2 + [2] * 3)
        texts = {s.text for s in samples}
        for s in upsample(samples, seed=8):
            assert s.text in texts

    def test_duplicates_get_fresh_ids(self):
        samples = _samples([0] * 5 + [1])
        out = upsample(samples, seed=2)
        ids = [s.sample_id for s in out]
        assert len(set(ids)) == len(ids)

    def test_same_seed_reproduces_bit_identically(self):
        samples = _samples([0] * 9 + [1] * 2)
        assert upsample(samples, seed=7) == upsample(samples, seed=7)

    def test_draws_are_pinned_for_one_seed(self):
        samples = _samples([0] * 8 + [1] * 2 + [2] * 3)
        out = upsample(samples, seed=2024)
        assert out[:13] == samples
        assert [s.sample_id for s in out[13:]] == [
            "t9-up1", "t8-up2", "t8-up3", "t9-up4", "t9-up5", "t8-up6",
            "t12-up1", "t12-up2", "t11-up3", "t11-up4", "t10-up5"]
        assert [s.text for s in out[13:]] == [
            samples[int(s.sample_id[1:].split("-")[0])].text for s in out[13:]]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_unsigned_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an unsigned 64-bit integer$"):
            upsample(_samples([0, 0, 1]), seed=seed)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            upsample([], seed=0)


class TestAugment:
    def test_appends_translated_source_language_samples(self):
        samples = (_samples([0, 1, 0], lang="it")
                   + _samples([1, 0, 1, 0, 1], lang="en"))
        # distinct ids across the two groups
        samples = [
            TextSample(f"{s.language}{i}", s.text, s.label, s.language)
            for i, s in enumerate(samples)
        ]
        out = augment_backtranslate(samples, identity_translator, "it", "en")
        assert len(out) == 11
        assert out[: len(samples)] == samples
        added = out[len(samples):]
        assert all(s.language == "en" for s in added)
        assert [s.label for s in added] == [0, 1, 0]

    def test_identity_stub_copies_text(self):
        samples = _samples([0, 1], lang="it")
        out = augment_backtranslate(samples, identity_translator, "it", "en")
        assert out[2].text == samples[0].text
        assert out[2].sample_id == "t0-bt"

    def test_no_source_language_is_a_fixed_point(self):
        samples = _samples([0, 1], lang="en")
        assert augment_backtranslate(samples, identity_translator, "it", "en") == samples

    def test_translator_failure_names_sample(self):
        def broken(text, source_lang, target_lang):
            raise RuntimeError("backend down")

        samples = _samples([0], lang="it")
        with pytest.raises(AugmentationError, match="t0"):
            augment_backtranslate(samples, broken, "it", "en")


@pytest.mark.parametrize("text, message", [
    ('{"sample_id": "", "text": "x", "label": 0, "lang": "en"}\n',
     "{path}:1: sample_id must be non-empty"),
    ('\n{"sample_id": "a", "text": "x", "label": -1, "lang": "en"}\n',
     "{path}:2: sample 'a': negative label"),
    ("\n  \n\t\n", "{path}: no samples"),
    # A repeated id at line 3 comes before invalid JSON at line 5, as the
    # CSV readers report the first fault by line.
    ('{"sample_id": "a", "text": "x", "label": 0, "lang": "en"}\n\n'
     '{"sample_id": "a", "text": "y", "label": 1, "lang": "en"}\n\nnot json\n',
     "{path}:3: duplicate sample_id 'a' (first seen at line 1)"),
], ids=["empty-id", "negative-label", "blank-lines", "repeat-before-bad-json"])
def test_read_samples_errors(tmp_path, text, message):
    path = tmp_path / "samples.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(message.format(path=path))}$"):
        read_samples(path)


class TestSamplesIO:
    def test_round_trip(self, tmp_path):
        samples = [
            TextSample("a", "l'acqua è pulita", 1, "it"),
            TextSample("b", "plain water", 0, "en"),
            # json.dumps leaves these two line separators unescaped.
            TextSample("c", "one\u2028two\x85three", 0, "en"),
        ]
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path)
        assert read_samples(path) == samples

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text(
            '{"sample_id": "a", "text": "x", "label": 0, "lang": "en"}\nnot json\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"samples\.jsonl:2"):
            read_samples(path)

    def test_wrong_keys_rejected_with_line(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"sample_id": "a", "text": "x", "label": 0}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"samples\.jsonl:1"):
            read_samples(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text(
            '{"sample_id": "a", "text": "x", "label": "1", "lang": "en"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="label"):
            read_samples(path)

    @pytest.mark.parametrize("key, value, shown", [
        ("sample_id", None, "null"),
        ("text", 5, "5"),
        ("lang", ["it"], '["it"]'),
    ], ids=["sample_id", "text", "lang"])
    def test_string_valued_keys_take_only_json_strings(self, tmp_path, key, value, shown):
        # The other keys stay valid, so the error is the one about ``key``.
        sample = {"sample_id": "a", "text": "x", "label": 0, "lang": "en", key: value}
        path = tmp_path / "samples.jsonl"
        path.write_text('{"sample_id": "z", "text": "y", "label": 1, "lang": "en"}\n'
                        + json.dumps(sample) + "\n", encoding="utf-8")
        message = f"{path}:2: '{key}' must be a string, got {shown}"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            read_samples(path)
