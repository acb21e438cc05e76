import re
import string
import sysconfig
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmin.dataset import load_dataset, tokenize
from covmin.stemming import (
    _LAST_LETTERS,
    _STEP2_RULES,
    _STEP3_RULES,
    _STEP4_SUFFIXES,
    STOPWORDS,
    stem,
)

from _oracles import ROOT, reference_stem, workload_corpus


KNOWN_PAIRS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("adjustment", "adjust"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("probate", "probat"),
    ("controll", "control"),
    ("roll", "roll"),
]


def test_known_pairs():
    for word, expected in KNOWN_PAIRS:
        assert stem(word) == expected, word


def test_idempotent_on_short_words():
    for word in ("a", "is", "be", "ox"):
        assert stem(word) == word


def test_stopwords_contain_core_function_words():
    for word in ("the", "and", "of", "is", "to", "a"):
        assert word in STOPWORDS
    assert "password" not in STOPWORDS


_RULE_SUFFIXES = sorted(
    {suffix for suffix, _ in _STEP2_RULES + _STEP3_RULES}
    | set(_STEP4_SUFFIXES)
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e",
       "ll", "ion", "sion", "tion"}
)


@st.composite
def _suffixed_words(draw):
    """A short lowercase start (y and digits included) and up to three rule
    suffixes, so every step's rules and their measure conditions fire."""
    start = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyzyyy0", max_size=6))
    return start + "".join(draw(st.lists(st.sampled_from(_RULE_SUFFIXES), max_size=3)))


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(_suffixed_words())
@example("yyy")
@example("sky")
@example("aeed")
def test_stem_matches_reference_on_suffixed_words(word):
    assert stem(word) == reference_stem(word)


def test_stem_matches_reference_on_workload_and_bundled_vocabularies(tmp_path):
    datasets = [workload_corpus(name, 1, tmp_path)[0]
                for name in ("long-pages", "many-pages", "deep-overlap")]
    datasets.append(load_dataset(ROOT / "data" / "synthetic.json"))
    vocabulary = {tok for ds in datasets for rec in ds.inputs
                  for raw in rec.outputs for tok in tokenize(raw)}
    assert len(vocabulary) > 1000
    for word in sorted(vocabulary):
        assert stem(word) == reference_stem(word), word


# Source files of the standard library, read where the running interpreter
# keeps them; their comments and docstrings are English prose.
_STDLIB_SOURCES = [
    "argparse.py", "calendar.py", "configparser.py", "difflib.py", "functools.py",
    "inspect.py", "locale.py", "optparse.py", "pydoc.py", "shutil.py",
    "subprocess.py", "tarfile.py", "textwrap.py", "typing.py", "collections/__init__.py",
    "email/message.py", "http/client.py", "logging/__init__.py", "unittest/case.py",
]


def test_stem_matches_reference_on_english_words():
    # Every token of the workloads and of the bundled dataset ends in x or a
    # digit, which no suffix ends, so those vocabularies never reach the
    # rules; English words do. About 0.2 s.
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    vocabulary = set()
    for name in _STDLIB_SOURCES:
        vocabulary.update(re.findall(r"\b[a-z]+\b", (stdlib / name).read_text(encoding="utf-8")))
    assert len(vocabulary) > 4000
    changed = 0
    for word in sorted(vocabulary):
        assert stem(word) == reference_stem(word), word
        changed += stem(word) != word
    assert changed > 2000


def test_early_return_letters_are_the_last_letters_of_every_tested_suffix():
    tested = ([suffix for suffix, _ in _STEP2_RULES + _STEP3_RULES] + _STEP4_SUFFIXES
              + ["sses", "ies", "s", "eed", "ed", "ing", "y", "sion", "tion", "e", "ll"])
    assert _LAST_LETTERS == {suffix[-1] for suffix in tested}
    assert _LAST_LETTERS == set("cdegilmnrstuy")


_OTHER_LAST = sorted(set(string.ascii_lowercase + string.digits) - _LAST_LETTERS)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_suffixed_words(), st.sampled_from(_OTHER_LAST))
def test_words_ending_in_no_suffix_letter_stay_as_they_are(word, last):
    word += last
    assert stem(word) == word == reference_stem(word)


def test_rule_lists_put_each_suffix_before_its_own_suffixes():
    # Steps 2-4 look the longest suffix up first; the rule lists apply the
    # first match in list order. Both pick the same rule exactly when a
    # suffix that ends another comes after it.
    for rules in ([s for s, _ in _STEP2_RULES], [s for s, _ in _STEP3_RULES],
                  _STEP4_SUFFIXES):
        for i, longer in enumerate(rules):
            for j, shorter in enumerate(rules):
                if i != j and longer.endswith(shorter):
                    assert i < j, (longer, shorter)
