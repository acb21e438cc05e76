"""English suffix stripping and the default stopword list.

The stemmer is the classic five-step suffix-stripping algorithm for English
(Porter, "An algorithm for suffix stripping", 1980). It is embedded here so
the preprocessing pipeline has no runtime dependency on an NLP toolkit.

A step changes a word only if the word ends in one of its suffixes, so a
word whose last character ends none of them is returned at once. The
consonant/vowel pattern is computed only for a stem whose measure a rule
reads. Steps 2-4 look the word's ending up in one dict per suffix length,
longest first, instead of scanning their rule lists.
"""

from __future__ import annotations

# ASCII code -> "v" (vowel), "c" (consonant) or "y" (decided by context).
_CV = {code: "c" for code in range(128)}
_CV.update({ord(ch): "v" for ch in "aeiou"})
_CV[ord("y")] = "y"


def _pattern(word: str) -> str:
    """The word's consonant/vowel pattern: a y is a consonant at the start
    or after a vowel, and a vowel after a consonant."""
    cv = word.translate(_CV)
    while "y" in cv:
        i = cv.index("y")
        cv = cv[:i] + ("v" if i and cv[i - 1] == "c" else "c") + cv[i + 1:]
    return cv


def _ends_cvc(word: str, cv: str) -> bool:
    """Consonant-vowel-consonant ending, the last not w, x or y."""
    return cv.endswith("cvc") and word[-1] not in "wxy"


def _by_length(rules):
    """Rules (suffix, replacement) as the set of their suffixes' last
    letters and [(length, {suffix: replacement})], longest suffix first."""
    tables: dict[int, dict[str, str]] = {}
    for suffix, repl in rules:
        tables.setdefault(len(suffix), {})[suffix] = repl
    last_letters = frozenset(suffix[-1] for table in tables.values() for suffix in table)
    return last_letters, sorted(tables.items(), reverse=True)


def _lookup(word: str, tables):
    """The stem left by the longest rule suffix ending `word` and the rule's
    replacement, or None."""
    last_letters, by_length = tables
    if word[-1:] in last_letters:
        for n, rules in by_length:
            repl = rules.get(word[-n:])
            if repl is not None:
                return word[:-n], repl
    return None


def stem(word: str) -> str:
    """Stem a lowercase word of ASCII letters and digits."""
    if len(word) <= 2 or word[-1] not in _LAST_LETTERS:
        return word

    # Step 1a: plurals.
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]

    # Step 1b: -eed, -ed, -ing.
    if word.endswith("eed"):
        if _pattern(word[:-3]).count("vc"):
            word = word[:-1]
    elif word.endswith(("ed", "ing")):
        n = len(word) - (2 if word.endswith("d") else 3)
        cv = _pattern(word[:n])
        if "v" in cv:
            word = word[:n]
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif (len(word) >= 2 and word[-1] == word[-2] and cv[-1] == "c"
                  and word[-1] not in "lsz"):
                word = word[:-1]
            elif cv.count("vc") == 1 and _ends_cvc(word, cv):
                word += "e"

    # Step 1c: a final y after a vowel somewhere becomes i.
    if word.endswith("y") and "v" in _pattern(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2 and 3: the longest rule suffix applies if the stem left has a
    # positive measure.
    for tables in (_STEP2, _STEP3):
        hit = _lookup(word, tables)
        if hit is not None and _pattern(hit[0]).count("vc"):
            word = hit[0] + hit[1]

    # Step 4: drop the longest rule suffix (or -ion after s or t) if the
    # stem left has a measure above 1.
    hit = _lookup(word, _STEP4)
    if hit is None and word.endswith(("sion", "tion")):
        hit = word[:-3], ""
    if hit is not None and _pattern(hit[0]).count("vc") > 1:
        word = hit[0]

    # Step 5a: a final e goes after a measure above 1, or a measure of 1
    # without a consonant-vowel-consonant ending before it.
    if word.endswith("e"):
        cv = _pattern(word[:-1])
        m = cv.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], cv)):
            word = word[:-1]

    # Step 5b: -ll becomes -l after a measure above 1.
    if word.endswith("ll") and _pattern(word).count("vc") > 1:
        word = word[:-1]
    return word


# Within each step, a rule suffix that ends another comes after it, so the
# first matching rule in list order is the longest matching suffix.
_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]

_STEP2 = _by_length(_STEP2_RULES)
_STEP3 = _by_length(_STEP3_RULES)
_STEP4 = _by_length((suffix, "") for suffix in _STEP4_SUFFIXES)

# The last letters of every suffix a step tests: the rule tables' and the
# endings `stem` tests in steps 1, 4 and 5. A word ending in any other
# character leaves every step as it is.
_LAST_LETTERS = _STEP2[0] | _STEP3[0] | _STEP4[0] | frozenset(
    ending[-1] for ending in ("sses", "ies", "s", "eed", "ed", "ing", "y",
                              "sion", "tion", "e", "ll"))


# Standard English stopword list (~170 entries). Tokens are the runs of
# letters and digits, so contraction fragments (don, ve, ll, ...)
# are included explicitly.
STOPWORDS = frozenset("""
a about above after again against all am an and any are aren as at be because
been before being below between both but by can cannot could couldn did didn
do does doesn doing don down during each few for from further had hadn has
hasn have haven having he her here hers herself him himself his how i if in
into is isn it its itself just ll me mightn more most mustn my myself needn
no nor not now o of off on once only or other our ours ourselves out over own
re s same shan she should shouldn so some such t than that the their theirs
them themselves then there these they this those through to too under until
up ve very was wasn we were weren what when where which while who whom why
will with won would wouldn y you your yours yourself yourselves
""".split())
