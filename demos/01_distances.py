"""Walk through the dissimilarity functions, bottom up.

Run: python3 demos/01_distances.py
"""

from covmin.blocks import preprocess_all
from covmin.config import RunConfig
from covmin.dataset import Action, Dataset, InputRecord
from covmin.distance import (
    action_distance,
    bag_matrix,
    lev_matrix,
    normalize,
    param_distance,
    url_distance,
)

# Page texts are stripped of markup, of the words most pages share ("job"
# and "build" are on both), of stopwords and numbers, and stemmed before any
# distance is taken.
get = Action(method="GET", url_words=("http", "hostname", "job"))
pages = ("<h1>Job created</h1> The build is running",
         "<h1>Job deleted</h1> The build has stopped")
run = InputRecord(id=1, actions=(get, get), outputs=pages, mr_action_counts={"mr": 1})
docs = preprocess_all(Dataset(inputs=(run,)), RunConfig())
doc1, doc2 = docs[(1, 0)], docs[(1, 1)]
print("tokens 1:", doc1.tokens)
print("tokens 2:", doc2.tokens)
# Output distances are taken as whole matrices over the distinct documents.
print("word Levenshtein:", int(lev_matrix([doc1, doc2])[0, 1]))
print("bag lower bound: ", int(bag_matrix([doc1, doc2])[0, 1]))

# URLs are compared as word sequences: everything past the longest common
# prefix counts on both sides.
u1 = ("http", "hostname", "login")
u2 = ("http", "hostname", "job", "try1", "lastBuild")
print("\nurl distance:", url_distance(u1, u2), "(1 word vs 3 past the prefix)")

# Parameter lists match positionally by value type (str or int); each value
# distance is squashed into [0, 1) before summing, and the sum is squashed
# again.
p1 = (("count", 10), ("name", "John"))
p2 = (("count", 42), ("name", "Johnny"))
print("param distance:", round(param_distance(p1, p2), 4))
print("non-matching lists score exactly:", param_distance(p1, ()))

# The action distance keeps both parts readable: integral part = URL words,
# decimal part = parameter dissimilarity.
a1 = Action(method="GET", url_words=u1, params=p1)
a2 = Action(method="GET", url_words=u2, params=p2)
print("\naction distance:", round(action_distance(a1, a2), 4),
      "= url", url_distance(u1, u2), "+ params", round(param_distance(p1, p2), 4))
print("normalize(32) =", round(normalize(32), 4), "(maps any count into [0, 1))")
