"""Primitives for finite words over the fixed alphabet {a, b}.

Words are plain Python strings.  The empty string is the identity for
concatenation and counts as a prefix, suffix and subword of every word.
"""

from .errors import AlphabetError

ALPHABET = "ab"


def check_word(w):
    """Validate that ``w`` is a string using only the letters a and b."""
    if not isinstance(w, str):
        raise AlphabetError(f"expected a string, got {type(w).__name__}")
    # Stripping the two letters from both ends leaves the word's first
    # other letter in front, or nothing.
    rest = w.strip(ALPHABET)
    if rest:
        raise AlphabetError(f"letter {rest[0]!r} is not in the alphabet {{a, b}}")
    return w


def word_key(w):
    """Sort key giving the (length, lexicographic) order used in reports."""
    return (len(w), w)


SHARED = -1


class Automaton:
    """Aho-Corasick automaton over {a, b} (Aho & Corasick, 1975).

    Node 0 is the root and stands for the empty word; every other node
    stands for the word spelled on its trie path.  Insert words with
    ``add``, then call ``close`` once.  Afterwards ``step[letter][k]`` is
    the node of the longest suffix of (node k's word + letter) that is a
    node, ``fail[k]`` the node of the longest proper suffix of node k's
    word that is a node, and ``depth[k]`` the length of node k's word.  So
    after reading a text, the failure chain from the current node lists,
    longest first, every suffix of the text that is a prefix of an
    inserted word.  ``owner[k]`` is the label of the insertions through
    node k, or ``SHARED`` once two different labels have passed.
    """

    def __init__(self):
        self.step = {"a": [0], "b": [0]}
        self.depth = [0]
        self.owner = [SHARED]
        self.fail = self.order = None

    def add(self, word, label, start=0):
        """Insert ``word[start:]`` under ``label`` (an int >= 0) and return
        the node it ends at.  Costs O(len(word) - start)."""
        step, depth, owner = self.step, self.depth, self.owner
        node = 0
        for letter in word[start:]:
            row = step[letter]
            child = row[node]
            if not child:
                child = row[node] = len(depth)
                step["a"].append(0)
                step["b"].append(0)
                depth.append(depth[node] + 1)
                owner.append(label)
            elif owner[child] != label:
                owner[child] = SHARED
            node = child
        return node

    def close(self):
        """Compute the failure links, in breadth-first ``order``, and fill
        in the missing transitions.  Costs O(nodes)."""
        rows = self.step["a"], self.step["b"]
        fail = self.fail = [0] * len(self.depth)
        order = self.order = [child for child in (rows[0][0], rows[1][0]) if child]
        for node in order:
            back = fail[node]
            for row in rows:
                child = row[node]
                if child:
                    fail[child] = row[back]
                    order.append(child)
                else:
                    row[node] = row[back]
