"""Primitives for finite words over the fixed alphabet {a, b}.

Words are plain Python strings.  The empty string is the identity for
concatenation and counts as a prefix, suffix and subword of every word.
"""

from itertools import compress, repeat

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


def common_prefix_length(x, y):
    """Length of the longest common prefix of ``x`` and ``y``, by binary
    search: each step compares one slice at C level, so no letter is
    stepped in Python.

    >>> common_prefix_length("abba", "abab")
    2
    """
    n = min(len(x), len(y))
    if x.startswith(y) or y.startswith(x):
        return n
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        # x and y agree on [0, lo); test [lo, mid).
        if x.startswith(y[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


class Automaton:
    """Aho-Corasick automaton over {a, b} (Aho & Corasick, 1975) on the
    trie of ``pieces``, a list of (word, label) pairs, each label an int
    >= 0 or ``SHARED`` for a piece several labels have.

    Node 0 is the root; every other node stands for the word spelled on
    its trie path, of length ``depth[k]``.  ``owner[k]`` is the label of
    the pieces through node k, or ``SHARED`` once two labels have passed.
    ``ends[i]`` is the node where piece i ends, and ``paths[i]``, for each
    i in ``keep``, the nodes of piece i's path (one per prefix length from
    0) that the selector ``keep[i]`` picks.  ``step[letter][k]`` is the
    node of the longest suffix of (node k's word + letter) that is a node
    and ``fail[k]`` that of the longest proper suffix of node k's word;
    ``order`` lists the nodes but the root breadth first, so ``fail[k]``
    comes before k.  So after reading a text, the failure chain from the
    current node lists, longest first, every suffix of the text that is a
    prefix of a piece, and the state after reading a prefix of a piece is
    that prefix's node on the piece's path.

    The pieces go in in sorted order (Fredkin's "Trie memory", 1960): a
    piece shares with all the pieces before it just the prefix it shares
    with the one before, so it resumes there and only its new letters are
    stepped in Python.  Owners are marked walking up from that depth to
    the first node already ``SHARED`` or owned by the piece's label, so
    each node changes owner at most once.  The failure links and the
    missing transitions then follow in one breadth-first pass.  Costs one
    sort, a binary search of slice comparisons per piece, and O(nodes)
    steps.
    """

    def __init__(self, pieces, keep):
        step_a, step_b = [0], [0]
        self.step = step = {"a": step_a, "b": step_b}
        depth = self.depth = [0]
        owner = self.owner = [SHARED]
        parent = self.parent = [0]
        ends = self.ends = [0] * len(pieces)
        paths = self.paths = {}
        path = [0]  # nodes of the previous piece, by depth
        prev = ""
        for i in sorted(range(len(pieces)), key=pieces.__getitem__):
            word, label = pieces[i]
            shared = common_prefix_length(prev, word)
            d = shared
            while d:
                node = path[d]
                if owner[node] == label or owner[node] == SHARED:
                    break
                owner[node] = SHARED
                d -= 1
            new = len(word) - shared
            if new:
                del path[shared + 1:]
                first = len(depth)
                parent.append(path[shared])
                parent.extend(range(first, first + new - 1))
                path.extend(range(first, first + new))
                depth.extend(range(shared + 1, len(word) + 1))
                owner.extend(repeat(label, new))
                step_a.extend(repeat(0, new))
                step_b.extend(repeat(0, new))
                step[word[shared]][path[shared]] = first
                for child, letter in enumerate(word[shared + 1:], first + 1):
                    step[letter][child - 1] = child
            # With no new letters the path may run on past the piece.
            ends[i] = path[len(word)]
            if i in keep:
                paths[i] = list(compress(path, keep[i]))
            prev = word
        fail = self.fail = [0] * len(depth)
        order = self.order = [child for child in (step_a[0], step_b[0]) if child]
        for node in order:
            back = fail[node]
            child = step_a[node]
            if child:
                fail[child] = step_a[back]
                order.append(child)
            else:
                step_a[node] = step_a[back]
            child = step_b[node]
            if child:
                fail[child] = step_b[back]
                order.append(child)
            else:
                step_b[node] = step_b[back]

    def occurrences(self, marked):
        """For each piece i, a dict mapping each piece j of ``marked`` that
        occurs in piece i to the end of its first occurrence there, in order
        of those ends.  Marked pieces are nonempty.

        A marked piece ends at u in a text exactly when its end node is on
        the failure chain of the text's node after u letters, and piece i's
        path is its own text.  So, parents first, each node takes its
        parent's dict and adds at its own depth the marked pieces on its
        chain not in it yet.  A dict holding a marked piece holds its node's
        chain, so each walk stops at the first node already held, and a node
        adding nothing shares its parent's dict.  Costs O(nodes) steps plus
        a dict copy per node that adds.
        """
        fail, parent, depth = self.fail, self.parent, self.depth
        held = {}  # end node -> the marked pieces ending there
        for j in marked:
            held.setdefault(self.ends[j], []).append(j)
        nearest = [0] * len(depth)
        for k in held:
            nearest[k] = k
        for k in self.order:
            if not nearest[k]:
                nearest[k] = nearest[fail[k]]
        out = [{}] * len(depth)
        for k in self.order:
            above = out[parent[k]]
            j = nearest[k]
            if not j or held[j][0] in above:
                out[k] = above
                continue
            mine = out[k] = dict(above)
            while j and held[j][0] not in mine:
                mine.update(dict.fromkeys(held[j], depth[k]))
                j = nearest[fail[j]]
        return [out[k] for k in self.ends]
