"""Two diversity measures on a hand-countable four-tree set.

The prefix measure sums distinct behavior prefixes per depth, discounted by
the branching factor; the frame-augmented measure adds distinct depth-t
truncations, rewarding sets whose trees differ in overall shape and not just
along single paths.
"""

from ididiv import PolicyTree, diff_frames, diff_sequences, diversity_report, mdf, mdp, report_to_csv


def two_obs(action, left=None, right=None):
    """The tree with root ``action`` and subtrees ``left`` (after o1) and
    ``right`` (after o2): its preorder row is the root, then each subtree's."""
    if left is None:
        return PolicyTree((action,))
    return PolicyTree((action,) + left.preorder + right.preorder, ("o1", "o2"))


trees = [
    two_obs("A", two_obs("B", two_obs("A"), two_obs("B")), two_obs("C", two_obs("C"), two_obs("A"))),
    two_obs("A", two_obs("B", two_obs("A"), two_obs("C")), two_obs("C", two_obs("C"), two_obs("C"))),
    two_obs("A", two_obs("B", two_obs("A"), two_obs("B")), two_obs("B", two_obs("B"), two_obs("B"))),
    two_obs("B", two_obs("A", two_obs("C"), two_obs("C")), two_obs("A", two_obs("A"), two_obs("B"))),
]

for t in (1, 2, 3):
    print(
        "depth %d: %2d distinct prefixes, %d distinct frames"
        % (t, diff_sequences(trees, t), diff_frames(trees, t))
    )
print()
print("prefix measure        = 2 + 5/2 + 12/4 =", mdp(trees, 2))
print("frame-augmented value = 4 + 8/2 + 16/4 =", mdf(trees, 2))
print()

report = diversity_report(trees, 2)
print(report_to_csv(report))
