"""Policy trees and behavior sequences from the ground up.

A depth-T policy tree prescribes an action at every node and branches on the
observation received after acting.  A tree is its actions in preorder (root,
then each observation's subtree in turn) over its observation alphabet.
Behavior sequences are the action paths it can realize; frames are its
depth-limited truncations.
"""

from ididiv import (
    PolicyTree,
    all_trees,
    canonical_encode,
    canonical_parse,
    constant_tree,
    count_tree_nodes,
    count_trees,
    frame,
    sequence_list,
)

obs = ("GrowlLeft", "GrowlRight")

# Listen; on GrowlLeft open right, on GrowlRight open left.
listen_then_open = PolicyTree(("Listen", "OpenRight", "OpenLeft"), obs)
always_listen = constant_tree("Listen", obs, 2)

print("tree:", canonical_encode(listen_then_open))
print("nodes:", len(listen_then_open.preorder), "of", count_tree_nodes(2, 2), "in a complete depth-2 tree")
print()

print("behavior sequences of the listen-then-open tree:")
for seq in sequence_list(listen_then_open):
    print("  ", seq.compact())
print()

print("depth-1 frame:", canonical_encode(frame(listen_then_open, 1)))
print()

# Round-trip through the canonical string form.
parsed = canonical_parse(canonical_encode(listen_then_open))
print("round-trip stable:", canonical_encode(parsed) == canonical_encode(listen_then_open))
print()

n = count_trees(3, 2, 2)
print("distinct depth-2 trees with 3 actions / 2 observations:", n)
enumerated = list(all_trees(("a", "b", "c"), ("x", "y"), 2))
print("enumeration agrees:", len(enumerated) == n)
