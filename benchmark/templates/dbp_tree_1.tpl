# tree, 2 edges: US movies with a director and (one level down) an actor
# the director worked with.
template dbp_tree_1
node m Movie country = "US", rating >= $r
node d Director awards >= $aw
node a Actor
edge d m directed ?e1
edge d a collab ?e2
ladder $r 3 4.5 6
ladder $aw 1 3
output m
