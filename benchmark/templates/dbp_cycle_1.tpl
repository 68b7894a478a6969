# cycle, 3 edges: a director, an actor they collaborated with, and a movie
# both worked on; the closing edge is optional.
template dbp_cycle_1
node m Movie rating >= $r
node d Director yearsActive >= $ya
node a Actor
edge d m directed
edge d a collab ?e1
edge a m actsIn ?e2
ladder $r 3 4.5 6
ladder $ya 12 25
output m
