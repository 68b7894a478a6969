# star, 2 edges, small answers (exact scoring): Korean movies.
template dbp_small_1
node m Movie country = "Korea", rating >= $r
node d Director awards >= $aw
node a Actor
edge d m directed ?e1
edge a m actsIn ?e2
ladder $r 3 4.5 6
ladder $aw 1 3
output m
