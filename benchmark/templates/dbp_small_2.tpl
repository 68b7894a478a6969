# chain, 1 edge, small answers (exact scoring): Italian movies by year.
template dbp_small_2
node m Movie country = "Italy", year >= $y, rating >= $r
node a Actor popularity >= $p
edge a m actsIn ?e1
ladder $y 1980 2000
ladder $r 3 4.5 6
ladder $p 15 45
output m
