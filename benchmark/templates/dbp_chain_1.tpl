# chain, 1 edge: movies from a year on with a popular actor.
template dbp_chain_1
node m Movie year >= $y, awards >= $w
node a Actor popularity >= $p
edge a m actsIn ?e1
ladder $y 1980 2000
ladder $w 1 3
ladder $p 15 45
output m
