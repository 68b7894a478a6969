# star, 2 edges, answers in the thousands: movies by rating and year with
# an optional awarded director and an optional studio.
template dbp_star_1
node m Movie rating >= $r, year >= $y
node d Director awards >= 2
node s Studio
edge d m directed ?e1
edge m s producedBy ?e2
ladder $r 3 4.5 6
ladder $y 1980 2000
output m
