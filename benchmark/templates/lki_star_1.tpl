# star, 3 edges: directors recommended by two experienced people, one
# star arm reaching the director's employer.
template lki_star_1
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Org employees >= 100
edge u1 u_o recommend ?e1
edge u2 u_o recommend ?e2
edge u_o u3 worksAt
ladder $x1 8 18
ladder $x2 8 18
output u_o
