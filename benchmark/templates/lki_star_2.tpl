# star, 4 edges: managers with an incoming and an outgoing recommendation,
# a co-reviewer and an employer.
template lki_star_2
node u_o Person title = "Manager"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
node u3 Person
node u4 Org employees >= 100
edge u1 u_o recommend
edge u_o u2 recommend ?e1
edge u_o u3 coreview ?e2
edge u_o u4 worksAt
ladder $x1 8 18
ladder $x2 22 10
output u_o
