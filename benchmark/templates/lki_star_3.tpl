# star, 3 edges, selective centre: cloud-skilled engineers.
template lki_star_3
node u_o Person title = "Engineer", skill = "Cloud"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Person
edge u1 u_o recommend
edge u2 u_o coreview ?e1
edge u_o u3 recommend ?e2
ladder $x1 8 18
ladder $x2 8 18
output u_o
