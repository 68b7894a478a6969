# cycle, 4 edges: a square through a designer; the closing edge is
# optional, so refinement moves between a chain and a cycle.
template lki_cycle_2
node u_o Person title = "Designer"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Person
edge u_o u1 recommend
edge u1 u2 recommend
edge u2 u3 coreview ?e1
edge u3 u_o coreview ?e2
ladder $x1 8 18
ladder $x2 8 18
output u_o
