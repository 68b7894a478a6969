# cycle, 3 edges: a recommend / co-review triangle through a director.
template lki_cycle_1
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp <= $x2
edge u1 u_o recommend
edge u2 u1 coreview ?e1
edge u_o u2 coreview ?e2
ladder $x1 8 18
ladder $x2 22 10
output u_o
