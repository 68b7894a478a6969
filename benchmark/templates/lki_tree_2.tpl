# tree, 5 edges: scientists at the root of a two-level tree.
template lki_tree_2
node u_o Person title = "Scientist"
node u1 Person yearsOfExp >= $x1
node u2 Person yearsOfExp >= $x2
node u3 Person
node u4 Org employees >= 100
node u5 Org
edge u_o u1 recommend
edge u_o u2 coreview ?e1
edge u1 u3 recommend ?e2
edge u1 u4 worksAt
edge u_o u5 worksAt
ladder $x1 8 18
ladder $x2 8 18
output u_o
