# tree, 4 edges: directors with two recommenders, one of whom is in turn
# recommended and employed.
template lki_tree_1
node u_o Person title = "Director"
node u1 Person yearsOfExp >= $x1
node u2 Person
node u3 Person yearsOfExp >= $x2
node u4 Org employees >= 100
edge u1 u_o recommend
edge u2 u_o recommend ?e1
edge u3 u1 recommend ?e2
edge u1 u4 worksAt
ladder $x1 8 18
ladder $x2 8 18
output u_o
