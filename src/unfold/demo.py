"""Built-in demo corpus: one scenario per supported case study.

Each entry is a complete scenario file; ``unfold demo`` parses and runs them
all through the checked engines and reports one row per case study.
"""

from __future__ import annotations

_SEQ_FOLD_DECL = r"""
decl fold_seq {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len collection /\
                    forall i. 0 <= i < len v -> v[i] = collection[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}
"""

_SEQ_ITER_DECL = r"""
decl iter_seq {
  r = iter func col
  iters ~permitted:(fun v -> len v <= len collection /\
                    forall i. 0 <= i < len v -> v[i] = collection[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}
"""

_SEQ_MAP_DECL = r"""
decl map_seq {
  r = map func col
  maps ~permitted:(fun v -> len v <= len collection /\
                   forall i. 0 <= i < len v -> v[i] = collection[i])
       ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}
"""

_SEQ_FILTER_DECL = r"""
decl filter_seq {
  r = filter func col
  filters ~permitted:(fun v -> len v <= len collection /\
                      forall i. 0 <= i < len v -> v[i] = collection[i])
          ~complete:(fun v -> len v = len collection)
  with structure = ('a seq), elt = 'a
}
"""

_FOLD_VERTEX_DECL = r"""
decl fold_vertex {
  r = fold_vertex func g acc
  folds ~permitted:(fun v -> subset v collection.dom /\ distinct v)
        ~complete:(fun v -> setof v = collection.dom)
  with structure = gt, elt = vt, accumulator = acc
}
"""

_TREE_FOLD_DECL = r"""
decl fold_tree {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len (flatten collection) /\
                    forall i. 0 <= i < len v -> v[i] = (flatten collection)[i])
        ~complete:(fun v -> len v = len (flatten collection))
  with structure = ('a tree), elt = 'a, accumulator = acc
}
"""

_TREE_LEVEL_DECL = r"""
decl fold_level {
  r = fold_level func acc col
  folds ~permitted:(fun v -> len v <= len (levels collection) /\
                    forall i. 0 <= i < len v -> v[i] = (levels collection)[i])
        ~complete:(fun v -> len v = len (levels collection))
  with structure = ('a tree), elt = ('a seq), accumulator = acc
}
"""

_TREE_ITER_DECL = r"""
decl iter_tree {
  r = iter func col
  iters ~permitted:(fun v -> len v <= len (flatten collection) /\
                    forall i. 0 <= i < len v -> v[i] = (flatten collection)[i])
        ~complete:(fun v -> len v = len (flatten collection))
  with structure = ('a tree), elt = 'a
}
"""

_DEMO_GRAPHS = r"""
collection g1 = graph {
  vertices: 1 2 3
  edge: 1 2
  edge: 1 3
  edge: 2 3
}

collection g2 = graph {
  vertices: 2 3 4
  edge: 2 3
  edge: 3 4
  edge: 4 2
}
"""

_DEMO_TREE = r"""
collection t = tree (node (node leaf 3 leaf) 1
                     (node (node leaf 4 leaf) 1 (node leaf 5 leaf)))
"""

#: scenario sources, in report order
DEMOS: dict[str, str] = {}

DEMOS["sum_seq"] = r"""
collection s = [31, 41, 59, 26, 53]
""" + _SEQ_FOLD_DECL + r"""
call sum_seq uses fold_seq {
  folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = (fun a x -> a + x);
  init = 0;
  expect = 210;
}
"""

DEMOS["stack_of_seq"] = r"""
collection s = [1, 2, 3]
""" + _SEQ_ITER_DECL + r"""
call stack_of_seq uses iter_seq {
  iters ~inv:(fun v -> reverse stack = prefix s (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = push-stack;
  expect = [3, 2, 1];
}
"""

DEMOS["queue_of_seq"] = r"""
collection s = [1, 2, 3]
""" + _SEQ_ITER_DECL + r"""
call queue_of_seq uses iter_seq {
  iters ~inv:(fun v -> queue = prefix s (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = push-queue;
  expect = [1, 2, 3];
}
"""

DEMOS["gt_seq"] = r"""
collection s = [3, 14, 15, 9, 26, 5]
""" + _SEQ_FILTER_DECL + r"""
call gt_seq uses filter_seq {
  filters ~inv:(fun v out -> len out = sum (fun i -> 10 < v[i]) 0 (len v) /\
                forall i. 0 <= i < len out -> 10 < out[i])
          ~collection:s
          ~convergence:(fun c v -> len c - len v)
  consumer = (fun x -> 10 < x);
  expect = [14, 15, 26];
}
"""

DEMOS["counter_filter_seq"] = r"""
collection s = [4, -2, 7, 0, 9]
""" + _SEQ_FILTER_DECL + r"""
call counter_filter_seq uses filter_seq {
  filters ~inv:(fun v out -> counter = len v /\
                len out = sum (fun i -> 0 < v[i]) 0 (len v))
          ~collection:s
          ~convergence:(fun c v -> len c - len v)
  consumer = filter-pos-count;
  expect = [4, 7, 9];
}
"""

DEMOS["counter_map_seq"] = r"""
collection s = [10, 20, 30]
""" + _SEQ_MAP_DECL + r"""
call counter_map_seq uses map_seq {
  maps ~inv:(fun v out -> counter = len v /\
             forall i. 0 <= i < len out -> out[i] = v[i] + 1)
       ~collection:s
       ~convergence:(fun c v -> len c - len v)
  consumer = map-incr-count;
  expect = [11, 21, 31];
}
"""

DEMOS["intersect"] = _DEMO_GRAPHS + _FOLD_VERTEX_DECL + r"""
call vertex_pass uses fold_vertex {
  folds ~inv:(intersect_vertices g1 g2)
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = restrict-vertex g2;
  init = graph { vertices: };
}

call edge_pass uses fold_vertex {
  folds ~inv:(intersect_outer g1 g2)
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = intersect-step g1 g2;
  init = vertex_pass;
  expect = graph { vertices: 2 3  edge: 2 3 };
}
"""

DEMOS["union"] = _DEMO_GRAPHS + _FOLD_VERTEX_DECL + r"""
call vertex_pass uses fold_vertex {
  folds ~inv:(union_vertices g1 g2)
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = add-vertex;
  init = copy g2;
}

call edge_pass uses fold_vertex {
  folds ~inv:(union_outer g1 g2)
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = union-step g1 g2;
  init = vertex_pass;
  expect = graph { vertices: 1 2 3 4
                   edge: 1 2  edge: 1 3  edge: 2 3  edge: 3 4  edge: 4 2 };
}
"""

DEMOS["complement"] = _DEMO_GRAPHS + _FOLD_VERTEX_DECL + r"""
call vertex_pass uses fold_vertex {
  folds ~inv:vertex_copy
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = add-vertex;
  init = graph { vertices: };
}

call edge_pass uses fold_vertex {
  folds ~inv:(complement_outer g1)
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = complement-step g1;
  init = vertex_pass;
  expect = graph { vertices: 1 2 3
                   edge: 1 1  edge: 2 1  edge: 2 2
                   edge: 3 1  edge: 3 2  edge: 3 3 };
}
"""

DEMOS["mirror"] = _DEMO_GRAPHS + _FOLD_VERTEX_DECL + r"""
call vertex_pass uses fold_vertex {
  folds ~inv:vertex_copy
        ~collection:g2
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = add-vertex;
  init = graph { vertices: };
}

call edge_pass uses fold_vertex {
  folds ~inv:(mirror_outer g2)
        ~collection:g2
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = mirror-step g2;
  init = vertex_pass;
  expect = graph { vertices: 2 3 4  edge: 2 4  edge: 3 2  edge: 4 3 };
}
"""

DEMOS["copy_vertices"] = _DEMO_GRAPHS + _FOLD_VERTEX_DECL + r"""
call copy_vertices uses fold_vertex {
  folds ~inv:vertex_copy
        ~collection:g1
        ~convergence:(fun c v -> len c.dom - len v)
  consumer = add-vertex;
  init = graph { vertices: };
  expect = graph { vertices: 1 2 3 };
}
"""

DEMOS["check_path"] = r"""
collection g = graph {
  vertices: 1 2 3 4
  edge: 1 2
  edge: 2 3
  edge: 2 4
  edge: 3 4
}

collection p1 = [1, 2, 3, 4]
collection p2 = [1, 3, 4]
collection p3 = [1, 2, 9]
""" + _SEQ_ITER_DECL + r"""
call valid_path uses iter_seq {
  iters ~inv:(fun v -> flag = ((forall i. 0 <= i < len v -> mem v[i] g.dom) /\
              (forall i. 1 <= i < len v -> mem v[i] (g.suc v[i - 1]))))
        ~collection:p1
        ~convergence:(fun c v -> len c - len v)
  consumer = path-step g;
  expect = true;
}

call missing_edge uses iter_seq {
  iters ~inv:(fun v -> flag = ((forall i. 0 <= i < len v -> mem v[i] g.dom) /\
              (forall i. 1 <= i < len v -> mem v[i] (g.suc v[i - 1]))))
        ~collection:p2
        ~convergence:(fun c v -> len c - len v)
  consumer = path-step g;
  expect = false;
}

call outside_vertex uses iter_seq {
  iters ~inv:(fun v -> flag = ((forall i. 0 <= i < len v -> mem v[i] g.dom) /\
              (forall i. 1 <= i < len v -> mem v[i] (g.suc v[i - 1]))))
        ~collection:p3
        ~convergence:(fun c v -> len c - len v)
  consumer = path-step g;
  expect = false;
}
"""

DEMOS["sum_tree"] = _DEMO_TREE + _TREE_FOLD_DECL + r"""
call sum_tree uses fold_tree {
  folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
        ~collection:t
        ~convergence:(fun c v -> len (flatten c) - len v)
  consumer = (fun a x -> a + x);
  init = 0;
  expect = 14;
}
"""

DEMOS["height_tree"] = _DEMO_TREE + _TREE_LEVEL_DECL + r"""
call height_tree uses fold_level {
  folds ~inv:(fun v a -> a = len v)
        ~collection:t
        ~convergence:(fun c v -> len (levels c) - len v)
  consumer = count;
  init = 0;
  expect = 3;
}
"""

DEMOS["gt_tree"] = _DEMO_TREE + _TREE_ITER_DECL + r"""
call gt_tree uses iter_tree {
  iters ~inv:(fun v -> counter = sum (fun i -> 2 < v[i]) 0 (len v))
        ~collection:t
        ~convergence:(fun c v -> len (flatten c) - len v)
  consumer = count-gt 2;
  expect = 3;
}
"""
