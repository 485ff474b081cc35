(* Tests for the topology library: builders, invariants, metrics, DOT. *)

let check = Alcotest.check

let test_create_basic () =
  let g = Topology.Graph.create ~n:3 ~edges:[ (0, 1); (1, 2); (1, 0) ] in
  check Alcotest.int "n" 3 (Topology.Graph.n g);
  check Alcotest.int "dedup edges" 2 (Topology.Graph.edge_count g);
  check Alcotest.(list int) "neighbors sorted" [ 0; 2 ]
    (Topology.Graph.neighbors g 1);
  Alcotest.(check bool) "edge both ways" true
    (Topology.Graph.is_edge g 2 1 && Topology.Graph.is_edge g 1 2)

let test_create_rejects () =
  Alcotest.check_raises "self loop" (Topology.Graph.Invalid_edge (1, 1))
    (fun () -> ignore (Topology.Graph.create ~n:3 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "out of range" (Topology.Graph.Invalid_edge (0, 5))
    (fun () -> ignore (Topology.Graph.create ~n:3 ~edges:[ (0, 5) ]))

let test_ring () =
  let g = Topology.Builders.ring 6 in
  check Alcotest.int "edges" 6 (Topology.Graph.edge_count g);
  check Alcotest.int "delta" 2 (Topology.Graph.max_degree g);
  check Alcotest.int "diameter" 3 (Topology.Metrics.diameter g);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g)

let test_path () =
  let g = Topology.Builders.path 5 in
  check Alcotest.int "edges" 4 (Topology.Graph.edge_count g);
  check Alcotest.int "diameter" 4 (Topology.Metrics.diameter g);
  check Alcotest.int "dist ends" 4 (Topology.Metrics.dist g 0 4)

let test_star () =
  let g = Topology.Builders.star 7 in
  check Alcotest.int "delta" 6 (Topology.Graph.max_degree g);
  check Alcotest.int "diameter" 2 (Topology.Metrics.diameter g);
  check Alcotest.int "center degree" 6 (Topology.Graph.degree g 0);
  check Alcotest.int "leaf degree" 1 (Topology.Graph.degree g 3)

let test_complete () =
  let g = Topology.Builders.complete 5 in
  check Alcotest.int "edges" 10 (Topology.Graph.edge_count g);
  check Alcotest.int "diameter" 1 (Topology.Metrics.diameter g)

let test_binary_tree () =
  let g = Topology.Builders.binary_tree 7 in
  check Alcotest.int "edges" 6 (Topology.Graph.edge_count g);
  check Alcotest.int "root degree" 2 (Topology.Graph.degree g 0);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g)

let test_k_ary_tree () =
  let g = Topology.Builders.full_k_ary_tree ~k:3 ~depth:2 in
  check Alcotest.int "n = 1+3+9" 13 (Topology.Graph.n g);
  check Alcotest.int "edges" 12 (Topology.Graph.edge_count g);
  check Alcotest.int "diameter" 4 (Topology.Metrics.diameter g)

let test_grid () =
  let g = Topology.Builders.grid ~rows:3 ~cols:4 in
  check Alcotest.int "n" 12 (Topology.Graph.n g);
  check Alcotest.int "edges" 17 (Topology.Graph.edge_count g);
  check Alcotest.int "diameter" 5 (Topology.Metrics.diameter g);
  check Alcotest.int "corner degree" 2 (Topology.Graph.degree g 0)

let test_torus () =
  let g = Topology.Builders.torus ~rows:3 ~cols:3 in
  check Alcotest.int "n" 9 (Topology.Graph.n g);
  (* every vertex has degree 4 on a 3x3 torus *)
  Topology.Graph.iter_vertices
    (fun v -> check Alcotest.int "degree 4" 4 (Topology.Graph.degree g v))
    g

let test_hypercube () =
  let g = Topology.Builders.hypercube 3 in
  check Alcotest.int "n" 8 (Topology.Graph.n g);
  check Alcotest.int "delta" 3 (Topology.Graph.max_degree g);
  check Alcotest.int "diameter" 3 (Topology.Metrics.diameter g);
  check Alcotest.int "edges" 12 (Topology.Graph.edge_count g)

let test_caterpillar_tree () =
  let g = Topology.Builders.caterpillar_tree ~spine:3 ~legs:2 in
  check Alcotest.int "n" 9 (Topology.Graph.n g);
  check Alcotest.int "tree edges" 8 (Topology.Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Topology.Graph.is_connected g)

let test_lollipop () =
  let g = Topology.Builders.lollipop ~clique:4 ~tail:3 in
  check Alcotest.int "n" 7 (Topology.Graph.n g);
  check Alcotest.int "edges" 9 (Topology.Graph.edge_count g);
  check Alcotest.int "diameter" 4 (Topology.Metrics.diameter g)

let test_paper_networks () =
  let g1 = Topology.Builders.paper_figure1 in
  check Alcotest.int "fig1 n" 5 (Topology.Graph.n g1);
  let g2 = Topology.Builders.paper_figure2 in
  check Alcotest.int "fig2 n" 4 (Topology.Graph.n g2);
  check Alcotest.int "fig2 delta" 3 (Topology.Graph.max_degree g2);
  (* b and c adjacent: required for the Figure 3 color story *)
  Alcotest.(check bool) "b-c edge" true (Topology.Graph.is_edge g2 1 2)

let test_bfs_and_apsp () =
  let g = Topology.Builders.ring 8 in
  let d0 = Topology.Metrics.bfs_distances g 0 in
  check Alcotest.int "antipode" 4 d0.(4);
  let all = Topology.Metrics.all_pairs_distances g in
  Topology.Graph.iter_vertices
    (fun u ->
      Topology.Graph.iter_vertices
        (fun v -> check Alcotest.int "symmetric" all.(u).(v) all.(v).(u))
        g)
    g

let test_shortest_path () =
  let g = Topology.Builders.grid ~rows:3 ~cols:3 in
  let p = Topology.Metrics.shortest_path g 0 8 in
  check Alcotest.int "length" 5 (List.length p);
  check Alcotest.int "starts" 0 (List.hd p);
  check Alcotest.int "ends" 8 (List.nth p 4);
  (* consecutive vertices adjacent *)
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "adjacent" true (Topology.Graph.is_edge g a b);
        adjacent rest
    | _ -> ()
  in
  adjacent p

let test_shortest_path_tree () =
  let g = Topology.Builders.path 5 in
  let t = Topology.Metrics.shortest_path_tree g 4 in
  check Alcotest.(list int) "chain towards 4" [ 1; 2; 3; 4; 4 ]
    (Array.to_list t)

let test_eccentricity_radius () =
  let g = Topology.Builders.path 5 in
  check Alcotest.int "center ecc" 2 (Topology.Metrics.eccentricity g 2);
  check Alcotest.int "radius" 2 (Topology.Metrics.radius g);
  check Alcotest.int "diameter" 4 (Topology.Metrics.diameter g)

let test_average_distance () =
  let g = Topology.Builders.complete 4 in
  Alcotest.(check (float 1e-9)) "complete avg" 1.0
    (Topology.Metrics.average_distance g)

let test_degree_histogram () =
  let g = Topology.Builders.star 5 in
  check
    Alcotest.(list (pair int int))
    "histogram" [ (1, 4); (4, 1) ]
    (Topology.Metrics.degree_histogram g)

let test_dot_output () =
  let g = Topology.Builders.path 3 in
  let dot = Topology.Dot.of_graph ~labels:Topology.Dot.default_letter g in
  Alcotest.(check bool) "has node a" true
    (Test_util.contains dot "label=\"a\"");
  Alcotest.(check bool) "has edge" true (Test_util.contains dot "n0 -- n1")

(* Properties *)

let graph_gen =
  QCheck.make
    ~print:(fun (n, extra, seed) -> Printf.sprintf "n=%d extra=%d seed=%d" n extra seed)
    QCheck.Gen.(triple (int_range 1 40) (int_range 0 30) (int_range 0 10_000))

let prop_random_connected =
  QCheck.Test.make ~name:"random_connected is connected" ~count:200 graph_gen
    (fun (n, extra, seed) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_connected rng ~n ~extra_edges:extra in
      Topology.Graph.is_connected g && Topology.Graph.n g = n)

(* [is_edge] against the edge list, for every pair including ids just
   outside the vertex range. *)
let prop_is_edge_matches_edges =
  QCheck.Test.make ~name:"is_edge = membership in the edge list" ~count:200
    graph_gen (fun (n, extra, seed) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_connected rng ~n ~extra_edges:extra in
      let edges = Topology.Graph.edges g in
      let ok = ref true in
      for u = -2 to n + 1 do
        for v = -2 to n + 1 do
          let expected = List.mem (min u v, max u v) edges in
          if Topology.Graph.is_edge g u v <> expected then ok := false
        done
      done;
      !ok)

let prop_random_tree_edges =
  QCheck.Test.make ~name:"random_tree has n-1 edges" ~count:200
    QCheck.(pair (int_range 1 50) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_tree rng ~n in
      Topology.Graph.edge_count g = n - 1 && Topology.Graph.is_connected g)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"distances satisfy triangle inequality" ~count:50
    graph_gen (fun (n, extra, seed) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_connected rng ~n ~extra_edges:extra in
      let d = Topology.Metrics.all_pairs_distances g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          for w = 0 to n - 1 do
            if d.(u).(v) > d.(u).(w) + d.(w).(v) then ok := false
          done
        done
      done;
      !ok)

let prop_tree_next_hop_decreases =
  QCheck.Test.make ~name:"shortest_path_tree decreases distance" ~count:100
    graph_gen (fun (n, extra, seed) ->
      let rng = Prng.Splitmix.of_int seed in
      let g = Topology.Builders.random_connected rng ~n ~extra_edges:extra in
      let ok = ref true in
      Topology.Graph.iter_vertices
        (fun d ->
          let tree = Topology.Metrics.shortest_path_tree g d in
          let dist = Topology.Metrics.bfs_distances g d in
          Topology.Graph.iter_vertices
            (fun p ->
              if p <> d && dist.(tree.(p)) <> dist.(p) - 1 then ok := false)
            g)
        g;
      !ok)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "create" `Quick test_create_basic;
          Alcotest.test_case "create rejects" `Quick test_create_rejects;
        ] );
      ( "builders",
        [
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "k-ary tree" `Quick test_k_ary_tree;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar_tree;
          Alcotest.test_case "lollipop" `Quick test_lollipop;
          Alcotest.test_case "paper networks" `Quick test_paper_networks;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bfs & apsp" `Quick test_bfs_and_apsp;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "shortest path tree" `Quick test_shortest_path_tree;
          Alcotest.test_case "eccentricity/radius" `Quick test_eccentricity_radius;
          Alcotest.test_case "average distance" `Quick test_average_distance;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_connected;
            prop_is_edge_matches_edges;
            prop_random_tree_edges;
            prop_triangle_inequality;
            prop_tree_next_hop_decreases;
          ] );
    ]
