type tie = Smallest_id | Largest_id

type entry = { dist : int; via : int }
type state = entry array

let equal_entry a b = a.dist = b.dist && a.via = b.via

let pp_entry fmt e = Format.fprintf fmt "{d=%d via=%d}" e.dist e.via

(* The canonical tree for a tie-break: among the neighbors strictly
   closer to d (ascending ids [closer]), the smallest or largest id. *)
let canonical_via ~tie = function
  | [] -> invalid_arg "Selfstab.canonical_via: disconnected graph"
  | q :: _ as closer -> (
      match tie with
      | Smallest_id -> q
      | Largest_id -> List.fold_left max q closer)

(* The graph is undirected, so a neighbor q's distance to d is read off a
   BFS started at q: deg p + 1 searches build p's table. *)
let init_correct ?(tie = Smallest_id) g p =
  let n = Topology.Graph.n g in
  let dist_from = Topology.Metrics.bfs_distances g p in
  let from_neighbor =
    List.map
      (fun q -> (q, Topology.Metrics.bfs_distances g q))
      (Topology.Graph.neighbors g p)
  in
  Array.init n (fun d ->
      if d = p then { dist = 0; via = p }
      else
        let closer =
          List.filter_map
            (fun (q, dq) -> if dq.(d) = dist_from.(d) - 1 then Some q else None)
            from_neighbor
        in
        { dist = dist_from.(d); via = canonical_via ~tie closer })

let init_correct_all ?(tie = Smallest_id) g =
  let n = Topology.Graph.n g in
  let dist_to = Array.init n (fun d -> Topology.Metrics.bfs_distances g d) in
  Array.init n (fun p ->
      Array.init n (fun d ->
          if d = p then { dist = 0; via = p }
          else
            let closer =
              List.filter
                (fun q -> dist_to.(d).(q) = dist_to.(d).(p) - 1)
                (Topology.Graph.neighbors g p)
            in
            { dist = dist_to.(p).(d); via = canonical_via ~tie closer }))

let init_random rng g p =
  let n = Topology.Graph.n g in
  let candidates = p :: Topology.Graph.neighbors g p in
  Array.init n (fun _ ->
      { dist = Prng.Splitmix.int rng (n + 1);
        via = Prng.Splitmix.choose rng candidates })

let init_worst g p =
  let n = Topology.Graph.n g in
  let largest_neighbor =
    List.fold_left max 0 (Topology.Graph.neighbors g p)
  in
  Array.init n (fun _ -> { dist = 0; via = largest_neighbor })

(* The neighbor of p whose [dist] to d wins under [tie], or -1 when p
   has none. Neighbors are visited in increasing id order: keeping the
   first minimum gives the smallest-id tie-break, keeping the last gives
   the largest-id one. Direct recursion and no tuples, so guard
   evaluation allocates nothing here. *)
let rec best_via ~tie ~read ~d bd bv = function
  | [] -> bv
  | q :: rest ->
      let qd = (read q).(d).dist in
      let wins = match tie with Smallest_id -> qd < bd | Largest_id -> qd <= bd in
      if wins then best_via ~tie ~read ~d qd q rest
      else best_via ~tie ~read ~d bd bv rest

(* The target [dist] at (p, d) when [bv] is the winning neighbor. *)
let target_dist g ~read ~d bv =
  let n = Topology.Graph.n g in
  if bv < 0 then n
  else
    let bd = (read bv).(d).dist in
    if bd >= n then n else bd + 1

let target ?(tie = Smallest_id) g ~read ~p ~d =
  if p = d then { dist = 0; via = p }
  else
    let bv = best_via ~tie ~read ~d max_int (-1) (Topology.Graph.neighbors g p) in
    { dist = target_dist g ~read ~d bv; via = bv }

(* The one stability check, behind {!is_silent} and {!stabilize} too.
   Each neighbor's table is fetched once, then one loop over d redoes
   [best_via] and [target_dist] on the fetched tables ([bd >= n] also
   covers "no neighbor", where [bd] stays [max_int]). The tie-break is
   written out here rather than shared with {!target}: ocamlopt does not
   inline a loop, and a call per d made this scan ~30% slower. *)
let enabled_dests ?(tie = Smallest_id) g ~read ~p =
  let n = Topology.Graph.n g in
  let ids = Array.of_list (Topology.Graph.neighbors g p) in
  let tables = Array.map read ids in
  let own = read p in
  let acc = ref [] in
  for d = n - 1 downto 0 do
    let e = own.(d) in
    let ok =
      if p = d then e.dist = 0 && e.via = p
      else begin
        let bd = ref max_int and bv = ref (-1) in
        for i = 0 to Array.length ids - 1 do
          let qd = tables.(i).(d).dist in
          let wins =
            match tie with Smallest_id -> qd < !bd | Largest_id -> qd <= !bd
          in
          if wins then begin
            bd := qd;
            bv := ids.(i)
          end
        done;
        e.via = !bv && e.dist = if !bd >= n then n else !bd + 1
      end
    in
    if not ok then acc := d :: !acc
  done;
  !acc

let apply ?(tie = Smallest_id) g ~read ~p ~d =
  let table = Array.copy (read p) in
  table.(d) <- target ~tie g ~read ~p ~d;
  table

let next_hop state ~d = state.(d).via

let is_silent ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let rec loop p = p >= n || (enabled_dests ~tie g ~read ~p = [] && loop (p + 1)) in
  loop 0

let is_correct ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let rec loop p =
    p >= n
    || (Array.for_all2 equal_entry (read p) (init_correct ~tie g p)
       && loop (p + 1))
  in
  loop 0

let stabilize ?(tie = Smallest_id) g read =
  let n = Topology.Graph.n g in
  let current = Array.init n read in
  let rounds = ref 0 in
  (* Synchronous execution of A alone: every enabled (p, d) pair fires at
     once. Bounded by O(n) rounds for min-hop distance vectors capped at n;
     the 4n + 4 limit is a safety net against implementation bugs.

     Dirty-set evaluation: [enabled_dests p] reads only p's and its
     neighbors' tables, and the only table writes are the fires
     themselves, so a processor checked disabled stays disabled until a
     closed-neighborhood table changes. Only dirty processors are
     re-checked each round; the fire set (hence rounds and the final
     tables) is identical to the full rescan. *)
  let dirty = Array.make n true in
  let continue = ref true in
  while !continue do
    let read_now p = current.(p) in
    let fired = ref [] in
    let next = Array.copy current in
    for p = 0 to n - 1 do
      if dirty.(p) then
        match enabled_dests ~tie g ~read:read_now ~p with
        | [] -> dirty.(p) <- false
        | dests ->
            let table = Array.copy current.(p) in
            List.iter
              (fun d -> table.(d) <- target ~tie g ~read:read_now ~p ~d)
              dests;
            next.(p) <- table;
            fired := p :: !fired
    done;
    if !fired = [] then continue := false
    else begin
      incr rounds;
      if !rounds > (4 * n) + 4 then
        failwith "Selfstab.stabilize: did not reach silence (bug)";
      Array.blit next 0 current 0 n;
      List.iter
        (fun p ->
          dirty.(p) <- true;
          List.iter (fun q -> dirty.(q) <- true) (Topology.Graph.neighbors g p))
        !fired
    end
  done;
  (!rounds, fun p -> current.(p))
