(* Test-only reference for [Routing.Selfstab.enabled_dests] and
   [is_silent]: the per-destination formulation, which calls [read] for
   every (d, q) pair and checks each entry with [stable] on its own. The
   production scan fetches each neighbor's table once and checks every d
   in one loop; the differential in test_routing.ml pins the two to the
   same results. *)

open Routing.Selfstab

let rec best_via ~tie ~read ~d bd bv = function
  | [] -> bv
  | q :: rest ->
      let qd = (read q).(d).dist in
      let wins = match tie with Smallest_id -> qd < bd | Largest_id -> qd <= bd in
      if wins then best_via ~tie ~read ~d qd q rest
      else best_via ~tie ~read ~d bd bv rest

let target_dist g ~read ~d bv =
  let n = Topology.Graph.n g in
  if bv < 0 then n
  else
    let bd = (read bv).(d).dist in
    if bd >= n then n else bd + 1

let stable ~tie g ~read ~p ~d e =
  if p = d then e.dist = 0 && e.via = p
  else
    let bv = best_via ~tie ~read ~d max_int (-1) (Topology.Graph.neighbors g p) in
    e.via = bv && e.dist = target_dist g ~read ~d bv

let enabled_dests ~tie g ~read ~p =
  List.filter
    (fun d -> not (stable ~tie g ~read ~p ~d (read p).(d)))
    (List.init (Topology.Graph.n g) Fun.id)

let is_silent ~tie g read =
  List.for_all
    (fun p -> enabled_dests ~tie g ~read ~p = [])
    (List.init (Topology.Graph.n g) Fun.id)
