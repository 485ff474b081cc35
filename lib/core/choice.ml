let members g ~p = p :: Topology.Graph.neighbors g p

let rec mem (x : int) = function [] -> false | y :: rest -> x = y || mem x rest

(* [queue] holds exactly [remaining] entries, each a member of
   [N_p ∪ {p}] occurring once: with [remaining = |N_p| + 1] it is a
   permutation of the members. Direct recursion, so the check allocates
   nothing. *)
let rec permutes ~p nbrs remaining = function
  | [] -> remaining = 0
  | x :: rest ->
      remaining > 0
      && (x = p || mem x nbrs)
      && (not (mem x rest))
      && permutes ~p nbrs (remaining - 1) rest

let is_well_formed g ~p queue =
  let nbrs = Topology.Graph.neighbors g p in
  permutes ~p nbrs (List.length nbrs + 1) queue

let normalize g ~p queue =
  if is_well_formed g ~p queue then queue
  else
    let allowed = members g ~p in
    let seen = Hashtbl.create 8 in
    let keep x =
      if List.mem x allowed && not (Hashtbl.mem seen x) then begin
        Hashtbl.replace seen x ();
        true
      end
      else false
    in
    let kept = List.filter keep queue in
    let missing = List.filter (fun x -> not (Hashtbl.mem seen x)) allowed in
    kept @ List.sort compare missing

let select ~candidate queue = List.find_opt candidate queue

let serve s queue = List.filter (fun x -> x <> s) queue @ [ s ]
