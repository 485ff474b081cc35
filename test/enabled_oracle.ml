(* Test-only reference for [Ssmfp.Protocol.enabled_rules]: the
   straightforward evaluation that runs all six guards for every
   destination, in rotated offer order, with the full (allocating) queue
   normalization and the routing layer's per-destination target records.
   The production function skips destinations that cannot have an
   enabled rule; the differential in test_enabled_oracle.ml pins the two
   to the same action lists. *)

open Ssmfp
open Ssmfp.Protocol

(* --- the routing layer's stability check, record by record ------------ *)

let target ~tie g ~read ~p ~d =
  let open Routing.Selfstab in
  if p = d then { dist = 0; via = p }
  else begin
    let n = Topology.Graph.n g in
    let best (bd, bv) q =
      let qd = (read q).(d).dist in
      let wins = match tie with Smallest_id -> qd < bd | Largest_id -> qd <= bd in
      if wins then (qd, q) else (bd, bv)
    in
    let bd, bv =
      List.fold_left best (max_int, -1) (Topology.Graph.neighbors g p)
    in
    if bd >= n then { dist = n; via = bv } else { dist = bd + 1; via = bv }
  end

let enabled_dests ~tie g ~read ~p =
  let table = read p in
  List.filter
    (fun d -> not (Routing.Selfstab.equal_entry table.(d) (target ~tie g ~read ~p ~d)))
    (List.init (Topology.Graph.n g) Fun.id)

(* --- choice_p(d) -------------------------------------------------------- *)

(* Keep the first occurrence of each member of N_p ∪ {p}, drop everything
   else, append the missing members in ascending order. *)
let normalize g ~p queue =
  let allowed = p :: Topology.Graph.neighbors g p in
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

let next_destination sp =
  match sp.State.outbox with [] -> None | (d, _) :: _ -> Some d

let read (net : State.t Sim.Engine.net) q = net.states.(q)
let routing_of net q = (read net q).State.routing
let slot_of net q d = State.slot (read net q) d
let readable g ~p q = q = p || Topology.Graph.is_edge g p q

let buf_r_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_r else None

let buf_e_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_e else None

let next_hop net q ~d = Routing.Selfstab.next_hop (routing_of net q) ~d

let can_feed g net ~p ~d s =
  if s = p then
    let sp = read net p in
    sp.State.request && next_destination sp = Some d
  else
    match buf_e_seen g net ~p s d with
    | Some _ -> next_hop net s ~d = p
    | None -> false

let choice g net ~p ~d =
  List.find_opt (can_feed g net ~p ~d) (normalize g ~p (slot_of net p d).State.queue)

(* --- guards ------------------------------------------------------------- *)

let guard_r1 g net ~p ~d =
  let sp = read net p in
  sp.State.request
  && next_destination sp = Some d
  && (State.slot sp d).State.buf_r = None
  && choice g net ~p ~d = Some p

let guard_r2 g net ~p ~d =
  let sl = slot_of net p d in
  match (sl.State.buf_e, sl.State.buf_r) with
  | None, Some m ->
      let q = m.Message.last in
      q = p
      ||
      (match buf_e_seen g net ~p q d with
      | Some m' ->
          not (Message.matches_info_color m' ~info:m.Message.info ~color:m.Message.color)
      | None -> true)
  | _ -> false

let guard_r3 g net ~p ~d =
  (slot_of net p d).State.buf_r = None
  &&
  match choice g net ~p ~d with
  | Some s when s <> p -> (
      match buf_e_seen g net ~p s d with Some _ -> true | None -> false)
  | Some _ | None -> false

let guard_r4 g net ~p ~d =
  p <> d
  &&
  match (slot_of net p d).State.buf_e with
  | None -> false
  | Some m ->
      let h = next_hop net p ~d in
      let is_copy = function
        | Some (m' : Message.t) ->
            m'.info = m.Message.info && m'.last = p && m'.color = m.Message.color
        | None -> false
      in
      readable g ~p h
      && is_copy (buf_r_seen g net ~p h d)
      && List.for_all
           (fun r -> r = h || not (is_copy (buf_r_seen g net ~p r d)))
           (Topology.Graph.neighbors g p)

let guard_r5 ~literal g net ~p ~d =
  match (slot_of net p d).State.buf_r with
  | None -> false
  | Some m when (not literal) && m.Message.last = p -> false
  | Some m -> (
      let q = m.Message.last in
      match buf_e_seen g net ~p q d with
      | Some m' ->
          Message.matches_info_color m' ~info:m.Message.info ~color:m.Message.color
          && next_hop net q ~d <> p
      | None -> false)

let guard_r6 net ~p ~d = d = p && (slot_of net p d).State.buf_e <> None

(* --- enabled actions, in offer order ------------------------------------ *)

let rotated n rr = List.init n (fun i -> (rr + i) mod n)

let rules_for g ~variant net ~p ~d =
  let add rule guard acc = if guard then { rule; dest = d } :: acc else acc in
  List.rev
    ([]
    |> add R6 (guard_r6 net ~p ~d)
    |> add R4 (guard_r4 g net ~p ~d)
    |> add R5 (variant.use_r5 && guard_r5 ~literal:variant.literal_r5 g net ~p ~d)
    |> add R2 (guard_r2 g net ~p ~d)
    |> add R3 (guard_r3 g net ~p ~d)
    |> add R1 (guard_r1 g net ~p ~d))

let enabled_rules g ~variant ~run_routing ~tie net ~p =
  let n = Topology.Graph.n g in
  let rr =
    let r = (read net p).State.rr mod n in
    if r < 0 then r + n else r
  in
  let order = rotated n rr in
  let routing_actions =
    if not run_routing then []
    else
      let dests = enabled_dests ~tie g ~read:(routing_of net) ~p in
      List.filter_map
        (fun d -> if List.mem d dests then Some { rule = Route; dest = d } else None)
        order
  in
  if routing_actions <> [] then routing_actions
  else List.concat_map (fun d -> rules_for g ~variant net ~p ~d) order
