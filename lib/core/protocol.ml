type rule = Route | R1 | R2 | R3 | R4 | R5 | R6

type action = { rule : rule; dest : int }

type event =
  | Generated of Message.t * int
  | Delivered of Message.t
  | Internal_forward of Message.t * int
  | Copied of Message.t * int * int
  | Erased_after_forward of Message.t * int
  | Erased_duplicate of Message.t * int
  | Routing_update of int

type variant = {
  use_colors : bool;
  use_r5 : bool;
  rotate_queue : bool;
  literal_r5 : bool;
}

let faithful =
  { use_colors = true; use_r5 = true; rotate_queue = true; literal_r5 = false }

let rule_name = function
  | Route -> "RA"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"

let pp_event fmt = function
  | Generated (m, d) -> Format.fprintf fmt "generated %a for %d" Message.pp m d
  | Delivered m -> Format.fprintf fmt "delivered %a" Message.pp m
  | Internal_forward (m, d) ->
      Format.fprintf fmt "internal %a for %d" Message.pp m d
  | Copied (m, s, d) ->
      Format.fprintf fmt "copied %a from %d for %d" Message.pp m s d
  | Erased_after_forward (m, d) ->
      Format.fprintf fmt "erasedE %a for %d" Message.pp m d
  | Erased_duplicate (m, d) ->
      Format.fprintf fmt "erasedR %a for %d" Message.pp m d
  | Routing_update d -> Format.fprintf fmt "routing update for %d" d

(* --- reading the configuration ------------------------------------- *)

let read (net : State.t Sim.Engine.net) q = net.states.(q)

let routing_of net q = (read net q).State.routing

let slot_of net q d = State.slot (read net q) d

let readable g ~p q = q = p || Topology.Graph.is_edge g p q

(* bufR_q(d) as seen from p: readable only for q in N_p ∪ {p}. *)
let buf_r_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_r else None

let buf_e_seen g net ~p q d =
  if readable g ~p q then (slot_of net q d).State.buf_e else None

let next_hop net q ~d = Routing.Selfstab.next_hop (routing_of net q) ~d

(* --- choice_p(d) ----------------------------------------------------- *)

let can_feed g net ~p ~d s =
  if s = p then State.requests (read net p) ~d
  else
    match buf_e_seen g net ~p s d with
    | Some _ -> next_hop net s ~d = p
    | None -> false

let rec first_feeder g net ~p ~d = function
  | [] -> -1
  | s :: rest -> if can_feed g net ~p ~d s then s else first_feeder g net ~p ~d rest

(* choice_p(d) as a processor id, -1 when no candidate. The normalized
   queue holds only members of N_p ∪ {p}. *)
let choice_id g net ~p ~d =
  first_feeder g net ~p ~d (Choice.normalize g ~p (slot_of net p d).State.queue)

let choice g net ~p ~d =
  let s = choice_id g net ~p ~d in
  if s < 0 then None else Some s

(* --- guards ----------------------------------------------------------- *)

(* R1 and R3 take [ch] = choice_p(d), computed once for both. *)
let guard_r1 net ~p ~d ~ch =
  let sp = read net p in
  State.requests sp ~d && Option.is_none (State.slot sp d).State.buf_r && ch = p

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

let guard_r3 g net ~p ~d ~ch =
  Option.is_none (slot_of net p d).State.buf_r
  && ch >= 0 && ch <> p
  && Option.is_some (buf_e_seen g net ~p ch d)

(* The buffer holds (m, p, c): a copy of [m] that p forwarded. *)
let is_copy_of (m : Message.t) ~p = function
  | Some (m' : Message.t) -> m'.info = m.info && m'.last = p && m'.color = m.color
  | None -> false

let rec no_stray_copy g net ~p ~d ~h m = function
  | [] -> true
  | r :: rest ->
      (r = h || not (is_copy_of m ~p (buf_r_seen g net ~p r d)))
      && no_stray_copy g net ~p ~d ~h m rest

let guard_r4 g net ~p ~d =
  p <> d
  &&
  match (slot_of net p d).State.buf_e with
  | None -> false
  | Some m ->
      let h = next_hop net p ~d in
      readable g ~p h
      && is_copy_of m ~p (buf_r_seen g net ~p h d)
      && no_stray_copy g net ~p ~d ~h m (Topology.Graph.neighbors g p)

(* R5 requires q <> p: a message whose [last] field is [p] itself was
   generated at [p] by R1 (rule R3 always stamps the feeding neighbor), so
   it is the head of a type-1 caterpillar (Definition 3's [q = p] clause),
   not a stray copy of [bufE_p]. Allowing [q = p] would erase a freshly
   generated message whenever an identical invalid message occupies
   [bufE_p(d)] — a violation of SP found by the model checker (see
   DESIGN.md §5). *)
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

let guard_r6 net ~p ~d = d = p && Option.is_some (slot_of net p d).State.buf_e

(* --- actions ----------------------------------------------------------- *)

let apply_r1 ~rotate_queue g net p d =
  let sp = read net p in
  let info = Option.get (State.next_message sp) in
  let msg = Message.fresh_valid ~src:p info in
  let sl = State.slot sp d in
  let queue = Choice.normalize g ~p sl.State.queue in
  let queue = if rotate_queue then Choice.serve p queue else queue in
  let sp = State.with_slot sp d { sl with State.buf_r = Some msg; queue } in
  let sp = State.pop_outbox { sp with State.request = false } in
  (sp, [ Generated (msg, d) ])

let apply_r2 ~use_colors g ~delta net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_r in
  let color =
    if use_colors then
      let neighbor_buf_r q = buf_r_seen g net ~p q d in
      Color.pick g ~delta ~neighbor_buf_r ~p
    else 0
  in
  let m' = Message.with_recolor m ~last:p ~color in
  let sp =
    State.with_slot sp d { sl with State.buf_r = None; buf_e = Some m' }
  in
  (sp, [ Internal_forward (m', d) ])

let apply_r3 ~rotate_queue g net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let s = Option.get (choice g net ~p ~d) in
  let m = Option.get (buf_e_seen g net ~p s d) in
  let m' = Message.with_hop m ~last:s in
  let queue = Choice.normalize g ~p sl.State.queue in
  let queue = if rotate_queue then Choice.serve s queue else queue in
  let sp = State.with_slot sp d { sl with State.buf_r = Some m'; queue } in
  (sp, [ Copied (m', s, d) ])

let apply_r4 net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_e in
  (State.with_slot sp d { sl with State.buf_e = None },
   [ Erased_after_forward (m, d) ])

let apply_r5 net p d =
  let sp = read net p in
  let sl = State.slot sp d in
  let m = Option.get sl.State.buf_r in
  (State.with_slot sp d { sl with State.buf_r = None },
   [ Erased_duplicate (m, d) ])

let apply_r6 net p =
  let sp = read net p in
  let sl = State.slot sp p in
  let m = Option.get sl.State.buf_e in
  (State.with_slot sp p { sl with State.buf_e = None }, [ Delivered m ])

(* --- enabled actions, in offer order ----------------------------------- *)

let rec neighbor_emits net ~d = function
  | [] -> false
  | s :: rest -> Option.is_some (slot_of net s d).State.buf_e || neighbor_emits net ~d rest

(* Destination d is live at p when p holds a message for d, R1 targets d,
   or a neighbor's emission buffer for d is occupied. No rule is enabled
   for any other destination (DESIGN.md §5, liveness lemma): R2 and R5
   need bufR_p(d), R4 and R6 need bufE_p(d), R1 needs the request, and
   R3 needs bufE_s(d) occupied at s = choice_p(d), a neighbor. *)
let live g net ~p ~d =
  let sp = read net p in
  let sl = State.slot sp d in
  Option.is_some sl.State.buf_r
  || Option.is_some sl.State.buf_e
  || State.requests sp ~d
  || neighbor_emits net ~d (Topology.Graph.neighbors g p)

let add rule d guard acc = if guard then { rule; dest = d } :: acc else acc

(* Prepend d's enabled actions to [acc], in the order R6, R4, R5, R2, R3,
   R1. *)
let add_rules g ~variant net ~p ~d acc =
  if not (live g net ~p ~d) then acc
  else
    let ch =
      if Option.is_none (slot_of net p d).State.buf_r then choice_id g net ~p ~d
      else -1
    in
    acc
    |> add R1 d (guard_r1 net ~p ~d ~ch)
    |> add R3 d (guard_r3 g net ~p ~d ~ch)
    |> add R2 d (guard_r2 g net ~p ~d)
    |> add R5 d (variant.use_r5 && guard_r5 ~literal:variant.literal_r5 g net ~p ~d)
    |> add R4 d (guard_r4 g net ~p ~d)
    |> add R6 d (guard_r6 net ~p ~d)

(* --- candidate destinations ------------------------------------------- *)

(* Word [w] of C_p = busy(p) ∪ ⋃_{s∈N_p} busy(s) ∪ {R1's target}, where
   busy(q) is q's occupancy bitset. Every live destination is in C_p
   (DESIGN.md §5, candidate-set lemma), so walking C_p and keeping the
   live members offers exactly what walking all n would. *)
let rec or_busy net w acc = function
  | [] -> acc
  | s :: rest -> or_busy net w (acc lor State.busy_word (read net s) w) rest

let candidate_word net ~p ~nbrs ~target w =
  let m = or_busy net w (State.busy_word (read net p) w) nbrs in
  if target >= 0 && target / State.word_bits = w then
    m lor (1 lsl (target mod State.word_bits))
  else m

(* Prepend the enabled actions of the candidates base + b for the set
   bits b of [m], highest first. [m] holds no bit above [b]. *)
let rec add_bits g ~variant net ~p m base b acc =
  if m = 0 then acc
  else
    let bit = 1 lsl b in
    if m land bit = 0 then add_bits g ~variant net ~p m base (b - 1) acc
    else
      add_bits g ~variant net ~p (m lxor bit) base (b - 1)
        (add_rules g ~variant net ~p ~d:(base + b) acc)

(* Prepend the actions of the candidates in [lo, hi], walked from the
   back one bitset word at a time, each word's bits clamped to the
   range. *)
let rec add_range g ~variant net ~p ~nbrs ~target ~lo hi acc =
  if hi < lo then acc
  else
    let w = hi / State.word_bits in
    let base = w * State.word_bits in
    let b_lo = max lo base - base and b_hi = hi - base in
    let in_range = ((1 lsl (b_hi + 1)) - 1) land (-1 lsl b_lo) in
    let m = candidate_word net ~p ~nbrs ~target w land in_range in
    add_range g ~variant net ~p ~nbrs ~target ~lo (base - 1)
      (add_bits g ~variant net ~p m base b_hi acc)

let r1_target sp ~n =
  if not sp.State.request then -1
  else
    match sp.State.outbox with
    | (d, _) :: _ when d >= 0 && d < n -> d
    | _ -> -1

let rr_of g net p =
  let n = Topology.Graph.n g in
  let rr = (read net p).State.rr mod n in
  if rr < 0 then rr + n else rr

(* Candidates rr, ..., n-1, 0, ..., rr-1 in offer order: the second
   segment is prepended first. *)
let ssmfp_actions g ~variant net ~p ~n ~rr =
  let nbrs = Topology.Graph.neighbors g p in
  let target = r1_target (read net p) ~n in
  add_range g ~variant net ~p ~nbrs ~target ~lo:rr (n - 1)
    (add_range g ~variant net ~p ~nbrs ~target ~lo:0 (rr - 1) [])

let enabled_rules g ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) net ~p =
  let n = Topology.Graph.n g in
  let rr = rr_of g net p in
  let dests =
    if run_routing then
      Routing.Selfstab.enabled_dests ~tie g ~read:(routing_of net) ~p
    else []
  in
  match dests with
  | [] -> ssmfp_actions g ~variant net ~p ~n ~rr
  | _ ->
      (* ascending [dests] in rotated order: entries >= rr, then < rr *)
      let below, from_rr = List.partition (fun d -> d < rr) dests in
      List.map (fun d -> { rule = Route; dest = d }) (from_rr @ below)

let apply_action g ~variant ~tie ~delta net p { rule; dest = d } =
  let n = Topology.Graph.n g in
  let sp', events =
    match rule with
    | Route ->
        let routing =
          Routing.Selfstab.apply ~tie g ~read:(routing_of net) ~p ~d
        in
        (State.with_routing (read net p) routing, [ Routing_update d ])
    | R1 -> apply_r1 ~rotate_queue:variant.rotate_queue g net p d
    | R2 -> apply_r2 ~use_colors:variant.use_colors g ~delta net p d
    | R3 -> apply_r3 ~rotate_queue:variant.rotate_queue g net p d
    | R4 -> apply_r4 net p d
    | R5 -> apply_r5 net p d
    | R6 -> apply_r6 net p
  in
  (State.with_rr sp' ((d + 1) mod n), events)

let make ?(variant = faithful) ?(run_routing = true)
    ?(tie = Routing.Selfstab.Smallest_id) g =
  let delta = Topology.Graph.max_degree g in
  {
    Sim.Engine.proto_name = "ssmfp";
    (* Every guard (R1–R6, choice, color picking and the routing layer's
       enabled_dests/target) reads only p's own state and its neighbors' —
       unreadable dereferences are already treated as "no message" (see
       DESIGN.md §5) — so the composed SSMFP∘routing protocol satisfies
       the Neighborhood contract and the engine's dirty-set evaluation
       applies. *)
    locality = Sim.Engine.Neighborhood;
    enabled = (fun net p -> enabled_rules g ~variant ~run_routing ~tie net ~p);
    apply = (fun net p a -> apply_action g ~variant ~tie ~delta net p a);
    action_label = (fun a -> rule_name a.rule);
  }

let message_count (net : State.t Sim.Engine.net) =
  Array.fold_left
    (fun acc sp -> acc + List.length (State.occupied_buffers sp))
    0 net.states

let has_traffic (net : State.t Sim.Engine.net) =
  Array.exists
    (fun sp ->
      sp.State.request || sp.State.outbox <> [] || State.has_occupied sp)
    net.states
