(* Differential test of guard evaluation: [Ssmfp.Protocol.enabled_rules],
   which evaluates R1–R6 only at live destinations, against the
   evaluate-every-destination reference in enabled_oracle.ml. The two
   must return the same action list — same actions, same rr rotation,
   same rule order — at every processor of every configuration:
   random topologies, every fault spec, hand-corrupted fields outside the
   injector's domain, all protocol variants, routing on and off, both
   tie-breaks, and the configurations a short run reaches from there.
   Sizes straddle the occupancy bitset's word boundaries, and a second
   property checks the bitset itself against a recount of the slots. *)

open Ssmfp

let variants =
  [|
    ("faithful", Protocol.faithful);
    ("no-colors", { Protocol.faithful with use_colors = false });
    ("no-r5", { Protocol.faithful with use_r5 = false });
    ("no-rotate", { Protocol.faithful with rotate_queue = false });
    ("literal-r5", { Protocol.faithful with literal_r5 = true });
  |]

let graph_of ~topo ~size ~seed =
  let rng = Prng.Splitmix.of_int seed in
  match topo with
  | 0 -> ("ring", Topology.Builders.ring (max 3 size))
  | 1 -> ("path", Topology.Builders.path size)
  | 2 -> ("star", Topology.Builders.star (max 2 size))
  | 3 -> ("grid", Topology.Builders.grid ~rows:2 ~cols:(max 1 (size / 2)))
  | 4 -> ("torus", Topology.Builders.torus ~rows:3 ~cols:(max 3 (size / 3)))
  | 5 -> ("tree", Topology.Builders.random_tree rng ~n:size)
  | _ -> ("random", Topology.Builders.random_connected rng ~n:size ~extra_edges:size)

let spec_of ~fault rng =
  match fault with
  | 0 -> Harness.Fault.pristine
  | 1 -> Harness.Fault.adversarial
  | _ -> Harness.Fault.random_spec rng

(* One hand corruption [(kind, p, d, x)] of the configuration, reaching
   values the fault injector never produces. [p] and [d] are reduced to
   vertices; [x] is a raw value, deliberately allowed out of range. *)
let corrupt g states (kind, p, d, x) =
  let n = Topology.Graph.n g in
  let p = p mod n and d = d mod n in
  let st = states.(p) in
  let sl = State.slot st d in
  let msg ~last =
    Message.fresh_invalid ~at:p ~last ~color:(x mod 3)
      (if x land 1 = 0 then "a" else "b")
  in
  let set_entry f =
    let routing = Array.copy st.State.routing in
    routing.(d) <- f routing.(d);
    State.with_routing st routing
  in
  states.(p) <-
    (match kind with
    | 0 -> set_entry (fun e -> { e with Routing.Selfstab.via = x - 2 })
    | 1 -> set_entry (fun e -> { e with Routing.Selfstab.dist = x - 1 })
    | 2 -> State.with_slot st d { sl with State.buf_r = Some (msg ~last:(x - 2)) }
    | 3 -> State.with_slot st d { sl with State.buf_e = Some (msg ~last:(x - 2)) }
    | 4 -> State.with_slot st d { sl with State.queue = [] }
    | 5 -> State.with_slot st d { sl with State.queue = [ x - 2; x - 2 ] }
    | 6 -> State.with_slot st d { sl with State.queue = (x - 2) :: sl.State.queue }
    | 7 -> State.with_rr st ((x * 7) - 20)
    | 8 -> { st with State.request = not st.State.request }
    | 9 -> State.with_slot st d { sl with State.buf_r = None; buf_e = None }
    | 10 -> (
        (* plant the copy (m, p, c) of bufE_p(d) in the reception buffer
           of p's x-th neighbor: the pattern R4 and R5 look for *)
        match (sl.State.buf_e, Topology.Graph.neighbors g p) with
        | Some m, (_ :: _ as nbrs) ->
            let h = List.nth nbrs (x mod List.length nbrs) in
            let sh = states.(h) in
            let slh = State.slot sh d in
            states.(h) <-
              State.with_slot sh d
                { slh with State.buf_r = Some (Message.with_hop m ~last:p) };
            st
        | _ -> st)
    | 11 ->
        (* rr on either side of a bitset word boundary *)
        let w = State.word_bits in
        State.with_rr st
          (List.nth [ 0; n - 1; w - 1; w; w + 1; (2 * w) - 1; 2 * w; (2 * w) + 1 ] (x mod 8))
    | _ -> st)

let raise_requests g t =
  Topology.Graph.iter_vertices
    (fun p ->
      let st = Sim.Engine.state t p in
      if (not st.State.request) && st.State.outbox <> [] then
        Sim.Engine.set_state t p { st with State.request = true })
    g

type scenario = {
  topo : int;
  size : int;
  seed : int;
  fault : int;
  variant : int;
  run_routing : bool;
  smallest : bool;
  edits : (int * int * int * int) list;
  steps : int;
}

(* Shrinking may step below the generators' lower bounds; clamp. *)
let scenario_of ((topo, size, seed), (fault, variant, run_routing, smallest), (edits, steps)) =
  { topo; size = max 2 size; seed; fault; variant; run_routing; smallest; edits; steps }

let arb =
  let open QCheck in
  let edit = quad (int_range 0 11) small_nat small_nat (int_range 0 12) in
  (* sizes 2–9, plus sizes straddling one and two bitset words (63 and
     126 destinations on 64-bit) *)
  let size =
    Gen.frequency
      [ (8, Gen.int_range 2 9); (1, Gen.int_range 62 65); (1, Gen.int_range 126 129) ]
  in
  let size = make ~print:string_of_int ~shrink:Shrink.int size in
  let print s =
    Printf.sprintf
      "topo=%d size=%d seed=%d fault=%d variant=%s run_routing=%b tie=%s steps=%d \
       edits=[%s]"
      s.topo s.size s.seed s.fault
      (fst variants.(s.variant))
      s.run_routing
      (if s.smallest then "smallest" else "largest")
      s.steps
      (String.concat "; "
         (List.map (fun (k, p, d, x) -> Printf.sprintf "(%d,%d,%d,%d)" k p d x) s.edits))
  in
  set_print
    (fun t -> print (scenario_of t))
    (triple
       (triple (int_range 0 6) size (int_range 0 10_000))
       (quad (int_range 0 2) (int_range 0 4) bool bool)
       (pair (list_of_size Gen.(0 -- 8) edit) (int_range 0 40)))

(* Every processor's action list agrees with the reference. *)
let agrees g ~variant ~run_routing ~tie net =
  List.for_all
    (fun p ->
      Protocol.enabled_rules g ~variant ~run_routing ~tie net ~p
      = Enabled_oracle.enabled_rules g ~variant ~run_routing ~tie net ~p)
    (Topology.Graph.vertices g)

let check s =
  let _, g = graph_of ~topo:s.topo ~size:s.size ~seed:s.seed in
  let n = Topology.Graph.n g in
  let variant = snd variants.(s.variant) in
  let tie = Routing.Selfstab.(if s.smallest then Smallest_id else Largest_id) in
  let run_routing = s.run_routing in
  Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int ((s.seed * 31) + 7) in
  let spec = spec_of ~fault:s.fault rng in
  let workload = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let states =
    Array.init n (fun p -> Harness.Fault.initial_states ~rng spec g ~workload p)
  in
  List.iter (corrupt g states) s.edits;
  let proto = Protocol.make ~variant ~run_routing ~tie g in
  let t = Sim.Engine.make ~graph:g ~protocol:proto (fun p -> states.(p)) in
  let daemon = Sim.Daemon.distributed_random (Prng.Splitmix.of_int s.seed) in
  let rec loop i =
    agrees g ~variant ~run_routing ~tie (Sim.Engine.net t)
    && (i >= s.steps
       ||
       (raise_requests g t;
        match Sim.Engine.step t daemon with
        | None -> true
        | Some _ -> loop (i + 1)))
  in
  loop 0

let prop_matches_reference =
  QCheck.Test.make ~name:"enabled_rules = every-destination reference" ~count:400
    arb (fun t -> check (scenario_of t))

(* --- the occupancy bitset ----------------------------------------------- *)

(* The bitset, read back word by word, equals a recount of the slots:
   bit d is set iff slot d holds a message, and no bit past n is set. *)
let bitset_exact st =
  let n = State.dests st and w = State.word_bits in
  let ok = ref true in
  for word = 0 to (n - 1) / w do
    let bits = State.busy_word st word in
    for i = 0 to w - 1 do
      let d = (word * w) + i in
      let occupied =
        d < n
        &&
        let sl = State.slot st d in
        sl.State.buf_r <> None || sl.State.buf_e <> None
      in
      if (bits land (1 lsl i) <> 0) <> occupied then ok := false
    done
  done;
  !ok

(* Every state the fault injector, the hand corruptions, Chaos.Inject,
   the engine and Ssmfp_mp's published views produce. *)
let check_bitset s =
  let _, g = graph_of ~topo:s.topo ~size:s.size ~seed:s.seed in
  let n = Topology.Graph.n g in
  let variant = snd variants.(s.variant) in
  Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int ((s.seed * 31) + 7) in
  let spec = spec_of ~fault:s.fault rng in
  let workload = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let states =
    Array.init n (fun p -> Harness.Fault.initial_states ~rng spec g ~workload p)
  in
  let exact st =
    bitset_exact st
    && bitset_exact (Mp.Ssmfp_mp.state_of_public (Mp.Ssmfp_mp.public_of st))
  in
  let all_exact states = Array.for_all exact states in
  let from_fault = all_exact states in
  List.iter (corrupt g states) s.edits;
  let from_edits = all_exact states in
  Array.iteri
    (fun p st ->
      let domains =
        List.filter (fun _ -> Prng.Splitmix.bool rng) Chaos.Schedule.all_domains
      in
      states.(p) <- Chaos.Inject.corrupt_state rng g ~p ~domains st)
    states;
  let from_chaos = all_exact states in
  let proto = Protocol.make ~variant ~run_routing:s.run_routing g in
  let t = Sim.Engine.make ~graph:g ~protocol:proto (fun p -> states.(p)) in
  let daemon = Sim.Daemon.distributed_random (Prng.Splitmix.of_int s.seed) in
  let rec loop i =
    all_exact (Sim.Engine.net t).Sim.Engine.states
    && (i >= s.steps
       ||
       (raise_requests g t;
        match Sim.Engine.step t daemon with
        | None -> true
        | Some _ -> loop (i + 1)))
  in
  from_fault && from_edits && from_chaos && loop 0

let prop_bitset_recount =
  QCheck.Test.make ~name:"occupancy bitset = recount of the slots" ~count:200 arb
    (fun t -> check_bitset (scenario_of t))

(* Targeted cases the random search might reach only rarely: each
   corrupted field on its own, on a small ring under every variant. *)
let test_each_corruption () =
  for kind = 0 to 11 do
    for variant = 0 to Array.length variants - 1 do
      List.iter
        (fun x ->
          let s =
            {
              topo = 0;
              size = 5;
              seed = kind + (11 * variant);
              fault = 2;
              variant;
              run_routing = x mod 2 = 0;
              smallest = x mod 3 = 0;
              edits = [ (kind, 1, 3, x); (kind, 2, 3, x + 1); (3, 0, 3, x) ];
              steps = 10;
            }
          in
          Alcotest.(check bool)
            (Printf.sprintf "kind %d, %s, x=%d" kind (fst variants.(variant)) x)
            true (check s))
        [ 0; 1; 2; 5; 9; 12 ]
    done
  done

let () =
  Alcotest.run "enabled oracle"
    [
      ("corruptions", [ Alcotest.test_case "each field" `Quick test_each_corruption ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_bitset_recount;
        ] );
    ]
