(* Differential test of the message-passing port's barrier step:
   [Mp.Ssmfp_mp.barrier_step], which writes a process's core and its Δ
   shared mirrors into a persistent view, against barrier_oracle.ml,
   which rebuilds the whole n-state configuration from copied snapshots
   with placeholder queues. Both must pick the same action and produce
   the same next core and events, at every process of every
   configuration: random topologies and fault specs, hand corruptions
   whose routing [via] entries and message [last] fields name
   non-neighbors (or no vertex at all), and the configurations a short
   run reaches from there. One [barrier] value serves every call, so a
   step that failed to restore its view would show up at the next
   process. A second property checks that sharing is safe: a
   published mirror keeps its fingerprint while the sender moves on. *)

open Ssmfp

let graph_of ~topo ~size ~seed =
  let rng = Prng.Splitmix.of_int seed in
  match topo with
  | 0 -> Topology.Builders.ring (max 3 size)
  | 1 -> Topology.Builders.path size
  | 2 -> Topology.Builders.star (max 2 size)
  | 3 -> Topology.Builders.grid ~rows:2 ~cols:(max 1 (size / 2))
  | 4 -> Topology.Builders.torus ~rows:3 ~cols:(max 3 (size / 3))
  | 5 -> Topology.Builders.random_tree rng ~n:size
  | _ -> Topology.Builders.random_connected rng ~n:size ~extra_edges:size

let spec_of ~fault rng =
  match fault with
  | 0 -> Harness.Fault.pristine
  | 1 -> Harness.Fault.adversarial
  | _ -> Harness.Fault.random_spec rng

(* A process [p] cannot read: a non-neighbor when there is one, else
   (and for every fourth [x]) an id outside the vertex range. *)
let stranger g p x =
  let n = Topology.Graph.n g in
  let others =
    List.filter
      (fun q -> q <> p && not (Topology.Graph.is_edge g p q))
      (Topology.Graph.vertices g)
  in
  if others = [] || x mod 4 = 3 then if x land 1 = 0 then n + x else -1 - x
  else List.nth others (x mod List.length others)

(* One hand corruption [(kind, p, d, x)]; [p] and [d] are reduced to
   vertices. *)
let corrupt g states (kind, p, d, x) =
  let n = Topology.Graph.n g in
  let p = p mod n and d = d mod n in
  let st = states.(p) in
  let sl = State.slot st d in
  let s = stranger g p x in
  let msg ~last =
    Message.fresh_invalid ~at:p ~last ~color:(x mod 3)
      (if x land 1 = 0 then "a" else "b")
  in
  let relast = Option.map (fun (m : Message.t) -> { m with Message.last = s }) in
  states.(p) <-
    (match kind with
    | 0 ->
        let routing = Array.copy st.State.routing in
        routing.(d) <- { (routing.(d)) with Routing.Selfstab.via = s };
        State.with_routing st routing
    | 1 -> State.with_slot st d { sl with State.buf_r = Some (msg ~last:s) }
    | 2 -> State.with_slot st d { sl with State.buf_e = Some (msg ~last:s) }
    | 3 ->
        State.with_slot st d
          { sl with State.buf_r = relast sl.State.buf_r; buf_e = relast sl.State.buf_e }
    | 4 -> (
        (* the copy (m, p, c) of bufE_p(d) at a neighbor: R4's and R5's
           pattern, so erasures get exercised next to the strangers *)
        match (sl.State.buf_e, Topology.Graph.neighbors g p) with
        | Some m, (_ :: _ as nbrs) ->
            let h = List.nth nbrs (x mod List.length nbrs) in
            let slh = State.slot states.(h) d in
            states.(h) <-
              State.with_slot states.(h) d
                { slh with State.buf_r = Some (Message.with_hop m ~last:p) };
            st
        | _ -> st)
    | 5 -> State.with_rr st ((x * 7) - 20)
    | _ -> { st with State.request = not st.State.request })

(* What [Ssmfp_mp]'s barrier does before its step. *)
let raise_request (st : State.t) =
  if (not st.State.request) && st.State.outbox <> [] then
    { st with State.request = true }
  else st

type scenario = {
  topo : int;
  size : int;
  seed : int;
  fault : int;
  edits : (int * int * int * int) list;
  steps : int;
}

let scenario_of ((topo, size, seed), (fault, edits, steps)) =
  { topo; size = max 2 size; seed; fault; edits; steps }

let arb =
  let open QCheck in
  let edit = quad (int_range 0 6) small_nat small_nat (int_range 0 15) in
  (* sizes 2–9, plus sizes straddling one bitset word *)
  let size =
    Gen.frequency [ (8, Gen.int_range 2 9); (1, Gen.int_range 62 66) ]
  in
  let size = make ~print:string_of_int ~shrink:Shrink.int size in
  let print s =
    Printf.sprintf "topo=%d size=%d seed=%d fault=%d steps=%d edits=[%s]" s.topo
      s.size s.seed s.fault s.steps
      (String.concat "; "
         (List.map (fun (k, p, d, x) -> Printf.sprintf "(%d,%d,%d,%d)" k p d x) s.edits))
  in
  set_print
    (fun t -> print (scenario_of t))
    (pair
       (triple (int_range 0 6) size (int_range 0 10_000))
       (triple (int_range 0 2) (list_of_size Gen.(0 -- 10) edit) (int_range 0 30)))

let engine_of s =
  let g = graph_of ~topo:s.topo ~size:s.size ~seed:s.seed in
  let n = Topology.Graph.n g in
  Message.reset_ghost_counter ();
  let rng = Prng.Splitmix.of_int ((s.seed * 31) + 7) in
  let spec = spec_of ~fault:s.fault rng in
  let workload = Harness.Workload.uniform_random rng ~n ~per_processor:2 in
  let states =
    Array.init n (fun p -> Harness.Fault.initial_states ~rng spec g ~workload p)
  in
  List.iter (corrupt g states) s.edits;
  let t = Sim.Engine.make ~graph:g ~protocol:(Protocol.make g) (fun p -> states.(p)) in
  (g, t)

(* Run the engine [s.steps] steps under a random distributed daemon,
   raising requests as the barrier would, calling [check] on every
   configuration along the way; false as soon as a check fails. *)
let along_run s g t check =
  let daemon = Sim.Daemon.distributed_random (Prng.Splitmix.of_int s.seed) in
  let rec loop i =
    check ()
    && (i >= s.steps
       ||
       (Topology.Graph.iter_vertices
          (fun p -> Sim.Engine.set_state t p (raise_request (Sim.Engine.state t p)))
          g;
        match Sim.Engine.step t daemon with None -> true | Some _ -> loop (i + 1)))
  in
  loop 0

(* R1 stamps a fresh ghost id on the message it generates, so two
   evaluations of one step differ in that id alone. Ids above [seen],
   drawn after the configuration was built, are renamed to -1. *)
let forget_fresh ~seen step =
  let fresh (m : Message.t) =
    if m.Message.ghost.Message.gid > seen then
      { m with Message.ghost = { m.Message.ghost with Message.gid = -1 } }
    else m
  in
  let event : Protocol.event -> Protocol.event = function
    | Generated (m, d) -> Generated (fresh m, d)
    | Delivered m -> Delivered (fresh m)
    | Internal_forward (m, d) -> Internal_forward (fresh m, d)
    | Copied (m, s, d) -> Copied (fresh m, s, d)
    | Erased_after_forward (m, d) -> Erased_after_forward (fresh m, d)
    | Erased_duplicate (m, d) -> Erased_duplicate (fresh m, d)
    | Routing_update d -> Routing_update d
  in
  Option.map
    (fun (action, core, events) ->
      ( action,
        State.map_slots
          (fun sl ->
            {
              sl with
              State.buf_r = Option.map fresh sl.State.buf_r;
              buf_e = Option.map fresh sl.State.buf_e;
            })
          core,
        List.map event events ))
    step

(* The next ghost id, drawn and discarded. *)
let ghost_mark () = (Message.fresh_valid ~src:0 "").Message.ghost.Message.gid

let check s =
  let g, t = engine_of s in
  let b = Mp.Ssmfp_mp.barrier g in
  let oracle = Barrier_oracle.make g in
  along_run s g t (fun () ->
      List.for_all
        (fun p ->
          let core = raise_request (Sim.Engine.state t p) in
          let nbrs = Topology.Graph.neighbors g p in
          let mirrors =
            Array.of_list
              (List.map
                 (fun q ->
                   Mp.Ssmfp_mp.(state_of_public (public_of (Sim.Engine.state t q))))
                 nbrs)
          in
          let published =
            List.map (fun q -> (q, Barrier_oracle.public_of (Sim.Engine.state t q))) nbrs
          in
          let seen = ghost_mark () in
          forget_fresh ~seen (Mp.Ssmfp_mp.barrier_step b ~self:p core mirrors)
          = forget_fresh ~seen (Barrier_oracle.step oracle ~self:p core published))
        (Topology.Graph.vertices g))

let prop_matches_reference =
  QCheck.Test.make ~name:"barrier_step = n-state reference" ~count:300 arb
    (fun t -> check (scenario_of t))

(* --- sharing is safe ---------------------------------------------------- *)

let fingerprint st =
  let c = Snapshot.Codec.create () in
  Snapshot.Codec.add_core c st;
  Snapshot.Codec.hash c

(* Every process publishes at every configuration of a run; each mirror
   shares the sender's routing array and slots, and still has its
   publish-time fingerprint when the run ends, however far the sender
   moved on meanwhile. *)
let check_sharing s =
  let g, t = engine_of s in
  let published = ref [] in
  let shared = ref true in
  let publish_all () =
    Topology.Graph.iter_vertices
      (fun p ->
        let st = Sim.Engine.state t p in
        let m = Mp.Ssmfp_mp.(state_of_public (public_of st)) in
        shared :=
          !shared
          && m.State.routing == st.State.routing
          && m.State.slots == st.State.slots;
        published := (m, fingerprint m) :: !published)
      g;
    true
  in
  along_run s g t publish_all
  && !shared
  && List.for_all (fun (m, fp) -> fingerprint m = fp) !published

let prop_sharing_safe =
  QCheck.Test.make ~name:"a mirror keeps its fingerprint as the sender moves"
    ~count:200 arb (fun t -> check_sharing (scenario_of t))

let test_mirror_count () =
  let g = Topology.Builders.ring 4 in
  let b = Mp.Ssmfp_mp.barrier g in
  Alcotest.check_raises "one mirror per neighbor"
    (Invalid_argument "Ssmfp_mp.barrier_step: one mirror per neighbor")
    (fun () -> ignore (Mp.Ssmfp_mp.barrier_step b ~self:0 (State.clean g 0) [||]))

let () =
  Alcotest.run "barrier oracle"
    [
      ("arguments", [ Alcotest.test_case "mirror count" `Quick test_mirror_count ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_sharing_safe;
        ] );
    ]
