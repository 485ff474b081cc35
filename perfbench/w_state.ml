(* The state-model workloads: SSMFP + A under the distributed-random
   daemon, driven through [Harness.Runner.run] to quiescence. The higher
   layer is a closed loop: every processor holds at most one outstanding
   request (the paper's blocking request_p) and its whole outbox is
   queued at t = 0. *)

type size = {
  topology : string;
  fault : Harness.Fault.spec;
  per_processor : int;
  max_steps : int;  (** budget, with headroom over what the run needs *)
}

let graph_of topology = (Campaign.Spec.topology_exn topology).Campaign.Spec.graph

(* Uniform traffic. Its stream is kept apart from the program's own seed,
   which drives fault injection and scheduling. *)
let uniform_traffic g ~per_processor ~seed =
  Harness.Workload.uniform_random
    (Prng.Splitmix.of_int ((seed * 7919) + 17))
    ~n:(Topology.Graph.n g) ~per_processor

let graph sz = graph_of sz.topology
let workload sz g ~seed = uniform_traffic g ~per_processor:sz.per_processor ~seed

type rep = {
  setup_ns : int;
  run_ns : int;
  steps : int;
  moves : int;
  rounds : int;
  route_moves : int;
  submitted : int;
  exactly_once : int;
  problems : string list;
  minor_words : float;
  major_collections : int;
}

let exactly_once oracle =
  List.length
    (List.filter
       (fun (_, _, ds) -> List.length ds = 1)
       (Harness.Oracle.ghost_views oracle))

(* Every check the benchmark makes on a finished run: quiescence inside
   the budget, the SP verdict, Proposition 4's 2n bound per destination
   and exactly-once delivery of every submitted message. *)
let problems ~n ~quiescent ~submitted ~once (verdict : Harness.Oracle.verdict)
    oracle =
  (if quiescent then [] else [ "budget exhausted before quiescence" ])
  @ verdict.Harness.Oracle.violations
  @ List.filter_map
      (fun (d, c) ->
        if c > 2 * n then
          Some (Printf.sprintf "Prop. 4: %d invalid deliveries at %d > 2n" c d)
        else None)
      (Harness.Oracle.invalid_deliveries oracle)
  @
  if once = submitted then []
  else
    [
      Printf.sprintf "%d of %d messages not delivered exactly once" (submitted - once)
        submitted;
    ]

let route_moves (stats : Sim.Engine.stats) =
  Option.value ~default:0 (List.assoc_opt "RA" stats.Sim.Engine.moves_by_rule)

(* Set-up alone: the same call with a one-step budget, timed up to the
   first step. *)
let setup_only sz ~seed =
  let t0 = Span.now () in
  let g = graph sz in
  let wl = workload sz g ~seed in
  let first = ref 0 in
  ignore
    (Harness.Runner.run
       (Harness.Runner.config ~spec:sz.fault ~daemon:Harness.Runner.Distributed_random
          ~seed ~max_steps:1
          ~inject:(fun _ -> if !first = 0 then first := Span.now ())
          g wl));
  !first - t0

(* One untraced run through the public entry point. The first call of
   the injector marks the first step (setup ends there); it writes
   nothing. *)
let untraced sz ~seed =
  let t0 = Span.now () in
  let g = graph sz in
  let wl = workload sz g ~seed in
  let first = ref 0 in
  let cfg =
    Harness.Runner.config ~spec:sz.fault ~daemon:Harness.Runner.Distributed_random
      ~seed ~max_steps:sz.max_steps
      ~inject:(fun _ -> if !first = 0 then first := Span.now ())
      g wl
  in
  let gc0 = Gc.quick_stat () in
  let r = Harness.Runner.run cfg in
  let t1 = Span.now () in
  let gc1 = Gc.quick_stat () in
  let n = Topology.Graph.n g in
  let once = exactly_once r.oracle in
  let first = if !first = 0 then t1 else !first in
  {
    setup_ns = first - t0;
    run_ns = t1 - first;
    steps = r.stats.steps;
    moves = r.stats.moves;
    rounds = r.stats.rounds;
    route_moves = route_moves r.stats;
    submitted = r.submitted;
    exactly_once = once;
    problems =
      problems ~n ~quiescent:(r.outcome = `Quiescent) ~submitted:r.submitted
        ~once r.verdict r.oracle;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

(* The traced replay: [Harness.Runner.run]'s body step for step (same
   PRNG splits, initial states, daemon, request raising and metrics
   probe), with spans around every call into a layer. The protocol
   record's [enabled]/[apply] fields and the daemon are wrapped, so the
   engine itself runs unmodified. *)
let traced sz ~seed sp =
  let open Span in
  let s_graph = name sp "campaign.spec.topology" in
  let s_workload = name sp "harness.workload.uniform_random" in
  let s_make_proto = name sp "ssmfp.protocol.make" in
  let s_fault = name sp "harness.fault.initial_states" in
  let s_engine_make = name sp "sim.engine.make" in
  let s_scan = name sp "harness.runner.request_scan" in
  let s_step = name ~samples:true sp "sim.engine.step" in
  let s_daemon = name sp "sim.daemon.select" in
  let s_enabled = name ~samples:true sp "ssmfp.protocol.enabled" in
  let s_apply = name sp "ssmfp.protocol.apply" in
  let s_probe = name sp "obs.metrics.probe" in
  let s_observe = name sp "harness.oracle.observe" in
  let s_finish = name sp "harness.oracle.check_sp" in
  let t0 = now () in
  let g = wrap sp s_graph (fun () -> graph sz) in
  let wl = wrap sp s_workload (fun () -> workload sz g ~seed) in
  let n = Topology.Graph.n g in
  let master = Prng.Splitmix.of_int seed in
  let fault_rng = Prng.Splitmix.split master in
  let daemon_rng = Prng.Splitmix.split master in
  let proto =
    wrap sp s_make_proto (fun () ->
        Ssmfp.Protocol.make ~variant:Ssmfp.Protocol.faithful ~run_routing:true g)
  in
  let protocol =
    {
      proto with
      Sim.Engine.enabled =
        (fun net p ->
          enter sp s_enabled;
          let r = proto.Sim.Engine.enabled net p in
          leave sp;
          r);
      apply =
        (fun net p a ->
          enter sp s_apply;
          let r = proto.Sim.Engine.apply net p a in
          leave sp;
          r);
    }
  in
  let states =
    wrap sp s_fault (fun () ->
        Array.init n (fun p ->
            Harness.Fault.initial_states ~rng:fault_rng sz.fault g ~workload:wl p))
  in
  let engine =
    wrap sp s_engine_make (fun () ->
        Sim.Engine.make ~mode:Sim.Engine.Incremental ~graph:g ~protocol (fun p ->
            states.(p)))
  in
  let oracle = Harness.Oracle.create () in
  let daemon = Sim.Daemon.distributed_random daemon_rng in
  let daemon ~step cands =
    enter sp s_daemon;
    let r = daemon ~step cands in
    leave sp;
    r
  in
  let metrics = Obs.Sink.metrics (Obs.Sink.create ()) in
  let probe =
    {
      Sim.Engine.on_move =
        (fun ~pid:_ ~rule ->
          enter sp s_probe;
          Obs.Metrics.incr metrics ("moves." ^ rule);
          leave sp);
      on_step =
        (fun ~step:_ ~frontier ~moves ->
          enter sp s_probe;
          Obs.Metrics.observe metrics "engine.frontier_size" (float_of_int frontier);
          Obs.Metrics.observe metrics "engine.moves_per_step" (float_of_int moves);
          leave sp);
      on_round =
        (fun ~round:_ ~moves ->
          enter sp s_probe;
          Obs.Metrics.observe metrics "engine.round_moves" (float_of_int moves);
          leave sp);
    }
  in
  let step_open = ref false in
  let steps = ref 0 and first = ref 0 in
  let before_step e =
    enter sp s_scan;
    Topology.Graph.iter_vertices
      (fun p ->
        let st = Sim.Engine.state e p in
        if (not st.Ssmfp.State.request) && st.Ssmfp.State.outbox <> [] then begin
          Sim.Engine.set_state e p { st with Ssmfp.State.request = true };
          Harness.Oracle.observe_request_raised oracle
            ~round:(Sim.Engine.stats e).Sim.Engine.rounds ~pid:p
        end)
      g;
    let ts = now () in
    leave_at sp ts;
    (* the untraced run's setup ends at the same point: its injector
       runs right after the first request scan *)
    if !first = 0 then first := ts;
    set_index sp !steps;
    incr steps;
    enter_at sp s_step ts;
    step_open := true
  in
  let on_events ~step:_ events =
    let ts = now () in
    leave_at sp ts;
    step_open := false;
    enter_at sp s_observe ts;
    let round = (Sim.Engine.stats engine).Sim.Engine.rounds in
    List.iter (fun (pid, ev) -> Harness.Oracle.observe oracle ~round ~pid ev) events;
    leave sp
  in
  let status =
    Sim.Engine.run ~max_steps:sz.max_steps ~before_step ~on_events ~probe engine
      daemon
  in
  if !step_open then leave sp;
  let verdict =
    wrap sp s_finish (fun () ->
        Harness.Oracle.check_sp oracle ~expected_valid:(Harness.Workload.total wl) ~n
          ~at_quiescence:(status = `Terminal))
  in
  let t1 = now () in
  let stats = Sim.Engine.stats engine in
  let submitted = Harness.Workload.total wl in
  let once = exactly_once oracle in
  ( {
      setup_ns = !first - t0;
      run_ns = t1 - !first;
      steps = stats.steps;
      moves = stats.moves;
      rounds = stats.rounds;
      route_moves = route_moves stats;
      submitted;
      exactly_once = once;
      problems =
        problems ~n ~quiescent:(status = `Terminal) ~submitted ~once verdict oracle;
      minor_words = 0.;
      major_collections = 0;
    },
    t1 - t0 )
