(* The benchmark: one command per (workload, seed) that runs the workload,
   checks its outputs and prints every metric by name and unit.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats untraced runs for S seconds (at least [min_reps]),
   run i on the derived seed N*1000+i, and prints the end-to-end metrics
   as medians over the runs. --trace 1 alternates an untraced and a traced
   run on seed N*1000 for S seconds (at least one pair), checks the traced
   replay reproduced the untraced counts exactly, writes the traced spans
   to perfbench/out as a Chrome trace file, and prints the per-layer
   metrics. The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   The exit code is 1 when any check failed. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("deliveries_per_s", "1/s");
    ("configs_per_s", "1/s");
    ("channel_msgs_per_delivery", "count");
    ("peak_heap_mb", "MB");
    ("success_rate", "ratio");
  ]

let per_layer =
  [
    ("ssmfp.protocol.enabled_calls_per_move", "count");
    ("ssmfp.protocol.enabled_us_p50", "us");
    ("ssmfp.protocol.enabled_us_p99", "us");
    ("ssmfp.protocol.enabled_samples", "count");
    ("ssmfp.protocol.enabled_share", "ratio");
    ("ssmfp.protocol.apply_share", "ratio");
    ("sim.engine.self_share", "ratio");
    ("sim.engine.us_per_move", "us");
    ("sim.daemon.share", "ratio");
    ("harness.runner.request_scan_share", "ratio");
    ("harness.oracle.observe_share", "ratio");
    ("obs.metrics.probe_share", "ratio");
    ("harness.fault.setup_s", "s");
    ("sim.engine.make_s", "s");
    ("routing.selfstab.moves", "count");
    ("sim.engine.moves", "count");
    ("sim.engine.steps", "count");
    ("sim.engine.rounds", "count");
    ("gc.minor_words_per_move", "words");
    ("gc.major_collections", "count");
    ("mp.network.step_us_p50", "us");
    ("mp.network.step_us_p99", "us");
    ("mp.network.step_samples", "count");
    ("mp.network.dispatch_share", "ratio");
    ("mp.ssmfp_mp.barrier_us_p50", "us");
    ("mp.ssmfp_mp.barrier_us_p99", "us");
    ("mp.ssmfp_mp.barrier_samples", "count");
    ("mp.ssmfp_mp.barrier_share", "ratio");
    ("mp.ssmfp_mp.receive_share", "ratio");
    ("mp.ssmfp_mp.drain_check_share", "ratio");
    ("mp.window.ack_timer_share", "ratio");
    ("mp.ssmfp_mp.deliveries_per_barrier", "count");
    ("mp.ssmfp_mp.stale_ratio", "ratio");
    ("mp.window.retransmits_per_delivery", "count");
    ("mp.network.lost", "count");
    ("mp.network.duplicated", "count");
    ("mp.network.reordered", "count");
    ("mp.ssmfp_mp.max_pulse", "count");
    ("gc.minor_words_per_delivery", "words");
    ("mc.par.explored", "count");
    ("mc.par.transitions", "count");
    ("mc.par.busy_share", "ratio");
    ("mc.par.idle_share", "ratio");
    ("mc.par.steal_success_ratio", "ratio");
    ("mc.par.roots_s", "s");
    ("mc.par.reduce_s", "s");
    ("mc.store.key_bytes_per_entry", "bytes");
    ("mc.store.table_mb", "MB");
    ("mc.store.load", "ratio");
    ("gc.minor_words_per_config", "words");
    ("trace.overhead", "ratio");
    ("trace.attributed_share", "ratio");
    ("trace.dropped_spans", "count");
  ]

(* ---------------- workloads ---------------- *)

let state_recover =
  {
    W_state.topology = "ring:32";
    fault = Harness.Fault.adversarial;
    per_processor = 2;
    max_steps = 2_000_000;
  }

let state_traffic =
  {
    W_state.topology = "torus:12x12";
    fault = Harness.Fault.pristine;
    per_processor = 2;
    max_steps = 2_000_000;
  }

let mp_lossy =
  {
    W_mp.topology = "ring:24";
    per_processor = 2;
    garbage = 40;
    window = 8;
    budget = 6_000_000;
  }

let mc_safety = { W_mc.samples = 25_000; workers = 2; max_configs = 6_000_000 }

(* ---------------- measurement ---------------- *)

let min_reps = 3
let sub_seed seed i = (seed * 1000) + i
let s_of_ns ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Run [rep i] for i = 0, 1, ... until [seconds] have passed and at
   least [min] runs are done; each run starts from a collected heap.
   Also returns the heap peak right after the first run, before any
   other run could raise it. *)
let repeat ~seconds ~min rep =
  let start = Span.now () in
  let peak = ref 0. in
  let rec go i acc =
    if i >= min && s_of_ns (Span.now () - start) >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      let r = rep i in
      if i = 0 then peak := peak_heap_mb ();
      go (i + 1) (r :: acc)
    end
  in
  let runs = go 0 [] in
  (runs, !peak)

(* Set-up alone, repeated back to back for at least a second (and at
   least five times): a single set-up can take about a millisecond, too
   short to time once. *)
let setup_s setup_only ~seed =
  let start = Span.now () in
  let rec go i acc =
    if i >= 5 && s_of_ns (Span.now () - start) >= 1. then median acc
    else go (i + 1) (s_of_ns (setup_only ~seed:(sub_seed seed (500 + (i mod 500)))) :: acc)
  in
  go 0 []

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;
}

(* What the end-to-end metrics read from one untraced run. [delivered],
   [configs] and [msgs] are the workload's own units (see METRICS.md). *)
type view = {
  setup_ns : int;
  run_ns : int;
  attempted : int;
  failed : int;
  delivered : float;
  configs : float;
  msgs : float;
  problems : string list;
  counts : (string * int) list;  (** exact counts a traced run must reproduce *)
}

let show_counts counts =
  String.concat ", " (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) counts)

let end_to_end_run ~seconds ~seed ~setup_only untraced =
  let reps, peak = repeat ~seconds ~min:min_reps (fun i -> untraced ~seed:(sub_seed seed i)) in
  List.iteri
    (fun i v ->
      Printf.printf "run %d: setup %.4f s, run %.4f s, %s%s\n" i (s_of_ns v.setup_ns)
        (s_of_ns v.run_ns) (show_counts v.counts)
        (if v.problems = [] then ", checks ok" else ", CHECK FAILED"))
    reps;
  let med f = median (List.map f reps) in
  let run_s v = s_of_ns v.run_ns in
  let attempted = List.fold_left (fun a v -> a + v.attempted) 0 reps in
  let failed = List.fold_left (fun a v -> a + v.failed) 0 reps in
  ( {
      attempted;
      failed;
      problems = List.concat_map (fun v -> v.problems) reps;
      metrics =
        [
          ("setup_s", setup_s setup_only ~seed);
          ("run_s", med run_s);
          ("deliveries_per_s", med (fun v -> v.delivered /. run_s v));
          ("configs_per_s", med (fun v -> v.configs /. run_s v));
          ("channel_msgs_per_delivery", med (fun v -> ratio v.msgs v.delivered));
          ("peak_heap_mb", peak);
          ("success_rate", float_of_int (attempted - failed) /. float_of_int attempted);
        ];
    },
    None )

(* A traced invocation: untraced/traced pairs on one seed for [seconds]
   (at least one pair). Every traced run must reproduce the untraced
   run's counts exactly. [per_layer] reads the recorder, the summed
   traced wall-clock, the untraced runs and the first traced run's
   extra data. *)
let traced_run ~seconds ~untraced ~traced ~view ?(dropped = fun _ -> 0) per_layer =
  let sp = Span.create () in
  let runs, _ = repeat ~seconds ~min:1 (fun _ -> (untraced (), traced sp)) in
  let plain = List.map fst runs in
  let traced = List.map snd runs in
  let u = view (List.hd plain) in
  let tv = List.map (fun (r, _, _) -> view r) traced in
  let wall = float_of_int (List.fold_left (fun a (_, _, w) -> a + w) 0 traced) in
  let diverged =
    List.filter_map
      (fun t ->
        if t.counts = u.counts then None
        else
          Some
            (Printf.sprintf "traced replay diverged: %s; untraced: %s" (show_counts t.counts)
               (show_counts u.counts)))
      tv
  in
  let problems =
    diverged @ List.concat_map (fun r -> (view r).problems) plain
    @ List.concat_map (fun t -> t.problems) tv
  in
  let run_ns vs = List.map (fun v -> float_of_int v.run_ns) vs in
  let _, extra, _ = List.hd traced in
  let dropped = List.fold_left (fun a (_, x, _) -> a + dropped x) (Span.dropped sp) traced in
  ( {
      attempted = (List.hd tv).attempted;
      failed = (List.hd tv).failed;
      problems;
      metrics =
        per_layer sp ~wall ~ntraced:(float_of_int (List.length traced)) plain extra
        @ [
            ( "trace.overhead",
              ratio (median (run_ns tv)) (median (run_ns (List.map view plain))) );
            ("trace.attributed_share", ratio (float_of_int (Span.top_level_ns sp)) wall);
            ("trace.dropped_spans", float_of_int dropped);
          ];
    },
    Some sp )

let share sp wall name = ratio (float_of_int (Span.self_ns sp name)) wall

(* p50 and p99 in microseconds, with their sample count. *)
let us_p50_p99 sp name =
  match Span.percentiles sp name [ 0.50; 0.99 ] with
  | [ p50; p99 ], n -> (p50 /. 1000., p99 /. 1000., n)
  | _ -> assert false

let state_view (r : W_state.rep) =
  {
    setup_ns = r.setup_ns;
    run_ns = r.run_ns;
    attempted = r.submitted;
    failed = r.submitted - r.exactly_once;
    delivered = float_of_int r.exactly_once;
    configs = float_of_int r.steps;
    msgs = float_of_int r.moves;
    problems = r.problems;
    counts =
      [
        ("steps", r.steps);
        ("moves", r.moves);
        ("rounds", r.rounds);
        ("delivered", r.exactly_once);
      ];
  }

let state_layers sp ~wall ~ntraced (plain : W_state.rep list) () =
  let u = List.hd plain in
  let moves = float_of_int u.moves in
  let p50, p99, n = us_p50_p99 sp "ssmfp.protocol.enabled" in
  let share = share sp wall in
  let per_run_s name = s_of_ns (Span.total_ns sp name) /. ntraced in
  [
    ( "ssmfp.protocol.enabled_calls_per_move",
      float_of_int (Span.count sp "ssmfp.protocol.enabled") /. ntraced /. moves );
    ("ssmfp.protocol.enabled_us_p50", p50);
    ("ssmfp.protocol.enabled_us_p99", p99);
    ("ssmfp.protocol.enabled_samples", float_of_int n);
    ("ssmfp.protocol.enabled_share", share "ssmfp.protocol.enabled");
    ("ssmfp.protocol.apply_share", share "ssmfp.protocol.apply");
    ("sim.engine.self_share", share "sim.engine.step");
    ( "sim.engine.us_per_move",
      median (List.map (fun (r : W_state.rep) -> float_of_int r.run_ns) plain)
      /. 1000. /. moves );
    ("sim.daemon.share", share "sim.daemon.select");
    ("harness.runner.request_scan_share", share "harness.runner.request_scan");
    ("harness.oracle.observe_share", share "harness.oracle.observe");
    ("obs.metrics.probe_share", share "obs.metrics.probe");
    ("harness.fault.setup_s", per_run_s "harness.fault.initial_states");
    ("sim.engine.make_s", per_run_s "sim.engine.make");
    ("routing.selfstab.moves", float_of_int u.route_moves);
    ("sim.engine.moves", moves);
    ("sim.engine.steps", float_of_int u.steps);
    ("sim.engine.rounds", float_of_int u.rounds);
    ("gc.minor_words_per_move", u.minor_words /. moves);
    ("gc.major_collections", float_of_int u.major_collections);
  ]

let state_run sz ~seed ~seconds ~trace =
  if not trace then
    end_to_end_run ~seconds ~seed ~setup_only:(W_state.setup_only sz) (fun ~seed ->
        state_view (W_state.untraced sz ~seed))
  else
    let seed = sub_seed seed 0 in
    traced_run ~seconds ~view:state_view
      ~untraced:(fun () -> W_state.untraced sz ~seed)
      ~traced:(fun sp ->
        let r, wall = W_state.traced sz ~seed sp in
        (r, (), wall))
      state_layers

let mp_view (r : W_mp.rep) =
  {
    setup_ns = r.setup_ns;
    run_ns = r.run_ns;
    attempted = r.submitted;
    failed = r.submitted - r.exactly_once;
    delivered = float_of_int r.exactly_once;
    configs = float_of_int r.channel_deliveries;
    msgs = float_of_int r.channel_deliveries;
    problems = r.problems;
    counts =
      [
        ("channel deliveries", r.channel_deliveries);
        ("max pulse", r.max_pulse);
        ("delivered", r.exactly_once);
      ];
  }

let mp_layers sp ~wall ~ntraced:_ (plain : W_mp.rep list) (tally : W_mp.tally) =
  let u = List.hd plain in
  let share = share sp wall in
  let step50, step99, n_step = us_p50_p99 sp "mp.network.step" in
  let bar50, bar99, n_bar = us_p50_p99 sp "mp.ssmfp_mp.barrier" in
  [
    ("mp.network.step_us_p50", step50);
    ("mp.network.step_us_p99", step99);
    ("mp.network.step_samples", float_of_int n_step);
    ("mp.network.dispatch_share", share "mp.network.dispatch");
    ("mp.ssmfp_mp.barrier_us_p50", bar50);
    ("mp.ssmfp_mp.barrier_us_p99", bar99);
    ("mp.ssmfp_mp.barrier_samples", float_of_int n_bar);
    ("mp.ssmfp_mp.barrier_share", share "mp.ssmfp_mp.barrier");
    ("mp.ssmfp_mp.receive_share", share "mp.ssmfp_mp.receive");
    ("mp.ssmfp_mp.drain_check_share", share "mp.ssmfp_mp.all_drained");
    ("mp.window.ack_timer_share", share "mp.window.ack_timer");
    ( "mp.ssmfp_mp.deliveries_per_barrier",
      ratio (float_of_int tally.taps) (float_of_int tally.barriers) );
    ("mp.ssmfp_mp.stale_ratio", ratio (float_of_int tally.stale) (float_of_int tally.taps));
    ( "mp.window.retransmits_per_delivery",
      ratio (float_of_int u.retransmits) (float_of_int u.exactly_once) );
    ("mp.network.lost", float_of_int u.channel.lost);
    ("mp.network.duplicated", float_of_int u.channel.duplicated);
    ("mp.network.reordered", float_of_int u.channel.reordered);
    ("mp.ssmfp_mp.max_pulse", float_of_int u.max_pulse);
    ("gc.minor_words_per_delivery", u.minor_words /. float_of_int u.channel_deliveries);
  ]

let mp_run sz ~seed ~seconds ~trace =
  if not trace then
    end_to_end_run ~seconds ~seed ~setup_only:(W_mp.setup_only sz) (fun ~seed ->
        mp_view (W_mp.untraced sz ~seed))
  else
    let seed = sub_seed seed 0 in
    traced_run ~seconds ~view:mp_view
      ~untraced:(fun () -> W_mp.untraced sz ~seed)
      ~traced:(fun sp -> W_mp.traced sz ~seed sp)
      mp_layers

let mc_view sz (r : W_mc.rep) =
  let explored, transitions =
    match r.report with Some r -> (r.explored, r.transitions) | None -> (0, 0)
  in
  {
    setup_ns = r.setup_ns;
    run_ns = r.run_ns;
    attempted = 1;
    failed = (if r.problems = [] then 0 else 1);
    delivered = (if r.problems = [] then float_of_int sz.W_mc.samples else 0.);
    configs = float_of_int explored;
    msgs = float_of_int transitions;
    problems = r.problems;
    counts = [ ("explored", explored); ("transitions", transitions) ];
  }

let mc_layers sz _sp ~wall:_ ~ntraced:_ (plain : W_mc.rep list) (p : W_mc.prof_view) =
  let u = List.hd plain in
  let v = mc_view sz u in
  let worker_ns = float_of_int (sz.W_mc.workers * p.check_ns) in
  let entries, key_bytes, table_bytes, load =
    match u.report with
    | Some r -> (r.visited.entries, r.visited.key_bytes, r.visited.table_bytes, r.visited.load)
    | None -> (0, 0, 0, 0.)
  in
  [
    ("mc.par.explored", v.configs);
    ("mc.par.transitions", v.msgs);
    ("mc.par.busy_share", ratio (float_of_int (p.run_ns - p.idle_ns)) worker_ns);
    ("mc.par.idle_share", ratio (float_of_int p.idle_ns) worker_ns);
    ( "mc.par.steal_success_ratio",
      ratio (float_of_int p.steals) (float_of_int (p.steals + p.steal_fail)) );
    ("mc.par.roots_s", s_of_ns p.roots_ns);
    ("mc.par.reduce_s", s_of_ns p.reduce_ns);
    ("mc.store.key_bytes_per_entry", ratio (float_of_int key_bytes) (float_of_int entries));
    ("mc.store.table_mb", float_of_int table_bytes /. 1048576.);
    ("mc.store.load", load);
    ("gc.minor_words_per_config", u.minor_words /. v.configs);
  ]

let mc_run sz ~seed ~seconds ~trace =
  if not trace then
    end_to_end_run ~seconds ~seed ~setup_only:(W_mc.setup_only sz) (fun ~seed ->
        mc_view sz (W_mc.untraced sz ~seed))
  else
    let seed = sub_seed seed 0 in
    traced_run ~seconds ~view:(mc_view sz)
      ~untraced:(fun () -> W_mc.untraced sz ~seed)
      ~traced:(fun sp -> W_mc.traced sz ~seed sp)
      ~dropped:(fun (p : W_mc.prof_view) -> p.prof_dropped)
      (mc_layers sz)

(* ---------------- command line ---------------- *)

let workloads =
  [
    ("state-recover", state_run state_recover);
    ("state-traffic", state_run state_traffic);
    ("mp-lossy", mp_run mp_lossy);
    ("mc-safety", mc_run mc_safety);
  ]

let usage () =
  prerr_endline "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

(* Traced runs write their spans here, relative to the checkout root. *)
let trace_dir = "perfbench/out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (expected %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let r, sp = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let trace_problems =
    match sp with
    | None -> []
    | Some sp -> (
        if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
        let path =
          Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
        in
        match Span.write_validated sp path with
        | Ok () ->
            Printf.printf "trace: %s (%d of %d spans)\n" path
              (Span.spans sp - Span.dropped sp) (Span.spans sp);
            []
        | Error e -> [ "trace file invalid: " ^ e ])
  in
  let problems = r.problems @ trace_problems in
  let names = if !trace then per_layer else end_to_end in
  let value k = Option.value ~default:0. (List.assoc_opt k r.metrics) in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  List.iter
    (fun (k, unit) -> Printf.printf "%-40s %16.6f %s\n" k (value k) unit)
    names;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (problems = []));
        ("attempted", Obs.Json.Int r.attempted);
        ("failed", Obs.Json.Int r.failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (k, unit) ->
                 ( k,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float (value k)); ("unit", Obs.Json.String unit) ] ))
               names) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  exit (if problems = [] then 0 else 1)
