(* The model-checking workload: [Mc.Explore.check_safety] on the
   3-processor chain over uniformly sampled initial configurations, with
   partial-order reduction and two work-stealing workers. *)

type size = { samples : int; workers : int; max_configs : int }

let scenario = Mc.Explore.three_chain

let initials sz ~seed =
  Mc.Explore.sample_initials
    (Prng.Splitmix.of_int ((seed * 7919) + 17))
    ~count:sz.samples scenario

type rep = {
  setup_ns : int;
  run_ns : int;
  report : Mc.Explore.safety_report option;  (** [None]: budget exhausted *)
  problems : string list;
  minor_words : float;
}

let check sz inits ?prof () =
  match
    Mc.Explore.check_safety ~por:true ~workers:sz.workers
      ~max_configs:sz.max_configs ?prof scenario inits
  with
  | r -> Some r
  | exception Failure _ -> None

(* A clean verdict: no duplicate, no loss, no deadlock, budget kept. *)
let problems = function
  | None -> [ "configuration budget exhausted" ]
  | Some (r : Mc.Explore.safety_report) ->
      (if r.duplicate_delivery then [ "duplicate delivery reachable" ] else [])
      @ (match r.lost_valid with
        | Some _ -> [ "loss of the valid message reachable" ]
        | None -> [])
      @ match r.deadlock with Some _ -> [ "deadlock reachable" ] | None -> []

let setup_only sz ~seed =
  let t0 = Span.now () in
  ignore (initials sz ~seed);
  Span.now () - t0

let untraced sz ~seed =
  let t0 = Span.now () in
  let inits = initials sz ~seed in
  let first = Span.now () in
  let gc0 = Gc.quick_stat () in
  let report = check sz inits () in
  let stop = Span.now () in
  let gc1 = Gc.quick_stat () in
  {
    setup_ns = first - t0;
    run_ns = stop - first;
    report;
    problems = problems report;
    minor_words = gc1.minor_words -. gc0.minor_words;
  }

type prof_view = {
  check_ns : int;  (** the traced [check_safety] call *)
  run_ns : int;  (** summed worker-loop spans *)
  idle_ns : int;
  steals : int;
  steal_fail : int;
  roots_ns : int;
  reduce_ns : int;
  prof_dropped : int;
}

(* The traced run passes the checker's own profiler and folds its
   events into the span recorder: the clock is the recorder's (the
   profiler's epoch read returns 0, so its timestamps are absolute), and
   each worker domain gets its own lane. Counters are the profiler's
   exact per-track sums. *)
let traced sz ~seed sp =
  let open Span in
  let s_sample = name sp "mc.explore.sample_initials" in
  let s_check = name sp "mc.explore.check_safety" in
  let epoch_read = ref true in
  let clock () =
    if !epoch_read then begin
      epoch_read := false;
      0
    end
    else now ()
  in
  let prof =
    Obs.Prof.create ~clock ~capacity:(1 lsl 16) ~tracks:sz.workers ()
  in
  let t0 = now () in
  let inits = wrap sp s_sample (fun () -> initials sz ~seed) in
  let first = now () in
  enter_at sp s_check first;
  let check_id = current_id sp in
  let report = check sz inits ~prof () in
  let t1 = now () in
  leave_at sp t1;
  let events = Obs.Prof.events prof in
  let run_ids = Hashtbl.create 4 in
  let sum name =
    List.fold_left
      (fun acc (e : Obs.Prof.event) ->
        if Obs.Prof.span_name prof e.e_span = name then acc + e.e_dur else acc)
      0 events
  in
  List.iter
    (fun (e : Obs.Prof.event) ->
      let pname = Obs.Prof.span_name prof e.e_span in
      let nm = Span.name sp ("mc.par." ^ String.sub pname 3 (String.length pname - 3)) in
      let parent =
        if pname = "mc.steal" then
          Option.value ~default:check_id (Hashtbl.find_opt run_ids e.e_track)
        else check_id
      in
      let id =
        record sp nm ~track:e.e_track ~start:e.e_start ~stop:(e.e_start + e.e_dur)
          ~parent
      in
      if pname = "mc.run" then Hashtbl.replace run_ids e.e_track id)
    (List.sort
       (fun (a : Obs.Prof.event) b -> compare (a.e_start, -a.e_dur) (b.e_start, -b.e_dur))
       events);
  let counter c = Obs.Prof.counter_total prof (Obs.Prof.counter prof c) in
  let view =
    {
      check_ns = t1 - first;
      run_ns = sum "mc.run";
      idle_ns = counter "mc.idle_ns";
      steals = counter "mc.steals";
      steal_fail = counter "mc.steal_fail";
      roots_ns = sum "mc.roots";
      reduce_ns = sum "mc.reduce";
      prof_dropped = Obs.Prof.dropped prof;
    }
  in
  ( {
      setup_ns = first - t0;
      run_ns = t1 - first;
      report;
      problems = problems report;
      minor_words = 0.;
    },
    view,
    t1 - t0 )
