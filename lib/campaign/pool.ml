type channel_summary = {
  ch_delivered : int;
  ch_lost : int;
  ch_duplicated : int;
  ch_reordered : int;
  ch_dropped_while_down : int;
}

type snapshot_summary = {
  snap_every : int;
  snap_epochs : int;
  snap_cuts : int;
  snap_consistent : int;
  snap_shadow_ok : int;
  snap_abandoned : int;
  snap_markers_resent : int;
  snap_cut_agrees : bool;
  snap_online_violations : string list;
}

type run = State of Chaos.Runner.outcome | Mp of Chaos.Mp_run.outcome

type execution = {
  run : run;
  verdict_ok : bool;
  violations : string list;
  recovery : Chaos.Recovery.report option;
}

type run_summary = {
  outcome : [ `Quiescent | `Max_steps ];
  steps : int;
  rounds : int;
  moves : int;
  valid_generated : int;
  valid_delivered : int;
  duplicate_delivered : int;
  invalid_delivered : int;
  invalid_worst_dest : int;
  invalid_planted : int;
  submitted : int;
  routing_settled_round : int;
  verdict_ok : bool;
  violations : string list;
  latencies : float list;
  delays : float list;
  recovery : Chaos.Recovery.report option;
  channel : channel_summary option;
  snapshot : snapshot_summary option;
}

type crash = { crash_msg : string; crash_backtrace : string }
type status = Done of run_summary | Crashed of crash

type outcome = {
  scenario : Spec.scenario;
  n : int;
  delta : int;
  diameter : int;
  status : status;
  seconds : float;
}

let default_workers () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Persistent fan-out pool.

   [run_list] spawns fresh domains per call, which is fine for campaign
   grids (seconds per scenario) but too heavy for callers that fan out
   many times over small task batches — the model checker dispatches one
   batch per BFS level. A [fanout] keeps [workers - 1] helper domains
   parked on a condition variable; each [fanout_run] publishes a job
   (task count + body), wakes them, participates from the calling domain,
   and returns once every index has been claimed and finished. Indices
   are handed out by a shared atomic cursor, so the work steals itself
   across domains; the caller's job body must write any results into
   per-index cells (the join barrier makes them safely readable after
   [fanout_run] returns). *)

type fanout = {
  f_mutex : Mutex.t;
  f_ready : Condition.t;  (* a new job was published, or shutdown *)
  f_done : Condition.t;  (* a helper finished the current job *)
  mutable f_job : (worker:int -> int -> unit) option;
  mutable f_count : int;
  f_next : int Atomic.t;
  mutable f_active : int;  (* helpers still inside the current job *)
  mutable f_seq : int;  (* job sequence number, for wakeup filtering *)
  mutable f_stop : bool;
  mutable f_domains : unit Domain.t list;
}

(* Helpers are numbered 1..workers-1; the calling domain is worker 0.
   The index gives profiled jobs a stable per-domain track identity. *)
let fanout_helper f ~worker =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock f.f_mutex;
    while f.f_seq = !seen && not f.f_stop do
      Condition.wait f.f_ready f.f_mutex
    done;
    if f.f_stop then Mutex.unlock f.f_mutex
    else begin
      seen := f.f_seq;
      let job = Option.get f.f_job and count = f.f_count in
      Mutex.unlock f.f_mutex;
      let rec grab () =
        let i = Atomic.fetch_and_add f.f_next 1 in
        if i < count then begin
          job ~worker i;
          grab ()
        end
      in
      grab ();
      Mutex.lock f.f_mutex;
      f.f_active <- f.f_active - 1;
      if f.f_active = 0 then Condition.broadcast f.f_done;
      Mutex.unlock f.f_mutex;
      loop ()
    end
  in
  loop ()

let fanout_create ~workers =
  let f =
    {
      f_mutex = Mutex.create ();
      f_ready = Condition.create ();
      f_done = Condition.create ();
      f_job = None;
      f_count = 0;
      f_next = Atomic.make 0;
      f_active = 0;
      f_seq = 0;
      f_stop = false;
      f_domains = [];
    }
  in
  f.f_domains <-
    List.init
      (max 0 (workers - 1))
      (fun i -> Domain.spawn (fun () -> fanout_helper f ~worker:(i + 1)));
  f

let fanout_workers f = 1 + List.length f.f_domains

let fanout_run_w f ~tasks job =
  if tasks > 0 then
    if f.f_domains = [] then
      for i = 0 to tasks - 1 do
        job ~worker:0 i
      done
    else begin
      (* A raising task must not strand a helper mid-job: trap the first
         exception and re-raise it on the calling domain after the join. *)
      let failure = Atomic.make None in
      let safe ~worker i =
        try job ~worker i
        with e -> ignore (Atomic.compare_and_set failure None (Some e))
      in
      Mutex.lock f.f_mutex;
      f.f_job <- Some safe;
      f.f_count <- tasks;
      Atomic.set f.f_next 0;
      f.f_active <- List.length f.f_domains;
      f.f_seq <- f.f_seq + 1;
      Condition.broadcast f.f_ready;
      Mutex.unlock f.f_mutex;
      let rec grab () =
        let i = Atomic.fetch_and_add f.f_next 1 in
        if i < tasks then begin
          safe ~worker:0 i;
          grab ()
        end
      in
      grab ();
      Mutex.lock f.f_mutex;
      while f.f_active > 0 do
        Condition.wait f.f_done f.f_mutex
      done;
      f.f_job <- None;
      Mutex.unlock f.f_mutex;
      match Atomic.get failure with Some e -> raise e | None -> ()
    end

let fanout_run f ~tasks job = fanout_run_w f ~tasks (fun ~worker:_ i -> job i)

let fanout_close f =
  Mutex.lock f.f_mutex;
  f.f_stop <- true;
  Condition.broadcast f.f_ready;
  Mutex.unlock f.f_mutex;
  List.iter Domain.join f.f_domains;
  f.f_domains <- []

(* ------------------------------------------------------------------ *)
(* Work-stealing deques.

   A lock-protected double-ended queue for continuous (barrier-free)
   traversals: the owner pushes and pops at the tail (LIFO keeps its
   working set hot), thieves take a batch from the head — the oldest
   entries, which in a search frontier are the ones whose subtrees are
   largest, so one steal buys a thief the most independent work. A plain
   mutex per deque instead of a Chase-Lev array: operations are a few
   words long, the owner amortizes the lock over push/pop pairs, and
   contention only arises when a thief targets this victim — on the
   scale the model checker runs at (µs-long expansions) the lock is
   far below noise, and it keeps resize and batch-steal trivially
   correct. *)

type 'a deque = {
  dq_lock : Mutex.t;
  mutable dq_buf : 'a option array; (* circular; head..tail-1 live *)
  mutable dq_head : int; (* steal end (logical index) *)
  mutable dq_tail : int; (* owner end (logical index) *)
  dq_size : int Atomic.t; (* lock-free size hint for victim selection *)
}

let deque_create () =
  {
    dq_lock = Mutex.create ();
    dq_buf = Array.make 64 None;
    dq_head = 0;
    dq_tail = 0;
    dq_size = Atomic.make 0;
  }

let deque_size d = Atomic.get d.dq_size

let deque_grow d =
  let cap = Array.length d.dq_buf in
  let buf' = Array.make (cap * 2) None in
  let n = d.dq_tail - d.dq_head in
  for k = 0 to n - 1 do
    buf'.(k) <- d.dq_buf.((d.dq_head + k) land (cap - 1))
  done;
  d.dq_buf <- buf';
  d.dq_head <- 0;
  d.dq_tail <- n

let deque_push d v =
  Mutex.lock d.dq_lock;
  let cap = Array.length d.dq_buf in
  if d.dq_tail - d.dq_head = cap then deque_grow d;
  d.dq_buf.(d.dq_tail land (Array.length d.dq_buf - 1)) <- Some v;
  d.dq_tail <- d.dq_tail + 1;
  Atomic.incr d.dq_size;
  Mutex.unlock d.dq_lock

let deque_pop d =
  Mutex.lock d.dq_lock;
  let r =
    if d.dq_tail = d.dq_head then None
    else begin
      d.dq_tail <- d.dq_tail - 1;
      let i = d.dq_tail land (Array.length d.dq_buf - 1) in
      let v = d.dq_buf.(i) in
      d.dq_buf.(i) <- None;
      Atomic.decr d.dq_size;
      v
    end
  in
  Mutex.unlock d.dq_lock;
  r

let deque_steal ~victim ~into =
  (* Never hold two deque locks at once: two thieves stealing from each
     other would order the locks oppositely and deadlock. The batch is
     staged through a local buffer between the victim's lock and the
     thief's. *)
  Mutex.lock victim.dq_lock;
  let n = victim.dq_tail - victim.dq_head in
  if n = 0 then begin
    Mutex.unlock victim.dq_lock;
    0
  end
  else begin
    (* take half (at least 1, at most 64): enough that a thief does not
       come straight back, bounded so the victim keeps a working set *)
    let take = min 64 (max 1 (n / 2)) in
    let vcap = Array.length victim.dq_buf in
    let loot =
      Array.init take (fun k ->
          let i = (victim.dq_head + k) land (vcap - 1) in
          let v = victim.dq_buf.(i) in
          victim.dq_buf.(i) <- None;
          v)
    in
    victim.dq_head <- victim.dq_head + take;
    ignore (Atomic.fetch_and_add victim.dq_size (-take));
    Mutex.unlock victim.dq_lock;
    Mutex.lock into.dq_lock;
    Array.iter
      (fun v ->
        if into.dq_tail - into.dq_head = Array.length into.dq_buf then
          deque_grow into;
        into.dq_buf.(into.dq_tail land (Array.length into.dq_buf - 1)) <- v;
        into.dq_tail <- into.dq_tail + 1)
      loot;
    ignore (Atomic.fetch_and_add into.dq_size take);
    Mutex.unlock into.dq_lock;
    take
  end

let run_list ?(prof = Obs.Prof.disabled) ?(workers = 1) thunks =
  let arr = Array.of_list thunks in
  let total = Array.length arr in
  let results = Array.make total None in
  let next = Atomic.make 0 in
  (* Per-domain profiling: worker [w] records only into track [w]. The
     per-track task counter is the steal count (how many tasks each
     domain's cursor fetches won), the task spans give utilization, and
     the latency histogram is merged across tracks at export. *)
  let sp_task = Obs.Prof.span prof "campaign.task" in
  let h_task = Obs.Prof.histo prof "campaign.task_ns" in
  let c_tasks = Obs.Prof.counter prof "campaign.tasks" in
  (* Work stealing over a shared cursor: each cell of [results] is written
     by exactly one domain and read only after every join, so there is no
     data race on the payloads. *)
  let worker w () =
    let tr = Obs.Prof.track prof w in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let t0 = Obs.Prof.now prof in
        let r = try Ok (arr.(i) ()) with e -> Error (Printexc.to_string e) in
        let t1 = Obs.Prof.now prof in
        Obs.Prof.record_interval tr sp_task ~start:t0 ~stop:t1;
        Obs.Prof.observe tr h_task (t1 - t0);
        Obs.Prof.add tr c_tasks 1;
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let workers = max 1 (min workers total) in
  if workers <= 1 then worker 0 ()
  else begin
    let others =
      List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join others
  end;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)

(* The chaos verdict: with no schedule at all the classic whole-run SP
   check stands alone; with an unreliable channel but no bursts both the
   whole-run check and the recovery oracle must hold (retransmission must
   still get everything through); once bursts strike, the whole-run check
   may legitimately fail (a crash destroys in-flight valid messages), so
   the recovery oracle's post-burst clauses are the verdict. *)
let chaos_verdict ~(schedule : Chaos.Schedule.t)
    ~(verdict : Harness.Oracle.verdict) ~(report : Chaos.Recovery.report) =
  if Chaos.Schedule.is_none schedule then
    (verdict.Harness.Oracle.ok, verdict.Harness.Oracle.violations, None)
  else if schedule.Chaos.Schedule.bursts = [] then
    ( verdict.Harness.Oracle.ok && report.Chaos.Recovery.ok,
      verdict.Harness.Oracle.violations @ report.Chaos.Recovery.violations,
      Some report )
  else (report.Chaos.Recovery.ok, report.Chaos.Recovery.violations, Some report)

(* Post-burst probe wave size: enough traffic that the recovery oracle's
   once-and-only-once clause is never vacuous, small enough not to
   reshape the workload. Both runners submit it only after the last
   burst, so a burst-free run never sees it. *)
let aftermath = 4

(* channel_garbage mirrors the corruption axis on the mp side: forged
   messages sitting in flight at start, scaled like the planted state
   corruption (Prop. 4's budget is per destination, hence the 2n). *)
let mp_channel_garbage (sc : Spec.scenario) ~n =
  match sc.Spec.corruption with
  | Spec.Pristine -> 0
  | Spec.Random_point -> 10
  | Spec.Adversarial -> 2 * n

let execute ?obs ?prof ?on_cut ?channel_garbage (sc : Spec.scenario) =
  (* Fresh, deterministic ghost ids per scenario, whatever the domain
     ran before — the outcome must not depend on scheduling. *)
  Ssmfp.Message.reset_ghost_counter ();
  let schedule = sc.Spec.chaos in
  let run =
    match sc.Spec.model with
    | Spec.State_model ->
        (* Zero-burst schedules delegate to the plain runner inside
           Chaos.Runner — byte-identical to Harness.Runner.run. *)
        State
          (Chaos.Runner.run ?obs ~aftermath ?prof ~schedule (Spec.materialize sc))
    | Spec.Mp_model ->
        let graph = sc.Spec.topology.Spec.graph in
        let channel_garbage =
          match channel_garbage with
          | Some k -> k
          | None -> mp_channel_garbage sc ~n:(Topology.Graph.n graph)
        in
        Mp
          (Chaos.Mp_run.run
             ~spec:(Spec.fault_spec sc.Spec.corruption ~seed:sc.Spec.seed)
             ~channel_garbage ~seed:sc.Spec.seed
             ~max_deliveries:sc.Spec.max_steps ~aftermath
             ~snapshot_every:sc.Spec.snapshot ?on_cut ?prof ~schedule graph
             (Spec.materialize_workload sc))
  in
  let verdict, report, snapshot =
    match run with
    | State o -> (o.Chaos.Runner.sp_verdict, o.Chaos.Runner.report, None)
    | Mp o ->
        (o.Chaos.Mp_run.verdict, o.Chaos.Mp_run.report, o.Chaos.Mp_run.snapshot)
  in
  let verdict_ok, violations, recovery =
    chaos_verdict ~schedule ~verdict ~report
  in
  (* With the snapshot layer on, the scenario also vouches for the
     in-band view: the cut-side verdict must agree with the omniscient
     one, and the online cut oracle must stay silent. *)
  let cut_violations =
    match snapshot with
    | None -> []
    | Some s ->
        (if s.Chaos.Mp_run.cut_agrees then []
         else [ "cut-oracle verdict disagrees with the omniscient one" ])
        @ s.Chaos.Mp_run.online_violations
  in
  {
    run;
    verdict_ok = verdict_ok && cut_violations = [];
    violations = violations @ cut_violations;
    recovery;
  }

let oracle_tallies oracle =
  ( Harness.Oracle.valid_generated oracle,
    Harness.Oracle.valid_delivered oracle,
    Harness.Oracle.duplicate_delivered_total oracle,
    Harness.Oracle.invalid_delivered_total oracle,
    List.fold_left
      (fun acc (_, c) -> max acc c)
      0
      (Harness.Oracle.invalid_deliveries oracle),
    (* The oracle folds its hash table in bucket order; sort so aggregate
       percentiles never depend on insertion history. *)
    List.sort compare (Harness.Oracle.latencies oracle),
    List.sort compare (Harness.Oracle.delays oracle) )

let channel_summary (c : Mp.Ssmfp_mp.channel_stats) =
  {
    ch_delivered = c.Mp.Ssmfp_mp.delivered;
    ch_lost = c.Mp.Ssmfp_mp.lost;
    ch_duplicated = c.Mp.Ssmfp_mp.duplicated;
    ch_reordered = c.Mp.Ssmfp_mp.reordered;
    ch_dropped_while_down = c.Mp.Ssmfp_mp.dropped_while_down;
  }

let snapshot_summary (s : Chaos.Mp_run.snapshot_outcome) =
  {
    snap_every = s.Chaos.Mp_run.snapshot_every;
    snap_epochs = s.Chaos.Mp_run.epochs;
    snap_cuts = s.Chaos.Mp_run.cuts;
    snap_consistent = s.Chaos.Mp_run.consistent;
    snap_shadow_ok = s.Chaos.Mp_run.shadow_ok;
    snap_abandoned = s.Chaos.Mp_run.abandoned;
    snap_markers_resent = s.Chaos.Mp_run.markers_resent;
    snap_cut_agrees = s.Chaos.Mp_run.cut_agrees;
    snap_online_violations = s.Chaos.Mp_run.online_violations;
  }

let summary x =
  let oracle, outcome, (steps, rounds, moves), planted, submitted, settled =
    match x.run with
    | State o ->
        let r = o.Chaos.Runner.run in
        let st = r.Harness.Runner.stats in
        ( r.Harness.Runner.oracle,
          r.Harness.Runner.outcome,
          (st.Sim.Engine.steps, st.Sim.Engine.rounds, st.Sim.Engine.moves),
          r.Harness.Runner.invalid_planted,
          r.Harness.Runner.submitted + o.Chaos.Runner.aftermath_submitted,
          r.Harness.Runner.routing_settled_round )
    | Mp o ->
        let d = o.Chaos.Mp_run.channel_deliveries in
        ( o.Chaos.Mp_run.oracle,
          (match o.Chaos.Mp_run.mp_outcome with
          | `All_done -> `Quiescent
          | `Max_deliveries -> `Max_steps),
          (* steps and moves are channel deliveries here — the mp
             model's unit of work; rounds are synchronizer pulses. *)
          (d, o.Chaos.Mp_run.max_pulse, d),
          o.Chaos.Mp_run.invalid_planted,
          o.Chaos.Mp_run.submitted,
          0 )
  in
  let generated, delivered, duplicated, invalid, invalid_worst, latencies, delays
      =
    oracle_tallies oracle
  in
  let channel, snapshot =
    match x.run with
    | State _ -> (None, None)
    | Mp o ->
        ( Some (channel_summary o.Chaos.Mp_run.channel),
          Option.map snapshot_summary o.Chaos.Mp_run.snapshot )
  in
  {
    outcome;
    steps;
    rounds;
    moves;
    valid_generated = generated;
    valid_delivered = delivered;
    duplicate_delivered = duplicated;
    invalid_delivered = invalid;
    invalid_worst_dest = invalid_worst;
    invalid_planted = planted;
    submitted;
    routing_settled_round = settled;
    verdict_ok = x.verdict_ok;
    violations = x.violations;
    latencies;
    delays;
    recovery = x.recovery;
    channel;
    snapshot;
  }

let run_one sc =
  let t0 = Unix.gettimeofday () in
  let n, delta, diameter =
    Chaos.Runner.graph_meta sc.Spec.topology.Spec.graph
  in
  let status =
    Printexc.record_backtrace true;
    match summary (execute sc) with
    | s -> Done s
    | exception e ->
        let raw = Printexc.get_raw_backtrace () in
        Crashed
          {
            crash_msg = Printexc.to_string e;
            crash_backtrace = String.trim (Printexc.raw_backtrace_to_string raw);
          }
  in
  {
    scenario = sc;
    n;
    delta;
    diameter;
    status;
    seconds = Unix.gettimeofday () -. t0;
  }

let run ?workers ?prof ?metrics scenarios =
  (* Each scenario task fills a private registry on whatever domain ran
     it; the commutative Metrics merge folds them all into the caller's
     registry after the join, so the combined snapshot is independent of
     worker count and steal order. *)
  let want_metrics = metrics <> None in
  let tagged =
    run_list ?prof ?workers
      (List.map
         (fun sc () ->
           let o = run_one sc in
           let m =
             if not want_metrics then None
             else begin
               let m = Obs.Metrics.create () in
               (match o.status with
               | Done s when s.verdict_ok -> Obs.Metrics.incr m "campaign.ok"
               | Done _ -> Obs.Metrics.incr m "campaign.failed"
               | Crashed _ -> Obs.Metrics.incr m "campaign.crashed");
               Obs.Metrics.observe m "campaign.scenario_seconds" o.seconds;
               Some m
             end
           in
           (o, m))
         scenarios)
  in
  (match metrics with
  | None -> ()
  | Some into ->
      List.iter
        (function Ok (_, Some m) -> Obs.Metrics.merge_into ~into m | _ -> ())
        tagged);
  List.map2
    (fun sc result ->
      match result with
      | Ok (o, _) -> o
      | Error msg ->
          (* run_one already catches runner exceptions; this branch
             only fires if scenario metadata itself blew up. *)
          let n, delta, diameter =
            try Chaos.Runner.graph_meta sc.Spec.topology.Spec.graph
            with _ -> (0, 0, 0)
          in
          {
            scenario = sc;
            n;
            delta;
            diameter;
            status = Crashed { crash_msg = msg; crash_backtrace = "" };
            seconds = 0.;
          })
    scenarios tagged
