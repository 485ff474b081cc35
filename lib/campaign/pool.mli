(** Parallel scenario execution on OCaml 5 domains.

    {!run} shards an expanded scenario list across a work-stealing pool of
    domains. Each scenario is self-seeded (see {!Spec.materialize}) and
    starts from a fresh domain-local ghost-id counter, so the outcome of a
    scenario is a pure function of the scenario — running with 1 or 16
    workers yields identical results, in the scenario list's own order.

    A scenario that raises is recorded as a {!Crashed} outcome; it never
    takes the campaign (or its worker domain) down. *)

type channel_summary = {
  ch_delivered : int;
  ch_lost : int;  (** dropped by the loss knob *)
  ch_duplicated : int;
  ch_reordered : int;
  ch_dropped_while_down : int;  (** evaporated at a crashed process *)
}
(** The mp network's channel-perturbation counters, surfaced next to the
    verdict so artifacts show what the channel actually did to the run. *)

type snapshot_summary = {
  snap_every : int;  (** initiation interval in channel deliveries *)
  snap_epochs : int;
  snap_cuts : int;  (** cuts completed and checked online *)
  snap_consistent : int;
  snap_shadow_ok : int;
  snap_abandoned : int;
  snap_markers_resent : int;
  snap_cut_agrees : bool;
      (** the final cut's replayed verdicts match the omniscient ones *)
  snap_online_violations : string list;
}
(** The in-band Chandy–Lamport layer's outcome ({!Chaos.Mp_run}), present
    exactly when the scenario's [snapshot] interval is nonzero. *)

type run =
  | State of Chaos.Runner.outcome
  | Mp of Chaos.Mp_run.outcome  (** the raw outcome of the model's runner *)

type execution = {
  run : run;
  verdict_ok : bool;
      (** {!chaos_verdict}, and with snapshots on, also the cut oracle:
          the cut-side verdict agrees with the omniscient one and no
          online cut-oracle flag was raised *)
  violations : string list;
  recovery : Chaos.Recovery.report option;  (** as in {!chaos_verdict} *)
}

type run_summary = {
  outcome : [ `Quiescent | `Max_steps ];
      (** mp scenarios map [`All_done] to [`Quiescent] and delivery-budget
          exhaustion to [`Max_steps] *)
  steps : int;  (** engine steps; channel deliveries on mp scenarios *)
  rounds : int;  (** engine rounds; synchronizer pulses on mp scenarios *)
  moves : int;
  valid_generated : int;
  valid_delivered : int;
  duplicate_delivered : int;
      (** extra deliveries of valid messages beyond their first (SP allows
          none) *)
  invalid_delivered : int;
  invalid_worst_dest : int;
      (** max invalid deliveries at any single destination (Prop. 4 bounds
          this by [2n]) *)
  invalid_planted : int;
  submitted : int;  (** workload requests plus any chaos aftermath wave *)
  routing_settled_round : int;  (** measured [R_A]; [0] on mp scenarios *)
  verdict_ok : bool;
      (** SP verdict of {!Harness.Oracle.check_sp} on burst-free scenarios;
          on bursty ones, the recovery oracle's [report.ok] (bursts may
          legitimately destroy in-flight valid messages, so the whole-run
          check does not apply) *)
  violations : string list;
  latencies : float list;
      (** per-delivered-message rounds (Prop. 5), sorted ascending *)
  delays : float list;  (** request-to-generation rounds (Prop. 6), sorted *)
  recovery : Chaos.Recovery.report option;
      (** [Some] exactly when the scenario's schedule is not
          [Chaos.Schedule.none] *)
  channel : channel_summary option;  (** [Some] on mp scenarios *)
  snapshot : snapshot_summary option;
      (** [Some] on mp scenarios with a nonzero snapshot interval; a
          disagreeing cut verdict or any online cut-oracle flag also
          clears [verdict_ok] *)
}

type crash = {
  crash_msg : string;  (** [Printexc.to_string] of the escaping exception *)
  crash_backtrace : string;
      (** the exception's backtrace, [""] when the runtime recorded none *)
}

type status = Done of run_summary | Crashed of crash

type outcome = {
  scenario : Spec.scenario;
  n : int;
  delta : int;  (** max degree Δ *)
  diameter : int;  (** D *)
  status : status;
  seconds : float;
      (** wall clock of this scenario on its worker — informational only,
          never serialized (artifacts must be bit-reproducible) *)
}

val chaos_verdict :
  schedule:Chaos.Schedule.t ->
  verdict:Harness.Oracle.verdict ->
  report:Chaos.Recovery.report ->
  bool * string list * Chaos.Recovery.report option
(** The verdict rule shared by the pool, the CLI and the tests:
    [Chaos.Schedule.none] keeps the whole-run SP verdict alone (and no
    report); an unreliable channel without bursts requires both the
    whole-run verdict and the recovery report; bursts hand the verdict to
    the recovery report (the whole-run check may legitimately fail once
    faults destroy in-flight valid messages). *)

val execute :
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Prof.t ->
  ?on_cut:(Snapshot.Ssmfp_link.cut -> unit) ->
  ?channel_garbage:int ->
  Spec.scenario ->
  execution
(** Run one scenario on the calling domain — the single execution path
    of the campaign pool and of [ssmfp_cli run], [chaos] and
    [snapshot]. Resets the domain's ghost-id counter, materializes the
    scenario ({!Spec.materialize}) and dispatches on its model: state
    scenarios run through {!Chaos.Runner} (burst-free schedules take the
    plain [Harness.Runner] code path untouched), mp scenarios through
    {!Chaos.Mp_run} with the scenario's [max_steps] as per-segment
    delivery budget. Both submit 4 fresh requests right after the last
    burst, so the recovery oracle's post-burst exactly-once clause
    always has traffic.

    [?obs] reaches the state runner, [?on_cut] the mp runner, [?prof]
    both. [?channel_garbage] is the count of forged messages pre-loaded
    into the mp channels; by default it is scaled from the corruption
    axis (pristine 0, random 10, adversarial [2n]). *)

val summary : execution -> run_summary
(** The artifact view of an execution: oracle tallies with sorted
    latency and delay lists, and the model's own units ([steps] and
    [moves] are channel deliveries and [rounds] are pulses on mp
    scenarios). *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count], clamped to [1..8]. *)

type fanout
(** A persistent work-stealing pool: [workers - 1] helper domains parked
    between jobs, so callers that fan out many small batches (the model
    checker dispatches one per BFS level) pay the domain-spawn cost once
    instead of per batch. *)

val fanout_create : workers:int -> fanout
(** Spawn the helpers. [workers <= 1] creates a pool with no helper
    domains; {!fanout_run} then executes inline on the calling domain. *)

val fanout_workers : fanout -> int
(** Number of domains that execute a job: the helpers plus the caller. *)

val fanout_run : fanout -> tasks:int -> (int -> unit) -> unit
(** Execute [job 0 .. job (tasks - 1)] across the helpers and the calling
    domain, indices handed out by a shared cursor; returns when all are
    done. The job must communicate through per-index cells — the join
    barrier makes every write visible to the caller afterwards. If a task
    raises, one such exception is re-raised on the calling domain after
    the join (the remaining tasks still run). Not reentrant: one
    [fanout_run] at a time per pool. *)

val fanout_run_w : fanout -> tasks:int -> (worker:int -> int -> unit) -> unit
(** {!fanout_run}, but the job also learns which domain runs it:
    [worker] is [0] on the calling domain and [1 .. workers - 1] on the
    helpers — a stable identity for per-domain profiler tracks
    ({!Obs.Prof.track}) or other domain-local accumulators. *)

val fanout_close : fanout -> unit
(** Shut the helpers down and join them. The pool must be idle. *)

type 'a deque
(** A lock-protected work-stealing deque: the owner pushes and pops at
    the tail (LIFO), thieves batch-steal from the head (the oldest —
    in a search frontier, the largest-subtree — entries). Every
    operation takes the deque's mutex; {!deque_steal} never holds two
    locks at once, so any steal pattern (including mutual theft) is
    deadlock-free. *)

val deque_create : unit -> 'a deque

val deque_push : 'a deque -> 'a -> unit
(** Append at the owner end. Grows the ring as needed. *)

val deque_pop : 'a deque -> 'a option
(** Take the most recently pushed entry, or [None] when empty. *)

val deque_steal : victim:'a deque -> into:'a deque -> int
(** Move a batch (half the victim's entries, at least 1, at most 64)
    from the victim's head to [into]'s tail; returns the count moved
    ([0] = victim was empty). *)

val deque_size : 'a deque -> int
(** Lock-free size hint (atomic read) — for victim selection; may lag
    in-flight operations by a batch. *)

val run_list :
  ?prof:Obs.Prof.t ->
  ?workers:int ->
  (unit -> 'a) list ->
  ('a, string) result list
(** The bare fan-out primitive: evaluate every thunk, at most [workers]
    (default 1) domains at a time, and return results in input order. A
    thunk that raises yields [Error (Printexc.to_string e)]; the other
    thunks still run.

    With an enabled [?prof] (needs at least [workers] tracks), domain
    [w] records into track [w]: a ["campaign.task"] span per thunk
    (utilization), a ["campaign.task_ns"] latency histogram, and a
    per-track ["campaign.tasks"] counter — the steal count of each
    domain's cursor. Profiling never affects results or their order. *)

val run_one : Spec.scenario -> outcome
(** [summary (execute sc)] with the graph metadata and wall clock; an
    exception escaping the run becomes a {!Crashed} status. *)

val run :
  ?workers:int ->
  ?prof:Obs.Prof.t ->
  ?metrics:Obs.Metrics.t ->
  Spec.scenario list ->
  outcome list
(** Execute every scenario, in input order in the result. [?prof] is
    threaded to {!run_list}. With [?metrics], each scenario fills a
    private registry on whatever domain ran it ([campaign.ok] /
    [campaign.failed] / [campaign.crashed] counters and a
    [campaign.scenario_seconds] histogram) and the commutative
    {!Obs.Metrics.merge_into} folds them into the given registry after
    the join — the combined snapshot is independent of worker count and
    steal order. *)
