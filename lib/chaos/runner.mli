(** State-model chaos runs: a [Harness.Runner] execution with a fault
    schedule injected through the engine's [before_step] hook.

    The channel preset of the schedule is an mp-model concern and is
    ignored here; only the bursts matter. *)

type outcome = {
  run : Harness.Runner.result;
      (** the underlying run. Its [verdict] is the whole-run SP check,
          which bursts may legitimately fail (a [Crash] burst destroys
          in-flight valid messages); the chaos verdict is
          [report.ok]. *)
  report : Recovery.report;
  fired : (int * int) list;
      (** per burst, in firing order: (engine round it actually fired
          at, victims corrupted) — a burst scheduled past quiescence
          fires at the quiescent round instead *)
  aftermath_submitted : int;
  sp_verdict : Harness.Oracle.verdict;
      (** [run.verdict] with [expected_valid] corrected for the
          aftermath wave (identical to it when [aftermath = 0]) *)
  schedule : Schedule.t;
}

val graph_meta : Topology.Graph.t -> int * int * int
(** [(n, Δ, D)] of a graph, the diameter [0] when it is undefined. *)

val run :
  ?obs:Obs.Sink.t ->
  ?aftermath:int ->
  ?prof:Obs.Prof.t ->
  schedule:Schedule.t ->
  Harness.Runner.config ->
  outcome
(** With an empty burst list this delegates to [Harness.Runner.run]
    with no injector installed — byte-identical events, stats and final
    configuration (pinned by [test/test_chaos.ml]). Bursts draw from a
    dedicated PRNG stream derived from [cfg.seed], so the execution
    prefix before the first burst is exactly the burst-free run.

    [aftermath] (default 0) submits that many fresh requests — random
    sources, random distinct destinations — immediately after the last
    burst fires, guaranteeing the recovery oracle's post-burst SP check
    has real traffic to bind to.

    [?prof] records a single ["chaos.run"] span on track 0 covering the
    whole execution (the state model has no message hot path to trace;
    the mp-model runs in {!Mp_run} carry the detailed instruments). *)
