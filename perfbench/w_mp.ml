(* The message-passing workload: SSMFP over [Mp.Ssmfp_mp] (alpha-
   synchronizer, sliding-window retransmission) on lossy channels, from
   adversarial cores with garbage frames in flight, run until drained. *)

type size = {
  topology : string;
  per_processor : int;
  garbage : int;
  window : int;
  budget : int;  (** scheduler steps, with headroom over what a run needs *)
}

(* The chaos layer's "lossy" channel preset. *)
let loss = 0.15
let duplication = 0.05
let reorder = 0.10

let graph sz = W_state.graph_of sz.topology
let workload sz g ~seed = W_state.uniform_traffic g ~per_processor:sz.per_processor ~seed

let make_net sz g wl ~seed =
  Mp.Ssmfp_mp.create ~spec:Harness.Fault.adversarial ~channel_garbage:sz.garbage
    ~loss ~duplication ~reorder ~seed ~window:sz.window g wl

type rep = {
  setup_ns : int;
  run_ns : int;
  channel_deliveries : int;
  max_pulse : int;
  submitted : int;
  exactly_once : int;
  problems : string list;
  channel : Mp.Ssmfp_mp.channel_stats;
  retransmits : int;
  minor_words : float;
}

let finish ~g t ~drained =
  let oracle = Mp.Ssmfp_mp.oracle t in
  let submitted = Mp.Ssmfp_mp.expected_valid t in
  let verdict =
    Harness.Oracle.check_sp oracle ~expected_valid:submitted
      ~n:(Topology.Graph.n g) ~at_quiescence:drained
  in
  let once = W_state.exactly_once oracle in
  {
    setup_ns = 0;
    run_ns = 0;
    channel_deliveries = Mp.Ssmfp_mp.channel_deliveries t;
    max_pulse = Mp.Ssmfp_mp.max_pulse t;
    submitted;
    exactly_once = once;
    problems =
      W_state.problems ~n:(Topology.Graph.n g) ~quiescent:drained ~submitted ~once
        verdict oracle;
    channel = Mp.Ssmfp_mp.channel_stats t;
    retransmits = Mp.Ssmfp_mp.window_retransmits t;
    minor_words = 0.;
  }

let setup_only sz ~seed =
  let t0 = Span.now () in
  let g = graph sz in
  ignore (make_net sz g (workload sz g ~seed) ~seed);
  Span.now () - t0

(* One untraced run through the public entry points: [create], then
   [run] with an explicit budget. *)
let untraced sz ~seed =
  let t0 = Span.now () in
  let g = graph sz in
  let wl = workload sz g ~seed in
  let t = make_net sz g wl ~seed in
  let first = Span.now () in
  let gc0 = Gc.quick_stat () in
  let r = Mp.Ssmfp_mp.run ~max_deliveries:sz.budget t in
  let stop = Span.now () in
  let gc1 = Gc.quick_stat () in
  let rep = finish ~g t ~drained:(r.Mp.Ssmfp_mp.outcome = `All_done) in
  {
    rep with
    setup_ns = first - t0;
    run_ns = stop - first;
    minor_words = gc1.minor_words -. gc0.minor_words;
  }

type tally = {
  mutable taps : int;  (** data deliveries (snapshot payloads) *)
  mutable stale : int;  (** ... carrying a pulse below the receiver's *)
  mutable barriers : int;  (** ... that advanced the receiver's pulse *)
  mutable steps : int;
}

(* The traced replay: [Ssmfp_mp.run]'s loop through [drive ~stop], where
   [stop] runs before every scheduler step (it is also where the drain
   test runs, as in [run]) and the delivery tap fires before the
   handler. A step is split at the tap into network dispatch and the
   receiver's handling; a handling interval that advanced the receiver's
   pulse is a barrier, any other is a plain receive. Steps without a tap
   deliver an ack or fire timers only. *)
let traced sz ~seed sp =
  let open Span in
  let s_graph = name sp "campaign.spec.topology" in
  let s_workload = name sp "harness.workload.uniform_random" in
  let s_create = name sp "mp.ssmfp_mp.create" in
  let s_drain = name sp "mp.ssmfp_mp.all_drained" in
  let s_step = name ~samples:true sp "mp.network.step" in
  let s_pending = name sp "mp.network.pending" in
  let s_dispatch = name sp "mp.network.dispatch" in
  let s_barrier = name ~samples:true sp "mp.ssmfp_mp.barrier" in
  let s_receive = name sp "mp.ssmfp_mp.receive" in
  let s_ack = name sp "mp.window.ack_timer" in
  let s_finish = name sp "harness.oracle.check_sp" in
  let t0 = now () in
  let g = wrap sp s_graph (fun () -> graph sz) in
  let wl = wrap sp s_workload (fun () -> workload sz g ~seed) in
  let t = wrap sp s_create (fun () -> make_net sz g wl ~seed) in
  let tally = { taps = 0; stale = 0; barriers = 0; steps = 0 } in
  (* 0: between steps, 1: step open before any tap, 2: after the tap *)
  let phase = ref 0 in
  let tap_self = ref 0 and tap_pulse = ref 0 in
  Mp.Ssmfp_mp.on_deliver t (fun ~self ~from:_ (Mp.Ssmfp_mp.Snapshot (k, _)) ->
      let ts = now () in
      leave_at sp ~rename:s_dispatch ts;
      let pulse = Mp.Ssmfp_mp.pulse_of t self in
      tally.taps <- tally.taps + 1;
      if k < pulse then tally.stale <- tally.stale + 1;
      tap_self := self;
      tap_pulse := pulse;
      enter_at sp s_receive ts;
      phase := 2);
  let close_step ts =
    (match !phase with
    | 1 -> leave_at sp ~rename:s_ack ts
    | 2 ->
        if Mp.Ssmfp_mp.pulse_of t !tap_self > !tap_pulse then begin
          tally.barriers <- tally.barriers + 1;
          leave_at sp ~rename:s_barrier ts
        end
        else leave_at sp ts
    | _ -> ());
    if !phase > 0 then leave_at sp ts;
    phase := 0
  in
  let stop t =
    let ts = now () in
    close_step ts;
    enter_at sp s_drain ts;
    let drained = Mp.Ssmfp_mp.all_drained t in
    let ts = now () in
    leave_at sp ts;
    if not drained then begin
      set_index sp tally.steps;
      tally.steps <- tally.steps + 1;
      enter_at sp s_step ts;
      enter_at sp s_pending ts;
      phase := 1
    end;
    drained
  in
  let first = now () in
  let status = Mp.Ssmfp_mp.drive ~max_deliveries:sz.budget ~stop t in
  close_step (now ());
  let rep =
    wrap sp s_finish (fun () -> finish ~g t ~drained:(status = `Stopped))
  in
  let t1 = now () in
  ({ rep with setup_ns = first - t0; run_ns = t1 - first }, tally, t1 - t0)
