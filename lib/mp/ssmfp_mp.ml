(* A published snapshot shares the sender's routing array and slots:
   both are immutable once built (State.mli), so the sender's later
   moves build fresh values and never reach a snapshot in flight. *)
type public = {
  pub_routing : Routing.Selfstab.state;
  pub_slots : Ssmfp.State.slots;
}

type payload = Snapshot of int * public

(* What actually rides the channels. With [window = 0] every payload is
   [Plain] and the network behaves byte-for-byte as before the window
   layer existed; with [window > 0] payloads travel inside sliding-
   window Data frames and acks share the channels. *)
type net_msg = Plain of payload | Win of payload Window.frame

(* Per-neighbor mirror store, indexed by the neighbor's slot in N_p
   (ascending): the newest mirror received at pulse >= ours, with its
   pulse. A slot is filled iff its pulse equals the process's own.
   Pulses never decrease and a larger pulse is adopted on arrival, so
   one mirror per neighbor is all a barrier can ever read, and an entry
   left behind by a pulse advance is stale for good. The arrays are
   mutated in place; the record holding them is the process's. *)
type store = { pulses : int array; views : Ssmfp.State.t array }

type proc = {
  core : Ssmfp.State.t;
  pulse : int;
  store : store;
  backoff : int; (* consecutive retransmissions without pulse progress *)
  ticks : int; (* timer fires since the last retransmission *)
}

type event_hook = pid:int -> pulse:int -> Ssmfp.Protocol.event -> unit

type t = {
  graph : Topology.Graph.t;
  net : (proc, net_msg) Network.t;
  rng : Prng.Splitmix.t;
  oracle : Harness.Oracle.t;
  expected_valid : int;
  max_pulse : int ref;
  on_event : event_hook option ref;
  drain_witness : int ref; (* last process seen busy by [all_drained] *)
  window : int;
  (* Window machinery, empty arrays when [window = 0]: sender/receiver
     state per directed channel, indexed [p].[slot] with slot the index
     of the neighbor in N_p, ascending. *)
  win_send : payload Window.sender array array;
  win_recv : payload Window.receiver array array;
}

type channel_stats = {
  delivered : int;
  lost : int;
  duplicated : int;
  reordered : int;
  dropped_while_down : int;
}

type result = {
  outcome : [ `All_done | `Max_deliveries ];
  channel_deliveries : int;
  max_pulse : int;
  oracle : Harness.Oracle.t;
  verdict : Harness.Oracle.verdict;
}

let public_of (core : Ssmfp.State.t) =
  { pub_routing = core.Ssmfp.State.routing; pub_slots = core.Ssmfp.State.slots }

(* The core a guard reads for a neighbor: its published routing and
   slots, placeholders for the fields no neighbor reads (rr, request,
   outbox). The slots still hold the sender's fairness queues, which no
   guard reads either. *)
let state_of_public pub =
  {
    Ssmfp.State.routing = pub.pub_routing;
    slots = pub.pub_slots;
    rr = 0;
    request = false;
    outbox = [];
  }

(* One instance's barrier evaluator. [view] is a configuration that
   holds [placeholder] everywhere between barriers; a barrier at [self]
   writes [self] and its mirrors, evaluates the guards on [cfg] (which
   aliases [view]) and puts the placeholder back. No guard reads beyond
   the closed neighborhood (Protocol: Neighborhood locality), so the
   placeholder is never read. *)
type barrier = {
  proto :
    (Ssmfp.State.t, Ssmfp.Protocol.action, Ssmfp.Protocol.event) Sim.Engine.protocol;
  nbr_ids : int array array;  (* nbr_ids.(p) = N_p, ascending *)
  view : Ssmfp.State.t array;
  cfg : Ssmfp.State.t Sim.Engine.net;
  placeholder : Ssmfp.State.t;
}

let barrier g =
  let n = Topology.Graph.n g in
  let placeholder = Ssmfp.State.clean g ~correct_routing:false 0 in
  let view = Array.make n placeholder in
  {
    proto = Ssmfp.Protocol.make g;
    nbr_ids = Array.init n (fun p -> Array.of_list (Topology.Graph.neighbors g p));
    view;
    cfg = Sim.Engine.synthetic ~graph:g ~states:view;
    placeholder;
  }

let barrier_step b ~self core mirrors =
  let nbrs = b.nbr_ids.(self) in
  if Array.length mirrors <> Array.length nbrs then
    invalid_arg "Ssmfp_mp.barrier_step: one mirror per neighbor";
  b.view.(self) <- core;
  Array.iteri (fun i q -> b.view.(q) <- mirrors.(i)) nbrs;
  let step =
    match b.proto.Sim.Engine.enabled b.cfg self with
    | [] -> None
    | action :: _ ->
        let core', events = b.proto.Sim.Engine.apply b.cfg self action in
        Some (action, core', events)
  in
  b.view.(self) <- b.placeholder;
  Array.iter (fun q -> b.view.(q) <- b.placeholder) nbrs;
  step

let slot_of b self q =
  let ns = b.nbr_ids.(self) in
  let rec find i =
    if i >= Array.length ns then invalid_arg "Ssmfp_mp: not a neighbor"
    else if ns.(i) = q then i
    else find (i + 1)
  in
  find 0

let empty_store b p =
  let deg = Array.length b.nbr_ids.(p) in
  { pulses = Array.make deg (-1); views = Array.make deg b.placeholder }

(* Forget every mirror: pulses are never negative. *)
let forget store = Array.fill store.pulses 0 (Array.length store.pulses) (-1)

let barrier_ready proc =
  let pulses = proc.store.pulses in
  let rec all i = i >= Array.length pulses || (pulses.(i) = proc.pulse && all (i + 1)) in
  all 0

(* Any pulse progress resets the retransmission backoff: the channel is
   evidently moving again. *)
let advance_pulse proc pulse = { proc with pulse; backoff = 0; ticks = 0 }

let make_handler b oracle max_pulse_ref hook_ref =
  let publish proc = Snapshot (proc.pulse, public_of proc.core) in
  let execute_barrier ~self proc =
    (* Raise request_p if the higher layer has pending traffic. *)
    let core =
      if (not proc.core.Ssmfp.State.request) && proc.core.Ssmfp.State.outbox <> []
      then begin
        Harness.Oracle.observe_request_raised oracle ~round:proc.pulse ~pid:self;
        { proc.core with Ssmfp.State.request = true }
      end
      else proc.core
    in
    let core =
      match barrier_step b ~self core proc.store.views with
      | None -> core
      | Some (_, core', events) ->
          List.iter
            (fun ev ->
              Harness.Oracle.observe oracle ~round:proc.pulse ~pid:self ev;
              (* The in-band observer: each process's local event ledger
                 (the snapshot layer's) sees exactly what the omniscient
                 oracle sees, but attributed to the acting process. *)
              match !hook_ref with
              | None -> ()
              | Some f -> f ~pid:self ~pulse:proc.pulse ev)
            events;
          core'
    in
    let proc = advance_pulse { proc with core } (proc.pulse + 1) in
    if proc.pulse > !max_pulse_ref then max_pulse_ref := proc.pulse;
    proc
  in
  let handler ~self ~from proc (Snapshot (k, pub)) =
    (* A snapshot below our pulse can never be read: drop it. *)
    if k >= proc.pulse then begin
      let i = slot_of b self from in
      proc.store.pulses.(i) <- k;
      proc.store.views.(i) <- state_of_public pub
    end;
    let sends = ref [] in
    let broadcast proc =
      let msg = publish proc in
      sends :=
        !sends @ Array.fold_right (fun q acc -> (q, msg) :: acc) b.nbr_ids.(self) []
    in
    (* Maximum adoption: jump forward to a larger pulse and republish. *)
    let proc =
      if k > proc.pulse then begin
        let proc = advance_pulse proc k in
        broadcast proc;
        proc
      end
      else proc
    in
    (* Complete as many barriers as the stored snapshots allow. *)
    let rec drain proc =
      if barrier_ready proc then begin
        let proc = execute_barrier ~self proc in
        broadcast proc;
        drain proc
      end
      else proc
    in
    let proc = drain proc in
    (proc, !sends)
  in
  handler

let create ?(spec = Harness.Fault.pristine) ?(channel_garbage = 0)
    ?(loss = 0.) ?(duplication = 0.) ?(reorder = 0.) ?(seed = 1)
    ?(prof = Obs.Prof.disabled) ?(window = 0) ?synchrony ?rto graph workload =
  if window < 0 then invalid_arg "Ssmfp_mp.create: window must be >= 0";
  let master = Prng.Splitmix.of_int seed in
  let fault_rng = Prng.Splitmix.split master in
  let sched_rng = Prng.Splitmix.split master in
  let garbage_rng = Prng.Splitmix.split master in
  let oracle = Harness.Oracle.create () in
  let max_pulse = ref 0 in
  let on_event = ref None in
  let b = barrier graph in
  let inner = make_handler b oracle max_pulse on_event in
  let n = Topology.Graph.n graph in
  let nbrs = b.nbr_ids in
  let slot_of = slot_of b in
  let win_send =
    if window = 0 then [||]
    else Array.init n (fun p -> Array.map (fun _ -> Window.sender window) nbrs.(p))
  in
  let win_recv =
    if window = 0 then [||]
    else
      Array.init n (fun p -> Array.map (fun _ -> Window.receiver window) nbrs.(p))
  in
  let init p =
    {
      core = Harness.Fault.initial_states ~rng:fault_rng spec graph ~workload p;
      pulse = 0;
      store = empty_store b p;
      backoff = 0;
      ticks = 0;
    }
  in
  let prof_on = Obs.Prof.enabled prof in
  let ptr = Obs.Prof.track prof 0 in
  let c_retrans = Obs.Prof.counter prof "mp.retransmissions" in
  let drain_witness = ref 0 in
  (* RTO from the synchrony model: after GST any frame (and its ack) is
     delivered within delta + C steps, so 2 * (delta + C) between
     retransmissions guarantees each RTO round trips — see the liveness
     note in window.mli. Asynchronously there is no delivery bound, but
     the scheduler delivers one message per step, so the round trip is
     at least the in-flight count: an RTO below the channel count
     retransmits into its own queue and the resends snowball. The base
     RTO therefore scales with the channel count, and on top of it each
     channel backs off exponentially — consecutive fires without an
     intervening ack double the channel's RTO (an ack resets it) — so
     even a mis-sized base converges instead of storming. *)
  let channels = 2 * List.length (Topology.Graph.edges graph) in
  let rto =
    match rto with
    | Some r -> max 1 r
    | None -> (
        match synchrony with
        | Some sy -> 2 * (Synchrony.delta sy + channels)
        | None -> max 64 channels)
  in
  let rto_cap = rto * 1024 in
  (* The refresh floor keeps the steady-state republish load (two
     frames per channel per period) well under the one-delivery-per-step
     the scheduler can serve, leaving idle gaps where channels actually
     drain. *)
  let refresh_every = max (8 * rto) (16 * channels) in
  (* The network is built differently per mode:

     window = 0 — the historical backoff path, byte-identical to every
     build since the mp port landed. Timeout = retransmission with
     exponential backoff: a timer fire only republishes once 2^backoff
     fires have accumulated since the last retransmission, and every
     pulse advance resets the backoff.

     window > 0 — the sliding-window path. No random [timeout] at all:
     liveness comes from per-channel RTO timers and a slow per-process
     refresh timer on the network's wheel, both deterministic. Snapshots
     ride Data frames; acks flow back on the reverse channels. *)
  let net =
    if window = 0 then begin
      let timeout ~self (proc : proc) =
        let threshold = 1 lsl min proc.backoff 6 in
        if proc.ticks + 1 >= threshold then begin
          if prof_on then Obs.Prof.add ptr c_retrans 1;
          let msg = Plain (Snapshot (proc.pulse, public_of proc.core)) in
          ( { proc with ticks = 0; backoff = min (proc.backoff + 1) 6 },
            List.map (fun q -> (q, msg)) (Topology.Graph.neighbors graph self)
          )
        end
        else ({ proc with ticks = proc.ticks + 1 }, [])
      in
      (* Crash–recovery amnesia: the synchronizer's volatile state
         (neighbor mirrors, timers) is lost; the SSMFP core and the
         pulse counter are on stable storage. The next timer fire
         republishes and the barriers rebuild the mirrors. The recovery
         also repoints the drain-witness cache at the recovered process:
         recovery rebuilds traffic there, so [all_drained]'s O(1) check
         keeps hitting a busy process instead of rescanning from 0
         after every crash burst. *)
      let on_recover ~self proc =
        drain_witness := self;
        forget proc.store;
        { proc with backoff = 0; ticks = 0 }
      in
      let handler ~self ~from proc msg =
        match msg with
        | Plain pay ->
            let proc, sends = inner ~self ~from proc pay in
            (proc, List.map (fun (q, p) -> (q, Plain p)) sends)
        | Win _ -> (proc, []) (* stray frame without a window layer *)
      in
      Network.create ~loss ~duplication ~reorder ~prof ?synchrony ~timeout
        ~on_recover ~init ~handler graph
    end
    else begin
      let refresh_key p = Array.length nbrs.(p) in
      let net_ref = ref None in
      let the_net () =
        match !net_ref with Some n -> n | None -> assert false
      in
      let count_retrans k = if prof_on && k > 0 then Obs.Prof.add ptr c_retrans k in
      (* Per-channel adaptive RTO: doubles on every fire that found the
         window still busy, resets to the base on any ack from the peer. *)
      let rto_cur =
        Array.init n (fun p -> Array.map (fun _ -> rto) nbrs.(p))
      in
      (* Ensure the RTO timer for channel self -> nbrs.(self).(slot) is
         armed iff the sender has frames in flight or backlog. The armed
         delay is load-adaptive: the scheduler delivers one message per
         step, so a frame's round trip is at least the network's current
         in-flight count — arming below that would retransmit a frame
         that is still queued. *)
      let sync_rto self slot =
        let net = the_net () in
        if Window.busy win_send.(self).(slot) then begin
          if not (Network.timer_armed net ~self ~key:slot) then
            Network.arm_timer net ~self ~key:slot
              ~after:(max rto_cur.(self).(slot) (2 * Network.in_flight net))
        end
        else Network.cancel_timer net ~self ~key:slot
      in
      (* Route one payload into the window of channel self -> q.
         Snapshots are full-state, so the backlog is conflated to the
         newest payload: a congested channel then carries the peer's
         *current* state with bounded lag instead of an ever-growing
         queue of stale pulses (which starves the receiver's barriers
         and livelocks the synchronizer at scale). *)
      let win_push self q pay =
        let slot = slot_of self q in
        let before = Window.retransmits win_send.(self).(slot) in
        let frames = Window.send_latest win_send.(self).(slot) pay in
        count_retrans (Window.retransmits win_send.(self).(slot) - before);
        sync_rto self slot;
        List.map (fun fr -> (q, Win fr)) frames
      in
      let route_sends self sends =
        List.concat_map (fun (q, pay) -> win_push self q pay) sends
      in
      let handler ~self ~from proc msg =
        match msg with
        | Win (Window.Ack { epoch; cum; nak }) ->
            let slot = slot_of self from in
            let snd = win_send.(self).(slot) in
            let before = Window.retransmits snd in
            let frames = Window.on_ack snd ~epoch ~cum ~nak in
            count_retrans (Window.retransmits snd - before);
            (* the peer acks, so the channel round-trips at the base RTO *)
            rto_cur.(self).(slot) <- rto;
            sync_rto self slot;
            (proc, List.map (fun fr -> (from, Win fr)) frames)
        | Win (Window.Data { epoch; seq; body }) ->
            let slot = slot_of self from in
            let accepted, reply =
              Window.on_data win_recv.(self).(slot) ~epoch ~seq body
            in
            let proc, sends =
              List.fold_left
                (fun (proc, acc) pay ->
                  let proc, s = inner ~self ~from proc pay in
                  (proc, acc @ s))
                (proc, []) accepted
            in
            (proc, ((from, Win reply) :: route_sends self sends))
        | Plain pay ->
            (* Stray plain payload (pre-window garbage): deliver it, but
               route the reaction through the windows. *)
            let proc, sends = inner ~self ~from proc pay in
            (proc, route_sends self sends)
      in
      let on_recover ~self proc =
        Array.iter Window.reset_sender win_send.(self);
        Array.iter Window.reset_receiver win_recv.(self);
        Array.iteri (fun slot _ -> rto_cur.(self).(slot) <- rto) rto_cur.(self);
        Array.iteri (fun slot _ -> sync_rto self slot) win_send.(self);
        drain_witness := self;
        forget proc.store;
        { proc with backoff = 0; ticks = 0 }
      in
      let net =
        Network.create ~loss ~duplication ~reorder ~prof ?synchrony
          ~on_recover ~init ~handler graph
      in
      net_ref := Some net;
      (* Timer fires: per-channel RTO (key = slot) and the slow refresh
         (key = degree): republish the current snapshot on channels with
         no repair already in progress — the belt-and-braces that
         rebuilds neighbor mirrors from arbitrary initial window state
         or after crash amnesia. *)
      Network.set_timer_handler net
        ~keys:(Topology.Graph.max_degree graph + 1)
        (fun ~self ~key proc ->
          if key = refresh_key self then begin
            Network.arm_timer net ~self ~key ~after:refresh_every;
            let pay = Snapshot (proc.pulse, public_of proc.core) in
            let out = ref [] in
            Array.iteri
              (fun slot q ->
                if not (Window.busy win_send.(self).(slot)) then begin
                  count_retrans 1;
                  out := !out @ win_push self q pay
                end)
              nbrs.(self);
            (proc, !out)
          end
          else if key < Array.length nbrs.(self) then begin
            let snd = win_send.(self).(key) in
            let before = Window.retransmits snd in
            let frames = Window.on_rto snd in
            count_retrans (Window.retransmits snd - before);
            rto_cur.(self).(key) <- min (2 * rto_cur.(self).(key)) rto_cap;
            sync_rto self key;
            (proc, List.map (fun fr -> (nbrs.(self).(key), Win fr)) frames)
          end
          else (proc, []));
      net
    end
  in
  (* Bootstrap: everyone publishes its pulse-0 snapshot. *)
  if window = 0 then
    Topology.Graph.iter_vertices
      (fun p ->
        let proc = Network.state net p in
        Network.send_all net ~from:p
          (Plain (Snapshot (proc.pulse, public_of proc.core))))
      graph
  else
    Topology.Graph.iter_vertices
      (fun p ->
        let proc = Network.state net p in
        let pay = Snapshot (proc.pulse, public_of proc.core) in
        Array.iteri
          (fun slot q ->
            List.iter
              (fun fr -> Network.send_one net ~from:p ~into:q (Win fr))
              (Window.send win_send.(p).(slot) pay);
            if Window.busy win_send.(p).(slot) then
              Network.arm_timer net ~self:p ~key:slot
                ~after:(max rto (2 * Network.in_flight net)))
          nbrs.(p);
        (* Stagger the refresh timers across a whole period so the
           republish waves don't cluster; the offset is deterministic
           in the pid. *)
        Network.arm_timer net ~self:p
          ~key:(Array.length nbrs.(p))
          ~after:(refresh_every + (p mod refresh_every)))
      graph;
  (* Garbage in flight: random snapshots with random pulses and buffers —
     wrapped in window frames with random epochs/seqs when the window
     layer is on, so the initial garbage attacks the window state too. *)
  let edges = Topology.Graph.edges graph in
  for _ = 1 to channel_garbage do
    let u, v = Prng.Splitmix.choose garbage_rng edges in
    let from, into = if Prng.Splitmix.bool garbage_rng then (u, v) else (v, u) in
    let garbage_core =
      Harness.Fault.initial_states ~rng:garbage_rng
        { Harness.Fault.adversarial with buffer_fill = 0.5 }
        graph
        ~workload:(Harness.Workload.empty ~n:(Topology.Graph.n graph))
        from
    in
    let pulse = Prng.Splitmix.int garbage_rng 50 in
    let pay = Snapshot (pulse, public_of garbage_core) in
    let msg =
      if window = 0 then Plain pay
      else
        Win
          (Window.Data
             {
               epoch = Prng.Splitmix.int garbage_rng 1000;
               seq = Prng.Splitmix.int garbage_rng (4 * window);
               body = pay;
             })
    in
    Network.inject net ~from ~into msg
  done;
  {
    graph;
    net;
    rng = sched_rng;
    oracle;
    expected_valid = Harness.Workload.total workload;
    max_pulse;
    on_event;
    drain_witness;
    window;
    win_send;
    win_recv;
  }

let graph (t : t) = t.graph
let oracle (t : t) = t.oracle
let expected_valid (t : t) = t.expected_valid
let max_pulse (t : t) = !(t.max_pulse)
let channel_deliveries (t : t) = Network.deliveries t.net
let core (t : t) p = (Network.state t.net p).core

let set_core t p core =
  let proc = Network.state t.net p in
  Network.set_state t.net p { proc with core }

let crash_process t p ~down_for = Network.crash t.net p ~down_for
let is_down t p = Network.is_down t.net p
let pulse_of t p = (Network.state t.net p).pulse
let window (t : t) = t.window

let window_retransmits t =
  Array.fold_left
    (fun acc snds ->
      Array.fold_left (fun acc s -> acc + Window.retransmits s) acc snds)
    0 t.win_send

let set_event_hook t f = t.on_event := Some f

(* Snapshot-layer plumbing: the Chandy–Lamport engine in lib/snapshot
   attaches through these without ever seeing the network record. The
   tap and the channel view unwrap window frames: Data bodies and plain
   payloads are application traffic, acks are link-control and elided. *)
let on_marker t f = Network.on_marker t.net f

let on_deliver t f =
  Network.on_deliver t.net (fun ~self ~from msg ->
      match msg with
      | Plain pay -> f ~self ~from pay
      | Win (Window.Data { body; _ }) -> f ~self ~from body
      | Win (Window.Ack _) -> ())

let send_marker t rng ~from ~into ~epoch =
  Network.send_marker t.net rng ~from ~into ~epoch

let channel_contents t ~from ~into =
  List.filter_map
    (function
      | Plain pay -> Some pay
      | Win (Window.Data { body; _ }) -> Some body
      | Win (Window.Ack _) -> None)
    (Network.channel_contents t.net ~from ~into)

type marker_stats = { m_sent : int; m_delivered : int; m_dropped : int }

let marker_stats t =
  {
    m_sent = Network.markers_sent t.net;
    m_delivered = Network.markers_delivered t.net;
    m_dropped = Network.markers_dropped t.net;
  }

let channel_stats t =
  {
    delivered = Network.deliveries t.net;
    lost = Network.dropped t.net;
    duplicated = Network.duplicated t.net;
    reordered = Network.reordered t.net;
    dropped_while_down = Network.dropped_while_down t.net;
  }

let prof_overwrites t = Network.prof_overwrites t.net
let hops t = Network.hops t.net
let causal_chain t ~id = Network.causal_chain t.net ~id
let lamport t p = Network.lamport t.net p

(* [all_drained] is evaluated after every engine step as the stop
   condition, so at large [n] a naive all-processes scan is the dominant
   cost of the whole run (O(n) processes x O(n) buffer slots, per step).
   Two fixes: [State.has_occupied] checks slots without building a list,
   and we cache the last busy process as a witness — a busy network
   almost always stays busy at the same place, so the common case is a
   single O(n)-slot check instead of a full scan. The witness is also
   repointed by the crash-recovery path (the wheel's on_recover): after
   a crash burst the recovered processes are where the traffic rebuilds,
   so the cache keeps its O(1) hit rate instead of degrading to rescans. *)
let quiet t p =
  let proc = Network.state t.net p in
  proc.core.Ssmfp.State.outbox = []
  && not (Ssmfp.State.has_occupied proc.core)

let all_drained t =
  quiet t !(t.drain_witness)
  &&
  let n = Topology.Graph.n t.graph in
  let rec scan p =
    p >= n
    ||
    if quiet t p then scan (p + 1)
    else begin
      t.drain_witness := p;
      false
    end
  in
  scan 0

let drive ?(max_deliveries = 2_000_000) ?stop t =
  let stop = match stop with Some f -> fun _ -> f t | None -> fun _ -> false in
  Network.run ~max_deliveries ~stop t.net t.rng

let run ?(max_deliveries = 2_000_000) t =
  let status = drive ~max_deliveries ~stop:all_drained t in
  let outcome =
    match status with
    | `Stopped -> `All_done
    | `Idle | `Max_deliveries -> `Max_deliveries
  in
  let verdict =
    Harness.Oracle.check_sp t.oracle ~expected_valid:t.expected_valid
      ~n:(Topology.Graph.n t.graph)
      ~at_quiescence:(outcome = `All_done)
  in
  {
    outcome;
    channel_deliveries = Network.deliveries t.net;
    max_pulse = !(t.max_pulse);
    oracle = t.oracle;
    verdict;
  }
