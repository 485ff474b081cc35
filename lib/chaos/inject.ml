let payload_pool = [ "chaos"; "msg"; "x"; "hot" ]

(* One domain's corruption of one processor's state, staying inside the
   variable domains DESIGN.md fixes (the same invariants as
   Harness.Fault's initial corruption): colors in [0..Δ], last/via in
   N_p ∪ {p}, dist in [0..n], queues permutations of N_p ∪ {p}. *)
let apply_domain rng g ~p (st : Ssmfp.State.t) (d : Schedule.domain) =
  let delta = Topology.Graph.max_degree g in
  match d with
  | Schedule.Routing -> Ssmfp.State.with_routing st (Routing.Selfstab.init_random rng g p)
  | Schedule.Buffers ->
      Ssmfp.State.map_slots
        (fun (sl : Ssmfp.State.slot) ->
          let buf old =
            if Prng.Splitmix.bernoulli rng 0.5 then
              Some (Harness.Fault.invalid_message rng g ~at:p ~delta payload_pool)
            else old
          in
          { sl with Ssmfp.State.buf_r = buf sl.Ssmfp.State.buf_r;
                    buf_e = buf sl.Ssmfp.State.buf_e })
        st
  | Schedule.Queues ->
      Ssmfp.State.map_slots
        (fun (sl : Ssmfp.State.slot) ->
          { sl with Ssmfp.State.queue = Prng.Splitmix.shuffle rng sl.Ssmfp.State.queue })
        st
  | Schedule.Flags ->
      {
        st with
        Ssmfp.State.request = Prng.Splitmix.bool rng;
        rr = Prng.Splitmix.int rng (Topology.Graph.n g);
      }
  | Schedule.Crash ->
      (* Amnesia restart: every protocol variable re-initialized (with
         unstabilized routing), while the higher layer's outbox — owned
         by the application, not the protocol — survives. *)
      {
        (Ssmfp.State.clean g ~correct_routing:false p) with
        Ssmfp.State.outbox = st.Ssmfp.State.outbox;
      }

let corrupt_state rng g ~p ~domains st =
  List.fold_left (fun st d -> apply_domain rng g ~p st d) st domains

let pick_victims rng g = function
  | Schedule.All -> Topology.Graph.vertices g
  | Schedule.Count k ->
      let n = Topology.Graph.n g in
      let k = min k n in
      List.sort compare (Prng.Splitmix.sample_without_replacement rng k n)

let domains_tag domains =
  String.concat ""
    (List.map (fun d -> String.make 1 (Schedule.domain_letter d)) domains)

let burst rng ?journal (b : Schedule.burst) engine =
  let g = Sim.Engine.graph engine in
  let victims = pick_victims rng g b.Schedule.victims in
  let stats = Sim.Engine.stats engine in
  let tag = domains_tag b.Schedule.domains in
  List.iter
    (fun p ->
      let st = Sim.Engine.state engine p in
      let st' = corrupt_state rng g ~p ~domains:b.Schedule.domains st in
      Sim.Engine.set_state engine p st';
      match journal with
      | None -> ()
      | Some j ->
          Obs.Journal.record_fault j ~step:stats.Sim.Engine.steps
            ~round:stats.Sim.Engine.rounds ~pid:p
            ~detail:(Printf.sprintf "burst@%d:%s" b.Schedule.at tag))
    victims;
  List.length victims
