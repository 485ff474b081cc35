(* Test-only reference for [Mp.Ssmfp_mp.barrier_step]: the barrier as
   the message-passing port first computed it. Publishing copied the
   routing table and built an n-element (bufR, bufE) array; a barrier
   rebuilt a full n-state configuration — the process's core, one
   reconstructed state per neighbor (fresh slots and bitset, a
   placeholder queue [q]) and a correct-routing clean state for every
   other process — then evaluated the guards on it. The production step
   writes only the process and its mirrors into a persistent view; the
   differential in test_barrier_oracle.ml pins the two together. *)

open Ssmfp

type public = {
  pub_routing : Routing.Selfstab.state;
  pub_bufs : (Message.t option * Message.t option) array;
}

let public_of (core : State.t) =
  {
    pub_routing = Array.copy core.State.routing;
    pub_bufs =
      Array.init (State.dests core) (fun d ->
          let sl = State.slot core d in
          (sl.State.buf_r, sl.State.buf_e));
  }

let state_of_public q pub =
  {
    State.routing = pub.pub_routing;
    slots =
      State.init_slots (Array.length pub.pub_bufs) (fun d ->
          let r, e = pub.pub_bufs.(d) in
          { State.buf_r = r; buf_e = e; queue = [ q ] });
    rr = 0;
    request = false;
    outbox = [];
  }

type t = {
  g : Topology.Graph.t;
  proto : (State.t, Protocol.action, Protocol.event) Sim.Engine.protocol;
  dummy : State.t array;
}

let make g =
  let n = Topology.Graph.n g in
  let correct = Routing.Selfstab.init_correct_all g in
  {
    g;
    proto = Protocol.make g;
    dummy =
      Array.init n (fun p ->
          { (State.clean g ~correct_routing:false p) with State.routing = correct.(p) });
  }

(* [mirrors] maps each neighbor to the snapshot it published. *)
let step t ~self core (mirrors : (int * public) list) =
  let n = Topology.Graph.n t.g in
  let states =
    Array.init n (fun i ->
        if i = self then core
        else if Topology.Graph.is_edge t.g self i then
          match List.assoc_opt i mirrors with
          | Some pub -> state_of_public i pub
          | None -> t.dummy.(i)
        else t.dummy.(i))
  in
  let net = Sim.Engine.synthetic ~graph:t.g ~states in
  match t.proto.Sim.Engine.enabled net self with
  | [] -> None
  | action :: _ ->
      let core', events = t.proto.Sim.Engine.apply net self action in
      Some (action, core', events)
