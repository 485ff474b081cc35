type slot = {
  buf_r : Message.t option;
  buf_e : Message.t option;
  queue : int list;
}

let word_bits = Sys.int_size

(* [busy] is the occupancy bitset: bit [d mod word_bits] of word
   [d / word_bits] is set iff slot [d] holds a message in [buf_r] or
   [buf_e]. Both arrays are never mutated once built, so states share
   them freely. *)
type slots = { arr : slot array; busy : int array }

type t = {
  routing : Routing.Selfstab.state;
  slots : slots;
  rr : int;
  request : bool;
  outbox : (int * Message.info) list;
}

let occupied s = Option.is_some s.buf_r || Option.is_some s.buf_e

let of_array arr =
  let n = Array.length arr in
  let busy = Array.make ((n + word_bits - 1) / word_bits) 0 in
  Array.iteri
    (fun d s ->
      if occupied s then
        busy.(d / word_bits) <- busy.(d / word_bits) lor (1 lsl (d mod word_bits)))
    arr;
  { arr; busy }

let init_slots n f = of_array (Array.init n f)

let empty_slot g ~p =
  { buf_r = None; buf_e = None; queue = p :: Topology.Graph.neighbors g p }

let clean g ?(correct_routing = true) p =
  let n = Topology.Graph.n g in
  let routing =
    if correct_routing then Routing.Selfstab.init_correct g p
    else Array.make n { Routing.Selfstab.dist = 0; via = p }
  in
  let empty = empty_slot g ~p in
  {
    routing;
    slots = init_slots n (fun _ -> empty);
    rr = 0;
    request = false;
    outbox = [];
  }

let dests t = Array.length t.slots.arr
let slot t d = t.slots.arr.(d)

(* The bitset is copied only when d's occupancy flips. *)
let with_slot t d s =
  let arr = Array.copy t.slots.arr in
  arr.(d) <- s;
  let busy =
    let old = t.slots.busy in
    let w = d / word_bits and bit = 1 lsl (d mod word_bits) in
    if occupied s = (old.(w) land bit <> 0) then old
    else
      let busy = Array.copy old in
      busy.(w) <- busy.(w) lxor bit;
      busy
  in
  { t with slots = { arr; busy } }

let busy_word t w = t.slots.busy.(w)
let iter_slots f t = Array.iter f t.slots.arr
let map_slots f t = { t with slots = of_array (Array.map f t.slots.arr) }
let with_routing t routing = { t with routing }
let with_rr t rr = { t with rr }

let requests t ~d =
  t.request && match t.outbox with (d', _) :: _ -> d' = d | [] -> false

let next_message t =
  match t.outbox with [] -> None | (_, info) :: _ -> Some info

let pop_outbox t =
  match t.outbox with [] -> t | _ :: rest -> { t with outbox = rest }

let push_outbox t ~dest info = { t with outbox = t.outbox @ [ (dest, info) ] }

let has_occupied t = Array.exists (fun w -> w <> 0) t.slots.busy

let occupied_buffers t =
  let acc = ref [] in
  Array.iteri
    (fun d s ->
      Option.iter (fun m -> acc := (d, `E, m) :: !acc) s.buf_e;
      Option.iter (fun m -> acc := (d, `R, m) :: !acc) s.buf_r)
    t.slots.arr;
  List.rev !acc

let pp fmt t =
  let buf d tag = function
    | None -> ()
    | Some m -> Format.fprintf fmt " %s%d=%a" tag d Message.pp m
  in
  Format.fprintf fmt "{req=%b" t.request;
  Array.iteri
    (fun d s ->
      buf d "R" s.buf_r;
      buf d "E" s.buf_e)
    t.slots.arr;
  Format.fprintf fmt "}"
