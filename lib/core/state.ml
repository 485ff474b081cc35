type slot = {
  buf_r : Message.t option;
  buf_e : Message.t option;
  queue : int list;
}

type t = {
  routing : Routing.Selfstab.state;
  slots : slot array;
  rr : int;
  request : bool;
  outbox : (int * Message.info) list;
}

let empty_slot g ~p =
  { buf_r = None; buf_e = None; queue = p :: Topology.Graph.neighbors g p }

let clean g ?(correct_routing = true) p =
  let n = Topology.Graph.n g in
  let routing =
    if correct_routing then Routing.Selfstab.init_correct g p
    else Array.make n { Routing.Selfstab.dist = 0; via = p }
  in
  {
    routing;
    slots = Array.init n (fun _ -> empty_slot g ~p);
    rr = 0;
    request = false;
    outbox = [];
  }

let slot t d = t.slots.(d)

let with_slot t d s =
  let slots = Array.copy t.slots in
  slots.(d) <- s;
  { t with slots }

let with_routing t routing = { t with routing }
let with_rr t rr = { t with rr }

let requests t ~d =
  t.request && match t.outbox with (d', _) :: _ -> d' = d | [] -> false

let next_message t =
  match t.outbox with [] -> None | (_, info) :: _ -> Some info

let pop_outbox t =
  match t.outbox with [] -> t | _ :: rest -> { t with outbox = rest }

let push_outbox t ~dest info = { t with outbox = t.outbox @ [ (dest, info) ] }

let has_occupied t =
  let n = Array.length t.slots in
  let rec scan d =
    d < n
    &&
    let s = t.slots.(d) in
    s.buf_r <> None || s.buf_e <> None || scan (d + 1)
  in
  scan 0

let occupied_buffers t =
  let acc = ref [] in
  Array.iteri
    (fun d s ->
      Option.iter (fun m -> acc := (d, `E, m) :: !acc) s.buf_e;
      Option.iter (fun m -> acc := (d, `R, m) :: !acc) s.buf_r)
    t.slots;
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
    t.slots;
  Format.fprintf fmt "}"
