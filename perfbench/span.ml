(* In-memory span recorder for the traced runs.

   Spans are opened and closed around calls into the program's public
   functions, on one stack per recorder (one domain). Closing a span
   folds it into exact per-name aggregates — count, total and self time
   (duration minus the part its children cover) — so sums never depend
   on what the retention buffer kept. Names flagged [~samples] also keep
   every duration (up to [max_samples]) for percentiles.

   The first [cap] spans opened are retained with their parent id and
   the step/delivery index current when they opened, and are exported as
   a Chrome trace-event document (Perfetto loads it). Spans opened past
   the cap still count in the aggregates; [dropped] says how many the
   file lacks. Parents open before their children, so a retained span's
   parent is always retained too. *)

let max_samples = 1 lsl 21

type samples = { mutable data : int array; mutable len : int }

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable count : int array;
  mutable total : int array;
  mutable self : int array;
  mutable sampled : samples option array;
  (* open stack *)
  st_id : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_index : int array;
  mutable depth : int;
  (* retention *)
  cap : int;
  k_id : int array;
  k_name : int array;
  k_start : int array;
  k_dur : int array;
  k_parent : int array;
  k_index : int array;
  k_track : int array;
  mutable kept : int;
  mutable next_id : int;
  mutable index : int;
  mutable top : int; (* summed duration of depth-0 spans on lane 0 *)
  t0 : int;
}

let now = Obs.Clock.now_ns
let max_depth = 64

let create ?(cap = 1 lsl 16) () =
  {
    names = Hashtbl.create 32;
    name_of = [||];
    count = [||];
    total = [||];
    self = [||];
    sampled = [||];
    st_id = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_index = Array.make max_depth 0;
    depth = 0;
    cap;
    k_id = Array.make cap 0;
    k_name = Array.make cap 0;
    k_start = Array.make cap 0;
    k_dur = Array.make cap 0;
    k_parent = Array.make cap 0;
    k_index = Array.make cap 0;
    k_track = Array.make cap 0;
    kept = 0;
    next_id = 0;
    index = 0;
    top = 0;
    t0 = now ();
  }

let grow a n fill =
  if Array.length a >= n then a
  else Array.append a (Array.make (n - Array.length a) fill)

(* Register (or look up) a span name. *)
let name ?(samples = false) t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
      let id = Array.length t.name_of in
      Hashtbl.add t.names s id;
      t.name_of <- Array.append t.name_of [| s |];
      t.count <- grow t.count (id + 1) 0;
      t.total <- grow t.total (id + 1) 0;
      t.self <- grow t.self (id + 1) 0;
      t.sampled <-
        Array.append t.sampled
          [| (if samples then Some { data = Array.make 1024 0; len = 0 } else None) |];
      id

let set_index t i = t.index <- i

let keep t ~id ~nm ~start ~dur ~parent ~index ~track =
  if id < t.cap then begin
    let k = t.kept in
    t.k_id.(k) <- id;
    t.k_name.(k) <- nm;
    t.k_start.(k) <- start;
    t.k_dur.(k) <- dur;
    t.k_parent.(k) <- parent;
    t.k_index.(k) <- index;
    t.k_track.(k) <- track;
    t.kept <- k + 1
  end

let add_sample t nm dur =
  match t.sampled.(nm) with
  | Some s when s.len < max_samples ->
      if s.len = Array.length s.data then
        s.data <- grow s.data (2 * s.len) 0;
      s.data.(s.len) <- dur;
      s.len <- s.len + 1
  | _ -> ()

let enter_at t nm ts =
  let d = t.depth in
  t.st_id.(d) <- t.next_id;
  t.st_name.(d) <- nm;
  t.st_start.(d) <- ts;
  t.st_child.(d) <- 0;
  t.st_index.(d) <- t.index;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1

(* Close the innermost open span at [ts]; [rename] replaces its name
   (the mp replay learns what a step interval was only when it ends). *)
let leave_at ?rename t ts =
  let d = t.depth - 1 in
  t.depth <- d;
  let nm = match rename with Some nm -> nm | None -> t.st_name.(d) in
  let start = t.st_start.(d) in
  let dur = ts - start in
  t.count.(nm) <- t.count.(nm) + 1;
  t.total.(nm) <- t.total.(nm) + dur;
  t.self.(nm) <- t.self.(nm) + (dur - t.st_child.(d));
  add_sample t nm dur;
  let parent = if d = 0 then -1 else t.st_id.(d - 1) in
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur
  else t.top <- t.top + dur;
  keep t ~id:t.st_id.(d) ~nm ~start ~dur ~parent ~index:t.st_index.(d) ~track:0

let enter t nm = enter_at t nm (now ())
let leave t = leave_at t (now ())

let wrap t nm f =
  enter t nm;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* A span recorded elsewhere (another domain's profiler), with explicit
   bounds and lane; it counts in the aggregates but not in the stack's
   self-time bookkeeping. *)
let record t nm ~track ~start ~stop ~parent =
  let dur = stop - start in
  t.count.(nm) <- t.count.(nm) + 1;
  t.total.(nm) <- t.total.(nm) + dur;
  t.self.(nm) <- t.self.(nm) + dur;
  add_sample t nm dur;
  if parent = -1 && track = 0 then t.top <- t.top + dur;
  let id = t.next_id in
  t.next_id <- id + 1;
  keep t ~id ~nm ~start ~dur ~parent ~index:t.index ~track;
  id

let current_id t = if t.depth = 0 then -1 else t.st_id.(t.depth - 1)
let id t s = Hashtbl.find_opt t.names s
let get a t s = match id t s with Some i -> a.(i) | None -> 0
let count t s = get t.count t s
let total_ns t s = get t.total t s
let self_ns t s = get t.self t s
let dropped t = max 0 (t.next_id - t.cap)
let spans t = t.next_id

(* Nearest-rank percentiles [qs] over the kept samples of [s], in ns,
   with the sample count they rest on. *)
let percentiles t s qs =
  match Option.bind (id t s) (fun i -> t.sampled.(i)) with
  | None | Some { len = 0; _ } -> (List.map (fun _ -> 0.) qs, 0)
  | Some smp ->
      let a = Array.sub smp.data 0 smp.len in
      Array.sort compare a;
      let at q =
        let rank = int_of_float (ceil (q *. float_of_int smp.len)) in
        float_of_int a.(max 0 (min (smp.len - 1) (rank - 1)))
      in
      (List.map at qs, smp.len)

(* Wall-clock the named spans account for: the summed duration of the
   depth-0 spans on lane 0. *)
let top_level_ns t = t.top

let to_json t =
  let us ns = float_of_int ns /. 1000. in
  let events =
    List.init t.kept (fun k ->
        Obs.Json.Obj
          [
            ("name", Obs.Json.String t.name_of.(t.k_name.(k)));
            ("ph", Obs.Json.String "X");
            ("ts", Obs.Json.Float (us (t.k_start.(k) - t.t0)));
            ("dur", Obs.Json.Float (us t.k_dur.(k)));
            ("pid", Obs.Json.Int 1);
            ("tid", Obs.Json.Int t.k_track.(k));
            ( "args",
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Int t.k_id.(k));
                  ("parent", Obs.Json.Int t.k_parent.(k));
                  ("index", Obs.Json.Int t.k_index.(k));
                ] );
          ])
  in
  Obs.Json.Obj
    [
      ("traceEvents", Obs.Json.List events);
      ("displayTimeUnit", Obs.Json.String "ns");
      ( "otherData",
        Obs.Json.Obj
          [
            ("spans", Obs.Json.Int t.next_id);
            ("dropped_spans", Obs.Json.Int (dropped t));
          ] );
    ]

(* Write the retained spans and check the file back with the program's
   own trace validator. *)
let write_validated t path =
  let text = Obs.Json.to_string (to_json t) in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let back = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string back with
  | Error e -> Error ("trace file does not parse: " ^ e)
  | Ok j -> Obs.Traceview.validate j
