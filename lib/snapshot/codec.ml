(* Stable binary encoding for cut fingerprints, following the Mc.Codec
   discipline: a reusable Bytes scratch, unsigned LEB128 varints, and an
   incremental 64-bit FNV-1a hash folded byte by byte. Reimplemented
   here rather than reused because lib/mc sits above lib/chaos in the
   dependency order (mc → campaign → chaos → snapshot); the constants
   are identical so the two codecs hash identical byte streams to
   identical values. *)

let fnv_prime = 0x100000001b3
let fnv_offset = 0x0bf29ce484222325

type t = { mutable buf : Bytes.t; mutable pos : int; mutable hash : int }

let create () = { buf = Bytes.create 256; pos = 0; hash = fnv_offset }

let reset t =
  t.pos <- 0;
  t.hash <- fnv_offset

let length t = t.pos
let hash t = t.hash
let key t = Bytes.sub_string t.buf 0 t.pos

let ensure t extra =
  let need = t.pos + extra in
  if need > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.pos;
    t.buf <- b
  end

let add_byte t b =
  let b = b land 0xff in
  ensure t 1;
  Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr b);
  t.pos <- t.pos + 1;
  t.hash <- (t.hash lxor b) * fnv_prime

let rec add_int t v =
  if v land lnot 0x7f = 0 then add_byte t v
  else begin
    add_byte t (v land 0x7f lor 0x80);
    add_int t (v lsr 7)
  end

let add_string t s =
  add_int t (String.length s);
  String.iter (fun c -> add_byte t (Char.code c)) s

let add_bool t b = add_byte t (if b then 1 else 0)

(* Fold a piece hash (or any int) into a running hash, one byte at a
   time, FNV-style. Cut fingerprints are FNV over the sequence of piece
   hashes in canonical order, so a cut assembled from stored data and
   one assembled from at-instant reads agree exactly when every piece
   agrees. *)
let combine h v =
  let h = ref h in
  for i = 0 to 7 do
    h := (!h lxor ((v lsr (i * 8)) land 0xff)) * fnv_prime
  done;
  !h

let add_msg t (m : Ssmfp.Message.t option) =
  match m with
  | None -> add_byte t 0
  | Some m ->
      add_byte t (if Ssmfp.Message.is_valid m then 2 else 1);
      add_string t m.Ssmfp.Message.info;
      add_int t m.Ssmfp.Message.last;
      add_int t m.Ssmfp.Message.color

(* One SSMFP core, same field walk as Mc.Codec.encode does per state:
   request flag, routing entries, outbox length, then per-slot buffers
   and fairness queue. Tagged or length-prefixed throughout, so the
   encoding is injective on canonical state content. *)
let add_core t (st : Ssmfp.State.t) =
  add_byte t (if st.Ssmfp.State.request then 1 else 0);
  Array.iter
    (fun (e : Routing.Selfstab.entry) ->
      add_int t e.Routing.Selfstab.dist;
      add_int t e.Routing.Selfstab.via)
    st.Ssmfp.State.routing;
  add_int t (List.length st.Ssmfp.State.outbox);
  Ssmfp.State.iter_slots
    (fun (sl : Ssmfp.State.slot) ->
      add_msg t sl.Ssmfp.State.buf_r;
      add_msg t sl.Ssmfp.State.buf_e;
      add_int t (List.length sl.Ssmfp.State.queue);
      List.iter (fun q -> add_int t q) sl.Ssmfp.State.queue)
    st
