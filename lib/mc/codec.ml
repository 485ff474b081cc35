(* Compact binary canonical keys for model-checker configurations.

   The codec writes the same abstraction the historical string key
   rendered — ghost identities and the [rr] cursor are absent, message
   occurrences are the visible (info, last, color) triple plus validity,
   the delivery counter is clamped at 2 — but into a reusable [Bytes]
   scratch buffer with varint fields, updating a 64-bit FNV-1a style
   hash byte by byte. No [Printf], no per-field [string_of_int]: the only
   allocation on the hot path is the buffer doubling, which stops once the
   scratch is as large as the largest configuration. *)

(* FNV-1a, folded into OCaml's 63-bit native int. The prime is the
   standard 64-bit FNV prime (it fits); the offset basis is the standard
   one truncated to 62 bits so the literal is portable. Multiplication
   wraps mod 2^63, which is fine: we only ever compare hashes computed by
   this same function. *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x0bf29ce484222325

type t = { mutable buf : Bytes.t; mutable pos : int; mutable hash : int }

let create () = { buf = Bytes.create 256; pos = 0; hash = fnv_offset }

let reset t =
  t.pos <- 0;
  t.hash <- fnv_offset

let length t = t.pos
let hash t = t.hash
let raw t = t.buf
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

(* Unsigned LEB128 over the native word. [lsr] shifts zeros in, so the
   loop terminates for negative inputs too (they take the maximal 9
   bytes); the encoding is a bijection on native ints either way. *)
let rec add_int t v =
  if v land lnot 0x7f = 0 then add_byte t v
  else begin
    add_byte t (v land 0x7f lor 0x80);
    add_int t (v lsr 7)
  end

let add_string t s =
  add_int t (String.length s);
  String.iter (fun c -> add_byte t (Char.code c)) s

let add_msg t (m : Ssmfp.Message.t option) =
  match m with
  | None -> add_byte t 0
  | Some m ->
      add_byte t (if Ssmfp.Message.is_valid m then 2 else 1);
      add_string t m.Ssmfp.Message.info;
      add_int t m.Ssmfp.Message.last;
      add_int t m.Ssmfp.Message.color

(* Every field is either a tagged byte or length-prefixed, and the state
   and slot counts are fixed by the network, so the encoding decodes
   unambiguously: distinct canonical configurations get distinct keys. *)
let encode t states ~delivered =
  reset t;
  Array.iter
    (fun (st : Ssmfp.State.t) ->
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
        st)
    states;
  add_int t (min delivered 2)

(* ------------------------------------------------------------------ *)
(* String-key fallback: the historical rendering, kept for differential
   testing. Manual buffer writes only — no [Printf.sprintf]. *)

let string_of_msg buf (m : Ssmfp.Message.t option) =
  match m with
  | None -> Buffer.add_char buf '-'
  | Some m ->
      Buffer.add_string buf m.Ssmfp.Message.info;
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int m.Ssmfp.Message.last);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int m.Ssmfp.Message.color);
      Buffer.add_char buf '.';
      Buffer.add_char buf (if Ssmfp.Message.is_valid m then 'V' else 'I')

let string_key states ~delivered =
  let buf = Buffer.create 128 in
  Array.iter
    (fun (st : Ssmfp.State.t) ->
      Buffer.add_char buf (if st.Ssmfp.State.request then 'R' else 'r');
      Array.iter
        (fun (e : Routing.Selfstab.entry) ->
          Buffer.add_string buf (string_of_int e.Routing.Selfstab.dist);
          Buffer.add_char buf '.';
          Buffer.add_string buf (string_of_int e.Routing.Selfstab.via);
          Buffer.add_char buf ',')
        st.Ssmfp.State.routing;
      Buffer.add_string buf (string_of_int (List.length st.Ssmfp.State.outbox));
      Ssmfp.State.iter_slots
        (fun (sl : Ssmfp.State.slot) ->
          Buffer.add_char buf '[';
          string_of_msg buf sl.Ssmfp.State.buf_r;
          Buffer.add_char buf '|';
          string_of_msg buf sl.Ssmfp.State.buf_e;
          Buffer.add_char buf '|';
          List.iter
            (fun q ->
              Buffer.add_string buf (string_of_int q);
              Buffer.add_char buf ',')
            sl.Ssmfp.State.queue;
          Buffer.add_char buf ']')
        st;
      Buffer.add_char buf ';')
    states;
  Buffer.add_string buf (string_of_int (min delivered 2));
  Buffer.contents buf

let hash_string s =
  let h = ref fnv_offset in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

(* Canonical order on keyed configurations: fingerprint first (cheap),
   key bytes as the tiebreak. A pure function of the key, so electing a
   minimum under it is independent of discovery order — the reduce
   step's replacement for "first found". *)
let key_order ~hash_a ~key_a ~hash_b ~key_b =
  if hash_a < hash_b then -1
  else if hash_a > hash_b then 1
  else String.compare key_a key_b
