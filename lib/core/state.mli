(** Local state of a processor running SSMFP composed with the routing
    protocol [A].

    Per destination [d], a processor owns the two buffers of the paper's
    buffer graph (Figure 2): [buf_r] (reception) and [buf_e] (emission),
    plus the fairness queue backing [choice_p(d)]. The routing table is
    [A]'s state. [request]/[outbox] are the Input/Output interface to the
    higher layer; [rr] is the destination-rotation cursor that orders the
    actions offered to the daemon (the bookkeeping realizing the paper's
    "all destination algorithms run simultaneously" composition — see
    DESIGN.md).

    All of it, except [outbox] (owned by the higher layer), is protocol
    state and therefore arbitrarily corruptible in an initial
    configuration. *)

type slot = {
  buf_r : Message.t option;  (** [bufR_p(d)], the reception buffer *)
  buf_e : Message.t option;  (** [bufE_p(d)], the emission buffer *)
  queue : int list;
      (** fairness queue over [N_p ∪ {p}]; arbitrary content tolerated,
          normalized on use by {!Choice.normalize} *)
}

type slots
(** The per-destination slots, indexed by destination (length [n]),
    together with an occupancy bitset over them: destination [d]'s bit is
    set iff [bufR_p(d)] or [bufE_p(d)] holds a message. Abstract so that
    no caller can replace the slots without the index: every [slots]
    value comes from {!init_slots}, {!with_slot} or {!map_slots}, which
    keep the bitset equal to a recount of the slots. *)

(** Both [routing] and [slots] are immutable once built: every update
    ({!with_slot}, {!map_slots}, {!with_routing}, [Routing.Selfstab.apply])
    builds a fresh array and nothing writes into an existing one. States
    share them freely, and the message-passing port depends on it: a
    published snapshot ([Mp.Ssmfp_mp.public_of]) is the sender's routing
    array and slots themselves, not a copy. *)
type t = {
  routing : Routing.Selfstab.state;
  slots : slots;
  rr : int;  (** destination rotation cursor *)
  request : bool;  (** the shared variable [request_p] *)
  outbox : (int * Message.info) list;
      (** higher-layer send queue: [(destination, info)], head first *)
}

val empty_slot : Topology.Graph.t -> p:int -> slot
(** Empty buffers, queue = [p :: N_p]. *)

val init_slots : int -> (int -> slot) -> slots
(** [init_slots n f] holds [f 0], ..., [f (n-1)], calling [f] in that
    order. *)

val clean : Topology.Graph.t -> ?correct_routing:bool -> int -> t
(** [clean g p] is the pristine state: empty buffers, canonical queues, no
    request, empty outbox, and routing tables stabilized when
    [correct_routing] (default [true]) or all-zero otherwise. All [n]
    slots share one {!empty_slot} record. *)

val dests : t -> int
(** Number of slots, [n]. *)

val slot : t -> int -> slot

val with_slot : t -> int -> slot -> t
(** Functional slot update: a fresh slot array, O(n). The bitset is
    shared with [t] unless [d]'s occupancy flips, in which case it is
    copied ([n / word_bits] words). *)

val map_slots : (slot -> slot) -> t -> t
(** Replace every slot by [f] of it, calling [f] in destination order. *)

val iter_slots : (slot -> unit) -> t -> unit
(** The slots in destination order. *)

val word_bits : int
(** Destinations per bitset word ([Sys.int_size]). *)

val busy_word : t -> int -> int
(** [busy_word t w] is word [w] of the occupancy bitset: bit [i] is set
    iff slot [w * word_bits + i] holds a message. *)

val with_routing : t -> Routing.Selfstab.state -> t
val with_rr : t -> int -> t

val requests : t -> d:int -> bool
(** [request_p ∧ nextDestination_p = d], where [nextDestination_p] is the
    destination of the head of [outbox]. Allocates nothing. *)

val next_message : t -> Message.info option
(** [nextMessage_p]: info of the head of [outbox]. *)

val pop_outbox : t -> t
(** Drop the head of [outbox] (after R1 generated it). *)

val push_outbox : t -> dest:int -> Message.info -> t
(** Append a send request (higher layer). *)

val has_occupied : t -> bool
(** [occupied_buffers t <> []], read off the bitset: [O(n / word_bits)].
    The hot drain check at large [n]. *)

val occupied_buffers : t -> (int * [ `R | `E ] * Message.t) list
(** All messages present at this processor as [(destination, buffer,
    message)] — the paper's "m is existing on p". *)

val pp : Format.formatter -> t -> unit
(** Compact rendering of the non-empty parts of the state. *)
