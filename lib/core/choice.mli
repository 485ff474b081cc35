(** The fair selection procedure [choice_p(d)] (§3.2).

    For each reception buffer, the paper selects fairly among the
    processors allowed to feed it: neighbors [q] whose emission buffer
    holds a message routed to [p] ([nextHop_q(d) = p]), and [p] itself when
    it requests the generation of a message for [d]. Fairness is managed
    with a queue of length [Δ + 1]: the head-most *candidate* in the queue
    is served, and a served processor is rotated to the back, so no
    candidate can be passed more than [Δ] times (the bound driving
    Propositions 5 and 6).

    The queue is ordinary corruptible state. [normalize] repairs any
    initial content into a permutation of [N_p ∪ {p}] deterministically,
    preserving the (well-formed prefix of the) corrupted order — fairness
    holds whatever the starting order. *)

val normalize : Topology.Graph.t -> p:int -> int list -> int list
(** Keep the first occurrence of each member of [N_p ∪ {p}], drop
    everything else, then append missing members in ascending order. The
    result is always a permutation of [N_p ∪ {p}]. A queue that already
    is one (the common case: {!serve} preserves the property) is returned
    physically unchanged, without allocating. *)

val is_well_formed : Topology.Graph.t -> p:int -> int list -> bool
(** True when the list already is such a permutation. *)

val select : candidate:(int -> bool) -> int list -> int option
(** [select ~candidate queue] is the first element of [queue] satisfying
    [candidate] — the value of [choice_p(d)] (over a normalized queue). *)

val serve : int -> int list -> int list
(** [serve s queue] rotates [s] to the back, leaving the relative order of
    the others unchanged; applied when rule R1 or R3 consumes from [s]. *)
