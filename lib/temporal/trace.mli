(** Contact traces: the temporal-network representation of §4.2.

    A trace is a static node set [0 .. n_nodes - 1], an observation window
    [(t_start, t_end)], and a multiset of {!Contact.t} within the window,
    stored sorted by start time. This is the input type of every path
    computation and every experiment in this repository.

    A trace is immutable: the per-node adjacency index is built eagerly
    at creation (CSR-packed offsets plus one [int array] of contact
    indices, 2 words per contact), so a single trace value can be shared
    by any number of domains with no synchronisation and no forcing
    protocol. *)

type t

val create : ?name:string -> n_nodes:int -> t_start:float -> t_end:float -> Contact.t list -> t
(** Validates that every contact has [t_beg <= t_end] (no NaN bound),
    fits the window, that {e both} endpoint ids lie in [[0, n_nodes)]
    and that they differ (contacts deserialised past the private
    constructor are caught here, not by a crash in the index, a
    silently broken start order, or a self-contact linked to itself in
    [csr_prev]), then sorts and builds the adjacency index. Raises
    [Invalid_argument] otherwise, or if [t_start > t_end] or
    [n_nodes < 0]. *)

val create_result :
  ?name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  Contact.t list ->
  (t, Omn_robust.Err.t) result
(** Non-raising {!create}: validation failures come back as typed
    errors ([Range] for node problems, naming the node — an id out of
    range or a self-contact; [Window] for window problems). *)

val create_array_result :
  ?name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  Contact.t array ->
  (t, Omn_robust.Err.t) result
(** {!create_result} taking ownership of a contact array instead of
    copying a list — the streaming reader builds its contacts in a
    growable array and hands it over without an intermediate list.
    The array is validated and sorted in place; the caller must not
    reuse it. *)

val name : t -> string
(** Dataset label (defaults to ["trace"]). *)

val with_name : t -> string -> t
val n_nodes : t -> int
val t_start : t -> float
val t_end : t -> float

val span : t -> float
(** [t_end - t_start]. *)

val n_contacts : t -> int

val contacts : t -> Contact.t array
(** Sorted by {!Contact.compare_by_start}. The array is owned by the
    trace; do not mutate it. *)

val contact : t -> int -> Contact.t
val iter : (Contact.t -> unit) -> t -> unit
val fold : ('acc -> Contact.t -> 'acc) -> 'acc -> t -> 'acc

val node_contacts : t -> Node.t -> Contact.t array
(** Contacts involving a node, sorted by start time. Returns a fresh
    array (O(degree), read out of {!contacts} through the CSR index of
    contact indices); prefer {!iter_node_contacts} /
    {!fold_node_contacts} on hot paths. *)

val iter_node_contacts : (Contact.t -> unit) -> t -> Node.t -> unit
(** Visit a node's contacts in start order, through the CSR index — no
    allocation. *)

val fold_node_contacts : ('acc -> Contact.t -> 'acc) -> 'acc -> t -> Node.t -> 'acc
(** Fold over a node's contacts in start order, no allocation. *)

val pair_contacts : t -> Node.t -> Node.t -> Contact.t list
(** Contacts between an unordered pair, sorted by start time. *)

val degree : t -> Node.t -> int
(** Number of contacts involving the node. O(1). *)

type time_csr = private {
  csr_a : int array;  (** lower endpoint of contact [i] *)
  csr_b : int array;  (** upper endpoint of contact [i] *)
  csr_beg : float array;  (** start time of contact [i] *)
  csr_end : float array;  (** end time of contact [i] *)
  csr_prev : int array;
      (** the latest earlier contact between the same two nodes — the
          largest [p < i] with the same endpoints as [i] — or [-1] when
          [i] is the pair's first *)
}
(** The contact multiset mirrored as structure-of-arrays in start-time
    order, index [i] being {!contacts}[.(i)]. [Contact.t] is a mixed
    int/float record, so its float fields are boxed and an
    [Array.iter] over {!contacts} chases two heap pointers per contact;
    the CSR mirror is flat arrays read sequentially — what the
    per-round relaxation sweep in [Omn_core.Journey] iterates, and
    [csr_prev] lets that sweep skip a candidate the pair's previous
    contact already offered. [csr_prev] costs one word per contact and
    is derived here, never serialised. Built eagerly at {!create},
    immutable and safe to share across domains. The arrays are owned by
    the trace: do not mutate. *)

val time_csr : t -> time_csr
(** The trace's time-indexed CSR mirror. O(1), no allocation. *)

val contact_rate : t -> float
(** Average number of contacts made by a node per unit of time — the λ of
    §3.1: [2 * n_contacts / (n_nodes * span)]. 0 on degenerate traces. *)

val active_nodes : t -> int
(** Number of nodes with at least one contact. *)

val pp_summary : Format.formatter -> t -> unit
