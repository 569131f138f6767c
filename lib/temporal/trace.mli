(** Contact traces: the temporal-network representation of §4.2.

    A trace is a static node set [0 .. n_nodes - 1], an observation window
    [(t_start, t_end)], and a multiset of contacts within the window,
    sorted by start time. This is the input type of every path
    computation and every experiment in this repository.

    The store is structure-of-arrays: the four fields of the contacts in
    start order ({!time_csr}), each contact's link to the previous
    contact of its pair, and a per-node index (CSR-packed offsets plus
    one [int array] of contact indices). That is 7 words per contact and
    one per node, and no {!Contact.t} is kept: {!contacts}, {!contact},
    {!iter}, {!fold} and the per-node accessors build records on demand,
    so they allocate and are meant for cold paths; hot loops read
    {!time_csr}. Next to the store, a pair index lists each pair's
    contacts and each node's pairs (see {!time_csr}): one word per kept
    contact, three per pair and one per node.

    A trace is immutable: the store is built eagerly at creation, so a
    single trace value can be shared by any number of domains with no
    synchronisation and no forcing protocol. *)

type t

val create : ?name:string -> n_nodes:int -> t_start:float -> t_end:float -> Contact.t list -> t
(** Validates that the window bounds are finite and ordered, that every
    contact has [t_beg <= t_end] (no NaN bound), fits the window, that
    {e both} endpoint ids lie in [[0, n_nodes)] and that they differ
    (contacts deserialised past the private constructor are caught
    here, not by a crash in the index, a silently broken start order,
    or a self-contact linked to itself in [csr_prev]), then sorts and
    builds the store. Contacts are checked in input order, so the error
    names the first violator. Raises [Invalid_argument] otherwise, or
    if [n_nodes < 0].

    Every creation records a [trace.create] span and sets the
    [trace.store_bytes] gauge (the store's array payload, the pair
    index not included) when metrics are on. *)

val create_result :
  ?name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  Contact.t list ->
  (t, Omn_robust.Err.t) result
(** Non-raising {!create}: validation failures come back as typed
    errors ([Range] for node problems, naming the node — an id out of
    range or a self-contact; [Window] for window problems, including a
    NaN or infinite window bound). *)

val create_array_result :
  ?name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  Contact.t array ->
  (t, Omn_robust.Err.t) result
(** {!create_result} on an array. The array is read, never sorted or
    modified. *)

(** A growable structure-of-arrays buffer of contact fields, so that a
    reader or a transform can build a trace without boxing a
    {!Contact.t} per contact. Fields are stored as given: validation is
    {!of_builder_result}'s. *)
module Builder : sig
  type t

  val create : int -> t
  (** An empty buffer with room for the given number of contacts. *)

  val reserve : t -> int -> unit
  (** [reserve buf k] makes room for [k] more contacts, exactly: a
      smaller capacity becomes the number of contacts added so far
      plus [k]. *)

  val add : t -> a:Node.t -> b:Node.t -> t_beg:float -> t_end:float -> unit
  (** Append one contact, doubling the capacity when full. *)
end

val of_builder_result :
  ?name:string ->
  n_nodes:int ->
  t_start:float ->
  t_end:float ->
  Builder.t ->
  (t, Omn_robust.Err.t) result
(** {!create_result} on the buffer's contacts, in the order they were
    added. The sort is [Contact.compare_by_start]'s, and it places
    [-0]/[+0] ties as [Array.sort] on the contacts would. When the
    starts never decrease and no time is [-0], only the runs of equal
    starts are sorted, in the buffer's own arrays (ties are then
    bit-identical, so their order cannot show); otherwise the whole
    buffer is heap-sorted through an index permutation and copied. The
    trace takes over the buffer's arrays where it can (no global sort,
    buffer full), so the buffer is left empty and must not be reused. *)

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
(** Sorted by {!Contact.compare_by_start}. A fresh array of fresh
    records, built from the store: O(n_contacts) allocation per call. *)

val contact : t -> int -> Contact.t
(** The [i]-th contact in start order, built on demand. *)

val iter : (Contact.t -> unit) -> t -> unit
(** Visit the contacts in start order; builds one record per contact. *)

val fold : ('acc -> Contact.t -> 'acc) -> 'acc -> t -> 'acc
(** Fold over the contacts in start order; builds one record per
    contact. *)

val node_contacts : t -> Node.t -> Contact.t array
(** Contacts involving a node, sorted by start time. A fresh array of
    records built through the per-node index, O(degree). *)

val iter_node_contacts : (Contact.t -> unit) -> t -> Node.t -> unit
(** Visit a node's contacts in start order, through the per-node index;
    builds one record per contact. *)

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
  pair_runs : int array;
      (** the pair index: one run per pair of nodes that meet, its
          length [r] followed by the [r] contacts of the pair that
          are kept, in start order. A contact is left out when its
          end does not exceed the end of an earlier contact of its
          pair, so the kept ends strictly increase. *)
  node_pair_off : int array;
      (** length [n_nodes + 1]: node [u]'s pairs are entries
          [node_pair_off.(u)] to [node_pair_off.(u + 1) - 1] of
          [node_pairs] *)
  node_pairs : int array;
      (** for each node, the position in [pair_runs] of each of its
          pairs' runs, one entry per peer; a run names the peer
          through its first contact's endpoints *)
}
(** The store: the contact multiset as structure-of-arrays in
    start-time order, index [i] being {!contact}[ t i]. Flat arrays read
    sequentially are what the per-round relaxation sweep in
    [Omn_core.Journey] iterates (a mixed int/float record would box its
    float fields and cost two heap pointers per contact), and
    [csr_prev] lets that sweep skip a candidate the pair's previous
    contact already offered.

    The pair index serves the sweep's rounds with few new descriptors,
    which extend each descriptor along the contacts of each pair of
    its node rather than scan every contact. A contact left out of its
    run is nested in an earlier one of the same pair: it starts no
    earlier (start order) and ends no later, so every descriptor that
    can cross it can cross the earlier one too, into a descriptor that
    departs no earlier and arrives no later. Dropping it keeps the
    ends of a run strictly increasing, which lets a walk find the
    first contact a descriptor can still catch by binary search.

    [csr_prev] and the pair index are derived here, never serialised.
    Built eagerly at {!create}, immutable and safe to share across
    domains. The arrays are owned by the trace: do not mutate. *)

val time_csr : t -> time_csr
(** The trace's contact arrays. O(1), no allocation. *)

val contact_rate : t -> float
(** Average number of contacts made by a node per unit of time — the λ of
    §3.1: [2 * n_contacts / (n_nodes * span)]. 0 on degenerate traces. *)

val active_nodes : t -> int
(** Number of nodes with at least one contact. *)

val pp_summary : Format.formatter -> t -> unit
