(** Labeled trees — the input spaces of approximate agreement on trees.

    A value of type {!t} is a finite, connected, acyclic, undirected graph
    whose vertices carry distinct string labels. Labels matter to the
    protocols: the paper fixes the root as the vertex with the
    lexicographically lowest label, orients paths by comparing endpoint
    labels, and requires every honest party to derive identical data
    structures from the public tree. To make that determinism total, the
    adjacency lists of a [t] are sorted by neighbor label, so any traversal
    that follows adjacency order is the same for all parties.

    Vertices are exposed as dense integer identifiers in [\[0, n)] assigned
    in label order: vertex [0] always carries the lowest label. This makes
    array-indexed algorithms natural while keeping the labeled-tree
    semantics of the paper. The labels are kept as one strictly increasing
    array, which {!vertex_of_label} binary-searches, and every constructor
    ends in {!of_int_edges}, the one place a tree is validated. *)

type vertex = int
(** Vertex identifier, dense in [\[0, n_vertices t)], assigned in increasing
    label order. *)

type t

exception Invalid_tree of string
(** Raised by constructors on inputs that are not a labeled tree: duplicate
    labels, unknown endpoints, self-loops, parallel edges, cycles, or a
    disconnected edge set. *)

val of_int_edges : labels:string array -> (vertex * vertex) list -> t
(** [of_int_edges ~labels edges]: vertex [v] carries [labels.(v)] (copied),
    which must be strictly increasing. The label-keyed constructors sort and
    resolve labels, then call it; {!Generate} calls it directly. Raises
    {!Invalid_tree}, checking in this order: no labels; repeated or unsorted
    labels; [|E| <> |V| - 1]; an endpoint outside [\[0, n)]; a self-loop or a
    repeated edge (the first such edge in [edges]); a disconnected graph. *)

val of_labeled_edges : ?isolated:string list -> (string * string) list -> t
(** [of_labeled_edges edges] builds the tree whose vertex set is every label
    appearing in [edges] (plus [isolated], for the single-vertex tree which
    has no edges). Raises {!Invalid_tree} if the graph is not a tree. *)

val singleton : string -> t
(** The one-vertex tree. *)

val of_parents : labels:string array -> int array -> t
(** [of_parents ~labels parent] builds a tree from a parent table:
    [parent.(i)] is the index (into [labels]) of the parent of vertex
    [labels.(i)], and exactly one entry is [-1] (the root of the encoding —
    not necessarily the protocol root). Raises {!Invalid_tree} on malformed
    tables. *)

val n_vertices : t -> int

val label : t -> vertex -> string

val vertex_of_label : t -> string -> vertex
(** O(log n). Raises [Not_found] if no vertex carries the label. *)

val mem_label : t -> string -> bool

val neighbors : t -> vertex -> vertex list
(** Neighbors in increasing label order (equivalently increasing vertex id). *)

val degree : t -> vertex -> int

val is_leaf : t -> vertex -> bool

val edges : t -> (vertex * vertex) list
(** Each edge once, as [(u, v)] with [u < v], sorted. *)

val diameter : t -> int
(** [D(T)], the number of edges on a longest path; 0 for the single
    vertex. Computed once, by {!of_int_edges}, so reading it is free and
    equal trees stay [=]. *)

val root : t -> vertex
(** The vertex with the lexicographically lowest label — the protocol root
    fixed by TreeAA (always vertex [0]). *)

val vertices : t -> vertex list

val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a

val adjacent : t -> vertex -> vertex -> bool

val equal : t -> t -> bool
(** Structural equality: same labels and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering, e.g. [tree{a-b; b-c}]. *)
