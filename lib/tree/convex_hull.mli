(** Convex hulls in trees (tree convexity).

    The hull [⟨S⟩] of a vertex set [S] is the vertex set of the smallest
    connected subtree containing [S]; equivalently, [w ∈ ⟨S⟩] iff [w] lies
    on the path between some pair of vertices of [S] (Section 2 of the
    paper). Validity of AA on trees is membership of every honest output in
    the hull of honest inputs. *)

type t
(** A computed hull: supports O(1) membership and enumeration. *)

val compute : Rooted.t -> Labeled_tree.vertex list -> t
(** Hull of the given (non-empty) set of vertices. O(n); the view is
    re-rooted at the first vertex of the set unless its root is already in
    the set. Raises
    [Invalid_argument] on the empty set: the hull of no inputs is not
    defined (an AA execution always has at least one honest party). *)

val mem : t -> Labeled_tree.vertex -> bool

val vertices : t -> Labeled_tree.vertex list
(** Hull members in increasing vertex (= label) order. *)

val size : t -> int

val generators : t -> Labeled_tree.vertex list
(** The set [S] the hull was computed from (deduplicated, sorted). *)

val subset : t -> t -> bool
(** [subset a b] — every vertex of [a] is in [b]. *)

val on_some_pair_path :
  Rooted.t -> Labeled_tree.vertex list -> Labeled_tree.vertex -> bool
(** Direct quadratic check of the defining property ([∃ u v ∈ S] with [w] on
    [P(u, v)]); used by tests as an oracle for {!compute}. *)
