(** Global tree metrics: diameter, eccentricities, center, radius.

    The diameter [D(T)] — the length (in edges) of the longest path — is the
    quantity the paper's round bounds are stated in. All functions are
    linear-time BFS-based except {!diameter}, which reads the tree, and
    {!all_eccentricities}, which is O(n^2) and intended for tests. *)

val diameter : Labeled_tree.t -> int
(** [D(T)] = {!Labeled_tree.diameter}, computed once per tree when it is
    built. 0 for the single vertex. *)

val longest_path : Labeled_tree.t -> Paths.path
(** One longest path, from the lower-labeled endpoint, deterministic
    (label-order tie-breaks). Its endpoints are the [D(T)]-distant
    vertices used as the inputs [a, b] of the lower-bound construction
    (Corollary 1). *)

val eccentricity : Labeled_tree.t -> Labeled_tree.vertex -> int
(** Largest distance from the vertex to any other. *)

val all_eccentricities : Labeled_tree.t -> int array

val radius : Labeled_tree.t -> int

val center : Labeled_tree.t -> Labeled_tree.vertex list
(** The 1 or 2 vertices of minimum eccentricity, computed by leaf-pruning in
    O(n). *)
