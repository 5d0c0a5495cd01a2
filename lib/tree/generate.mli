(** Tree-family generators for workloads and experiments.

    Every generator produces a {!Labeled_tree.t} with zero-padded numeric
    labels ("v000", "v001", ...) so that label order equals vertex-id order
    and all derived structures are deterministic. Random generators take an
    explicit {!Aat_util.Rng.t}. *)

val path : int -> Labeled_tree.t
(** Path on [n >= 1] vertices; diameter [n - 1]. *)

val star : int -> Labeled_tree.t
(** Star with vertex 0 as the center and [n - 1] leaves; diameter 2 (for
    [n >= 3]). *)

val balanced : arity:int -> depth:int -> Labeled_tree.t
(** Complete [arity]-ary tree of the given depth (root at depth 0). *)

val caterpillar : spine:int -> legs:int -> Labeled_tree.t
(** Path of [spine] vertices with [legs] pendant leaves on each spine
    vertex. High diameter, high vertex count. *)

val spider : legs:int -> leg_length:int -> Labeled_tree.t
(** One center with [legs] disjoint paths of [leg_length] edges attached —
    the generalization of Figure 5's branching vertex. *)

val broom : handle:int -> bristles:int -> Labeled_tree.t
(** Path of [handle] vertices whose far end carries [bristles] extra
    leaves — trees where PathsFinder's final-edge ambiguity shows up. *)

val random : Aat_util.Rng.t -> int -> Labeled_tree.t
(** Uniformly random labeled tree on [n >= 1] vertices (random Prüfer
    sequence). *)

val random_of_diameter :
  Aat_util.Rng.t -> n:int -> diameter:int -> Labeled_tree.t
(** A random tree with exactly the requested diameter: a backbone path of
    [diameter] edges plus [n - diameter - 1] extra vertices attached at
    random positions without extending the diameter. Requires
    [1 <= diameter <= n - 1] and [diameter >= 2] when [n > diameter + 1]. *)

val labels_of_size : int -> string array
(** The canonical zero-padded labels used by all generators. *)

(** {1 Family specs} *)

type spec
(** A generator call: [path:N], [star:N], [caterpillar:SPINE:LEGS],
    [spider:LEGS:LEN], [balanced:ARITY:DEPTH], [broom:HANDLE:BRISTLES],
    [random:N:SEED] or [diameter:N:D:SEED] ({!spec}, the [treeaa --gen]
    grammar). *)

val spec : spec Aat_util.Codec.t

val of_spec : spec -> Labeled_tree.t
(** Raises [Invalid_argument] for sizes outside the generator's range. *)
